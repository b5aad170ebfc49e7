"""Grading analysis of nilpotent Higgs fields and diagonal gauge rescalings.

The central construction: given a flat family whose leading term phi is
nilpotent and presented in a graded frame (the orthogonal splitting is an
input, not computed), conjugation by a diagonal one-parameter gauge splits
every term into graded pieces carrying exact rational parameter exponents.
The lowest surviving piece phi + A_{1-m} is the secondary (non-nilpotent)
Higgs field and the integer m is the invariant controlling the holonomy
growth exponent (m-1)/m.

Exponent bookkeeping is exact throughout: conjugation by diag(zeta^{e_1}, ...,
zeta^{e_n}) scales entry (i, j) by the formal monomial zeta^{e_j - e_i}, and
the monomial only ever lives as a Fraction added to a term's exponent.
Fractional powers are never materialized numerically here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .algebra import (
    BiRationalFunction,
    GaussianRational,
    RationalFunctionMatrix,
    exact_fraction,
    matrix_rank_exact,
)
from .connection import ConnectionFamily, MatrixOneForm, check_flatness
from .errors import (
    BadBlocks,
    DimensionMismatch,
    FixedPointDetected,
    FrameNotAligned,
    NotNilpotent,
    ZeroHiggsField,
)

@dataclass(frozen=True)
class NilpotentType:
    """Jordan data of a nilpotent field: kernel-growth partition and its transpose.

    partition[i-1] = dim ker(phi^i) - dim ker(phi^{i-1}) at a generic point;
    the transpose partition lists Jordan block sizes in decreasing order;
    nilpotency_index is the smallest k with phi^k = 0.
    """

    partition: Tuple[int, ...]

    @property
    def transpose(self) -> Tuple[int, ...]:
        return conjugate_partition(self.partition)

    @property
    def nilpotency_index(self) -> int:
        return len(self.partition)


def conjugate_partition(partition: Sequence[int]) -> Tuple[int, ...]:
    if not partition:
        return ()
    return tuple(
        sum(1 for p in partition if p >= i) for i in range(1, max(partition) + 1)
    )


@dataclass(frozen=True)
class GaugeProfile:
    """Diagonal gauge data: formal exponents e_i, per-block integers, and m, their maximum.

    The exponents sum to zero (determinant one up to the central sign coming
    from the choice of root).  Entry (i, j) of a conjugated matrix is scaled
    by zeta^{e_j - e_i}; the overall sign of the exponent vector is the choice
    of which side the gauge acts on, and both signs round-trip.
    """

    exponents: Tuple[Fraction, ...]
    block_m: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(exact_fraction(e) for e in self.exponents))
        if sum(self.exponents, Fraction(0)) != 0:
            raise ValueError("gauge profile exponents must sum to zero")

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def m(self) -> int:
        return max(self.block_m, default=0)

    def negated(self) -> "GaugeProfile":
        return GaugeProfile(tuple(-e for e in self.exponents), self.block_m)

    def shift(self, row: int, col: int) -> Fraction:
        return self.exponents[col] - self.exponents[row]

    @classmethod
    def from_splitting(cls, partition: Sequence[int], block_m: Sequence[int]) -> "GaugeProfile":
        """Per-block profile e = (2j - 1 - k_i) / (2 m_i) on line j of block i.

        partition is the grading (dim V_1, ..., dim V_k); block i runs over
        the transpose partition entries k_i, and block_m[i-1] is that block's
        invariant (1 for degenerate blocks).
        """
        layout = _line_layout(partition)
        transpose = conjugate_partition(partition)
        if len(block_m) != len(transpose):
            raise BadBlocks("need one m per transpose-partition block")
        exps = []
        for level, slot in layout:
            k_i = transpose[slot - 1]
            m_i = max(1, block_m[slot - 1])
            exps.append(Fraction(2 * level - 1 - k_i, 2 * m_i))
        return cls(tuple(exps), block_m=tuple(block_m))

    def to_json(self) -> dict:
        return {
            "exponents": [str(e) for e in self.exponents],
            "block_m": list(self.block_m),
            "m": self.m,
        }


def _line_layout(partition: Sequence[int]) -> List[Tuple[int, int]]:
    """Global frame order of the graded lines: [(level j, slot i), ...].

    Level j contributes partition[j-1] lines; slot i within a level belongs to
    the i-th transpose block.
    """
    layout = []
    for j, nj in enumerate(partition, start=1):
        for i in range(1, nj + 1):
            layout.append((j, i))
    return layout


def jordan_type(phi: MatrixOneForm) -> NilpotentType:
    """Jordan type of a nilpotent (1,0)-field from the generic ranks of its powers.

    The rank of phi^j over the function field Q(i)(z, zbar) (exact
    elimination, no sample points) gives the generic dim ker(phi^j); the
    kernel-dimension increments form the partition, constant away from
    finitely many points of the chart.  phi is nilpotent when that rank
    reaches 0 within n powers (NotNilpotent otherwise).
    """
    if not phi.dzbar_part.is_zero:
        raise ValueError("jordan_type expects a (1,0)-form Higgs field")
    mat = phi.dz_part
    n = mat.rows
    if mat.is_zero:
        raise ZeroHiggsField("phi = 0 has no Jordan type here")
    kernel_dims = [0]
    power = mat
    for _ in range(n):
        kernel_dims.append(n - matrix_rank_exact(power))
        if kernel_dims[-1] == n:
            break
        power = power @ mat
    else:
        raise NotNilpotent("phi^n != 0")
    partition = tuple(
        kernel_dims[j] - kernel_dims[j - 1] for j in range(1, len(kernel_dims))
    )
    return NilpotentType(partition)


def graded_decompose(A: MatrixOneForm, blocks: Sequence[int]) -> Dict[int, MatrixOneForm]:
    """Split a form by block distance: piece k collects blocks (r, c) with c - r = k.

    Summing the pieces reassembles the input exactly; zero pieces are omitted.
    """
    n = A.n
    if sum(blocks) != n or any(b <= 0 for b in blocks):
        raise BadBlocks(f"blocks {blocks} do not partition dimension {n}")
    level = [lev for lev, _slot in _line_layout(blocks)]
    return _bucket(
        ((level[j] - level[i], i, j, dz_e, dzb_e) for i, j, dz_e, dzb_e in A.nonzero_entries()),
        n,
    )


def gauge_conjugate(obj, profile: GaugeProfile):
    """Conjugate by the diagonal gauge, tracking exponents exactly.

    Entry (i, j) is scaled by the formal monomial zeta^{e_j - e_i}.  A
    MatrixOneForm (or a graded dict of them) comes back as a graded dict
    keyed by exact rational exponent shift; a ConnectionFamily comes back as
    a graded dict keyed by total term exponent.  The inhomogeneous term is
    untouched: the gauge is constant on the chart.
    """
    if isinstance(obj, MatrixOneForm):
        based, n = [(Fraction(0), obj)], obj.n
    elif isinstance(obj, dict):
        based, n = [(exact_fraction(base), form) for base, form in obj.items()], profile.n
    elif isinstance(obj, ConnectionFamily):
        based, n = [(exponent, form) for _name, exponent, form in obj.terms()], obj.n
    else:
        raise TypeError(f"cannot gauge-conjugate {type(obj).__name__}")
    for _base, form in based:
        if form.n != profile.n:
            raise DimensionMismatch(f"profile of length {profile.n} on a rank-{form.n} form")
    return _bucket(
        (
            (base + profile.shift(i, j), i, j, dz_e, dzb_e)
            for base, form in based
            for i, j, dz_e, dzb_e in form.nonzero_entries()
        ),
        n,
    )


def _bucket(pieces, n: int) -> dict:
    """Sum (key, i, j, dz_e, dzbar_e) pieces into one rank-n form per key.

    Keys come back in sorted order and forms that sum to zero are dropped.
    """
    zero = BiRationalFunction.zero()
    slots: dict = {}
    for key, i, j, dz_e, dzb_e in pieces:
        at = slots.setdefault(key, {})
        dz_prev, dzb_prev = at.get((i, j), (zero, zero))
        at[(i, j)] = (dz_prev + dz_e, dzb_prev + dzb_e)
    out = {}
    for key in sorted(slots):
        dz = [[zero] * n for _ in range(n)]
        dzb = [[zero] * n for _ in range(n)]
        for (i, j), (dz_e, dzb_e) in slots[key].items():
            dz[i][j], dzb[i][j] = dz_e, dzb_e
        form = MatrixOneForm(RationalFunctionMatrix(dz), RationalFunctionMatrix(dzb))
        if not form.is_zero:
            out[key] = form
    return out


@dataclass(frozen=True)
class SecondaryData:
    """Output of the rescaling: the secondary field, its exponent, and the rest.

    Phi is the exact leading piece at exponent (1 - m) in the m-th-power
    reparametrized family; residual_terms carry every other graded piece with
    its exact exponent, so the original family can be reassembled exactly.
    """

    Phi: MatrixOneForm
    diag_connection: MatrixOneForm
    residual_terms: Tuple[Tuple[Fraction, MatrixOneForm], ...]
    profile: GaugeProfile
    splitting: Tuple[int, ...]

    @property
    def m(self) -> int:
        return self.profile.m

    @property
    def leading_exponent(self) -> Fraction:
        return Fraction(1 - self.m)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "splitting": list(self.splitting),
            "leading_exponent": str(self.leading_exponent),
            "profile": self.profile.to_json(),
            "phi_secondary": self.Phi.to_json(),
            "diag_connection": self.diag_connection.to_json(),
            "residual_terms": [[str(e), f.to_json()] for e, f in self.residual_terms],
        }


def _check_graded_frame(phi: MatrixOneForm, partition: Sequence[int]) -> None:
    """The input frame must exhibit phi in graded shape: pure weight +1 with
    slot-aligned lines (slot s of level j+1 maps onto slot s of level j)."""
    layout = _line_layout(partition)
    cells = [(r, c) for r in range(len(layout)) for c in range(len(layout))]
    support = {(r, c) for r, c in cells if phi.dz_part.entries[r][c]}
    aligned = {(r, c) for r, c in cells if layout[c] == (layout[r][0] + 1, layout[r][1])}
    if support != aligned:
        r, c = min(support ^ aligned)  # the first row-major position where they differ
        (lr, sr), (lc, sc) = layout[r], layout[c]
        if (r, c) in support:
            raise FrameNotAligned(
                f"phi entry ({r},{c}) sits at grading step {lc - lr}, slot "
                f"{sr}->{sc}; the splitting frame must align phi on the "
                "graded superdiagonal"
            )
        raise FrameNotAligned(
            f"phi entry ({r},{c}) on the graded superdiagonal vanishes; "
            "the grading lines are not matched by phi"
        )


def secondary_higgs(family: ConnectionFamily, splitting: Sequence[int], seed: int = 2301) -> SecondaryData:
    """Extract the secondary Higgs field and the invariant m.

    Blockwise over the transpose partition: within block i, m_i is the
    largest t with a nonzero connection piece at grading weight 1 - t
    (m_i = 1 when all such pieces vanish).  With m = max m_i, the secondary
    field collects phi and the weight (1-m) connection piece of every block
    attaining the maximum; the diagonal graded piece of the connection stays
    at exponent 0 and every other graded piece is kept with its exact
    exponent, so undoing the gauge reproduces the family exactly.

    Raises FixedPointDetected when m = 1: the scaling-fixed-point case, where
    the leading piece would stay nilpotent and the construction degenerates.
    The family must be exactly flat (ValueError otherwise) and the splitting
    must equal phi's exact Jordan type (see jordan_type).  ``seed`` is
    ignored, since that type is exact; it stays accepted because callers
    outside the package still pass it.
    """
    splitting = tuple(int(b) for b in splitting)
    n = family.n
    if sum(splitting) != n or any(b <= 0 for b in splitting):
        raise BadBlocks(f"splitting {splitting} does not partition rank {n}")
    phi = family.phi
    if phi.is_zero:
        raise ZeroHiggsField("cannot rescale around phi = 0")
    jt = jordan_type(phi)
    if not check_flatness(family).is_flat:
        raise ValueError("family is not flat; secondary field needs a flat input")
    if jt.partition != splitting:
        raise BadBlocks(
            f"splitting {splitting} is inconsistent with the Jordan type {jt.partition}"
        )
    _check_graded_frame(phi, splitting)

    layout = _line_layout(splitting)
    # per-block largest t >= 2 with a nonzero weight-(1-t) connection piece
    block_m = [1] * len(jt.transpose)
    for r, c, _dz_e, _dzb_e in family.conn.nonzero_entries():
        (lr, sr), (lc, sc) = layout[r], layout[c]
        if sr == sc:
            block_m[sr - 1] = max(block_m[sr - 1], 1 - (lc - lr))
    m = max(block_m)
    if m == 1:
        raise FixedPointDetected(
            "all lower graded connection pieces vanish: scaling fixed point, "
            "the secondary field would remain nilpotent"
        )

    profile = GaugeProfile.from_splitting(splitting, block_m)

    lead, diag, residual = [], [], []
    for name, term_exp, form in family.terms():
        for r, c, dz_e, dzb_e in form.nonzero_entries():
            (lr, sr), (lc, sc) = layout[r], layout[c]
            shift = profile.shift(r, c)
            weight = lc - lr
            top_block = sr == sc and block_m[sr - 1] == m
            if top_block and (name == "phi" and weight == 1 or name == "conn" and weight == 1 - m):
                lead.append((0, r, c, dz_e, dzb_e))
            elif name == "conn" and shift == 0 and weight == 0:
                diag.append((0, r, c, dz_e, dzb_e))
            else:
                residual.append((m * term_exp + m * shift, r, c, dz_e, dzb_e))

    zero = MatrixOneForm.zero(n)
    Phi = _bucket(lead, n).get(0, zero)
    if not Phi.dzbar_part.is_zero:
        raise ValueError(
            "the weight (1-m) connection piece has a (0,1) component; flat "
            "families cannot produce this, check the input"
        )
    return SecondaryData(
        Phi=Phi,
        diag_connection=_bucket(diag, n).get(0, zero),
        residual_terms=tuple(_bucket(residual, n).items()),
        profile=profile,
        splitting=splitting,
    )


def undo_gauge(data: SecondaryData) -> Tuple[MatrixOneForm, MatrixOneForm, MatrixOneForm]:
    """Reverse the rescaling: (phi, conn, psi) of the original family, exactly.

    Each entry's exponent is shifted back by the gauge and divided by m; the
    result must land on the integer exponents (-1, 0, +1), which identify the
    term the entry came from.
    """
    m = data.m
    n = data.Phi.n
    pieces = []
    graded = [(data.leading_exponent, data.Phi), (Fraction(0), data.diag_connection)]
    for exponent, form in graded + list(data.residual_terms):
        for r, c, dz_e, dzb_e in form.nonzero_entries():
            original = (exponent - m * data.profile.shift(r, c)) / m
            if original not in (-1, 0, 1):
                raise ValueError(
                    f"entry ({r},{c}) ungauges to exponent {original}, not in (-1,0,1)"
                )
            pieces.append((original, r, c, dz_e, dzb_e))
    forms = _bucket(pieces, n)
    zero = MatrixOneForm.zero(n)
    return forms.get(-1, zero), forms.get(0, zero), forms.get(1, zero)


def is_m_cyclic(Phi: MatrixOneForm, profile: GaugeProfile, m: int) -> bool:
    """Exact cyclic-grading check: every nonzero entry sits one step up mod m.

    The weight unit is the smallest positive gap between profile exponents;
    each nonzero entry's shift must be an integer number of units congruent
    to 1 mod m.  No floating roots of unity are involved.
    """
    gaps = sorted(
        {
            abs(a - b)
            for a in profile.exponents
            for b in profile.exponents
            if a != b
        }
    )
    unit = gaps[0] if gaps else Fraction(1)
    for r, c, _dz_e, _dzb_e in Phi.nonzero_entries():
        steps = profile.shift(r, c) / unit
        if steps.denominator != 1 or (int(steps) - 1) % m != 0:
            return False
    return True


def k_differentials(Phi: MatrixOneForm, up_to: int) -> List[BiRationalFunction]:
    """Tr(Phi^k) for k = 2..up_to, as exact coefficients of dz^k; up_to
    below 2 asks for nothing and raises ValueError."""
    if up_to < 2:
        raise ValueError(f"up_to must be at least 2, got {up_to}")
    if Phi.dz_part.rows != Phi.dz_part.cols:
        raise DimensionMismatch("k_differentials of a non-square field")
    if not Phi.dzbar_part.is_zero:
        raise ValueError("k_differentials expects a (1,0)-form field")
    out = []
    power = Phi.dz_part @ Phi.dz_part
    for k in range(2, up_to + 1):
        out.append(power.trace())
        if k < up_to:
            power = power @ Phi.dz_part
    return out


def reality_obstruction(Phi: MatrixOneForm, Psi: MatrixOneForm) -> bool:
    """True when det(-conj(Psi)) = -det(Phi) as exact rational functions.

    The sign mismatch of the two determinants is exactly what obstructs the
    rescaled section from being real.  conj is the formal swap z <-> zbar
    plus coefficient conjugation.  The all-zero case is degenerate: no
    obstruction is detectable and False is returned.
    """
    if Phi.n != 2 or Psi.n != 2:
        raise DimensionMismatch("reality obstruction is a rank-2 predicate")
    det_phi = _det2(Phi.dz_part)
    minus_conj_psi = Psi.dzbar_part.conj_swap().scale(GaussianRational(-1))
    det_mirror = _det2(minus_conj_psi)
    if det_phi.is_zero and det_mirror.is_zero:
        return False
    return det_mirror == -det_phi


def _det2(M: RationalFunctionMatrix) -> BiRationalFunction:
    e = M.entries
    return e[0][0] * e[1][1] - e[0][1] * e[1][0]
