"""Four-punctured-sphere catalog: weights, stability, explicit nilpotent fields.

Punctures sit at 0, 1, infinity and a movable point p; flags are exact
projective lines, weights are exact rationals, and every check in this module
is case arithmetic over Gaussian rationals with no tolerances.  Each toy
field is a 2x2 polynomial grid G times the scalar 1 / prod (z - a) over its
finite residue sites; its nilpotency is checked and its finite residues are
taken on G, with none of the prefactor's rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Sequence, Tuple

from .algebra import BRF, GR_ONE, GR_ZERO, GaussianRational, RationalFunctionMatrix, exact_fraction
from .connection import MatrixOneForm
from .errors import BadPuncture, UnstableWeights


@dataclass(frozen=True)
class ParabolicWeights:
    """Four weights, each strictly between 0 and 1/2."""

    rho: Tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        rho = tuple(exact_fraction(r) for r in self.rho)
        if len(rho) != 4:
            raise ValueError("exactly four weights")
        if any(not (0 < r < Fraction(1, 2)) for r in rho):
            raise ValueError("weights must lie strictly between 0 and 1/2")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def parse(cls, text: str) -> "ParabolicWeights":
        return cls(tuple(text.split(",")))


@dataclass(frozen=True)
class WeightInequalityReport:
    """Pass/fail per inequality family, with violating permutations as witnesses."""

    permutation_bounds_ok: bool
    permutation_violations: Tuple[tuple, ...]
    two_plus_two_ok: bool
    two_plus_two_violations: Tuple[tuple, ...]
    sum_ok: bool
    total: Fraction

    @property
    def all_pass(self) -> bool:
        return self.permutation_bounds_ok and self.two_plus_two_ok and self.sum_ok

    def to_json(self) -> dict:
        return {
            "permutation_bounds": {
                "pass": self.permutation_bounds_ok,
                "violations": [list(v) for v in self.permutation_violations],
            },
            "two_plus_two": {
                "pass": self.two_plus_two_ok,
                "violations": [list(v) for v in self.two_plus_two_violations],
            },
            "sum_bound": {"pass": self.sum_ok, "total": str(self.total)},
            "all_pass": self.all_pass,
        }


def check_weight_inequalities(weights: ParabolicWeights) -> WeightInequalityReport:
    """Evaluate the three stability inequality families exactly.

    (i)  rho_s1 < rho_s2 + rho_s3 + rho_s4 < 1 + rho_s1 over all of S4;
    (ii) rho_s1 + rho_4 < rho_s2 + rho_s3 over permutations of the first three;
    (iii) sum of all four < 1.
    """
    r = weights.rho
    perm_viol = []
    for sigma in permutations(range(4)):
        lead = r[sigma[0]]
        rest = r[sigma[1]] + r[sigma[2]] + r[sigma[3]]
        if not (lead < rest):
            perm_viol.append((sigma, "lower"))
        if not (rest < 1 + lead):
            perm_viol.append((sigma, "upper"))
    two_viol = []
    for sigma in permutations(range(3)):
        if not (r[sigma[0]] + r[3] < r[sigma[1]] + r[sigma[2]]):
            two_viol.append((sigma,))
    total = r[0] + r[1] + r[2] + r[3]
    return WeightInequalityReport(
        permutation_bounds_ok=not perm_viol,
        permutation_violations=tuple(perm_viol),
        two_plus_two_ok=not two_viol,
        two_plus_two_violations=tuple(two_viol),
        sum_ok=total < 1,
        total=total,
    )


def pdeg(line_degree: int, incidence: Sequence[bool], weights: ParabolicWeights) -> Fraction:
    """Parabolic degree of a line subbundle: deg + sum of (+rho if the line
    passes through that puncture's flag, else -rho)."""
    if len(incidence) != 4:
        raise ValueError("incidence is one flag per puncture")
    total = exact_fraction(line_degree)
    for hit, r in zip(incidence, weights.rho):
        total += r if hit else -r
    return total


def pdeg_table(weights: ParabolicWeights, degrees: Sequence[int] = (0, -1)) -> List[dict]:
    """Exact parabolic degrees over every incidence pattern, per degree."""
    rows = []
    for deg in degrees:
        for mask in range(16):
            incidence = tuple(bool(mask >> i & 1) for i in range(4))
            rows.append(
                {
                    "degree": deg,
                    "incidence": incidence,
                    "pdeg": pdeg(deg, incidence, weights),
                }
            )
    return rows


@dataclass(frozen=True)
class FlagConfig:
    """Puncture positions and the four flag lines in normalized position."""

    p: GaussianRational
    lines: Tuple[Tuple[GaussianRational, GaussianRational], ...]
    w: str  # "0", "1", "inf" or "p": the cross-ratio slot of the fourth flag

    def to_json(self) -> dict:
        return {
            "p": self.p.to_json(),
            "lines": [[a.to_json(), b.to_json()] for a, b in self.lines],
            "w": self.w,
        }


@dataclass(frozen=True)
class ToyHiggsField:
    """One of the explicit nilpotent fields, with its flag configuration.

    ``matrix`` carries the full rational matrix including the denominator
    prefactor, the polynomial grid of ``which`` scaled by it; ``poles`` names
    the punctures with nonzero residue and ``vanishing`` those where the
    residue is required to vanish.
    """

    which: str
    matrix: RationalFunctionMatrix
    flags: FlagConfig
    poles: Tuple[str, ...]
    vanishing: Tuple[str, ...]
    finite_poles: Tuple[GaussianRational, ...]

    def one_form(self) -> MatrixOneForm:
        return MatrixOneForm.from_dz(self.matrix)


def _sites(p) -> Dict[str, tuple]:
    """Each puncture site's (position, flag line): its position in the chart
    (None at infinity), and the line the fourth flag takes when the cross
    ratio w sits at that site.  p must avoid 0 and 1 (BadPuncture)."""
    p = GaussianRational.coerce(p)
    if p in (GR_ZERO, GR_ONE):
        raise BadPuncture("the movable puncture must avoid 0 and 1")
    return {
        "0": (GR_ZERO, (GR_ZERO, GR_ONE)),
        "1": (GR_ONE, (GR_ONE, GR_ONE)),
        "inf": (None, (GR_ONE, GR_ZERO)),
        "p": (p, (p, GR_ONE)),
    }


_Z, _ONE, _ZERO = BRF.z(), BRF.one(), BRF.zero()
# each toy field's polynomial grid G and its residue sites; the field is
# G / prod (z - a) over the finite ones
_FIELDS = {
    "phi_p": (RationalFunctionMatrix([[_Z, -(_Z * _Z)], [_ONE, -_Z]]), ("0", "1", "inf", "p")),
    "phi_0": (RationalFunctionMatrix([[_ZERO, _ZERO], [_ONE, _ZERO]]), ("0", "p")),
    "phi_1": (RationalFunctionMatrix([[_ONE, -_ONE], [_ONE, -_ONE]]), ("1", "p")),
    "phi_inf": (RationalFunctionMatrix([[_ZERO, _ONE], [_ZERO, _ZERO]]), ("inf", "p")),
}
TOY_FIELDS = tuple(_FIELDS)


def build_toy_higgs(which: str, p=2) -> ToyHiggsField:
    """Construct one of the four explicit fields; all invariants are verified
    exactly at construction time.

    A field phi_w is its polynomial grid G times the prefactor
    f = 1 / prod (z - a) over its finite residue sites a; the fourth flag
    sits at w's flag line.
    """
    sites = _sites(p)
    if which not in _FIELDS:
        raise ValueError(f"unknown toy field {which!r}; use {', '.join(TOY_FIELDS)}")
    grid, poles = _FIELDS[which]
    w = which[len("phi_"):]
    finite_poles = tuple(sites[s][0] for s in poles if s != "inf")
    field = ToyHiggsField(
        which=which,
        matrix=grid.scale(BRF.from_poles(1, finite_poles)),
        flags=FlagConfig(p=sites["p"][0], lines=tuple(sites[s][1] for s in ("0", "1", "inf", w)), w=w),
        poles=poles,
        vanishing=tuple(s for s in sites if s not in poles),
        finite_poles=finite_poles,
    )
    _verify_toy_invariants(field)
    return field


def _verify_toy_invariants(field: ToyHiggsField) -> None:
    """Nilpotency on the field's grid G: the prefactor f is a nonzero scalar,
    so (fG)^2 = f^2 G^2 is zero exactly when G^2 is, with no rational
    arithmetic, and a matrix whose square is zero is nilpotent, hence
    traceless.  Then each residue vanishes where declared and elsewhere
    kills its flag line and maps into it."""
    grid = _FIELDS[field.which][0]
    if not (grid @ grid).is_zero:
        raise ValueError(f"{field.which}: matrix square is not exactly zero")
    res = residues(field)
    for site, flag in zip(("0", "1", "inf", "p"), field.flags.lines):
        r = res[site]
        if site in field.vanishing:
            if any(any(x for x in row) for row in r):
                raise ValueError(f"{field.which}: residue at {site} must vanish")
            continue
        if not any(any(x for x in row) for row in r):
            raise ValueError(f"{field.which}: residue at {site} must be nonzero")
        _check_strong_parabolic(r, flag, field.which, site)


def _check_strong_parabolic(res, flag, which: str, site: str) -> None:
    """res kills the flag line and maps everything into it (nilpotent, rank 1)."""
    a, b = flag
    v0 = res[0][0] * a + res[0][1] * b
    v1 = res[1][0] * a + res[1][1] * b
    if v0 or v1:
        raise ValueError(f"{which}: residue at {site} does not annihilate the flag")
    # image inside the flag line: columns proportional to (a, b)
    for col in range(2):
        x, y = res[0][col], res[1][col]
        if x * b != y * a:
            raise ValueError(f"{which}: residue image at {site} leaves the flag line")


# -- residues ----------------------------------------------------------------


def _residue_at_infinity(entry: BRF) -> GaussianRational:
    """Exact residue at z = infinity of entry dz, for a holomorphic rational entry N / D.

    With p = deg N and q = deg D, the w = 1/z chart turns entry dz into
    -w^(q-p-2) (N~ / D~)(w) dw, where the reversed polynomials N~ and D~ take
    the leading coefficients of N and D at w = 0.  So the residue is 0 when
    q >= p + 2, -lead(N) / lead(D) when q = p + 1, and a nonzero entry with
    q <= p has a pole of order p - q + 2 >= 2 there: the residue at w = 0 of
    the chart-inverted entry, or its error, read off the two degrees.
    """
    (p, p_bar), (q, q_bar) = entry.num.degree(), entry.den.degree()
    if p_bar > 0 or q_bar > 0:
        raise ValueError("expected a holomorphic (zbar-free) polynomial")
    if not entry or q >= p + 2:
        return GR_ZERO
    if q <= p:
        raise ValueError(f"pole at {GR_ZERO!r} is not simple")
    return -(entry.num.terms[(p, 0)] / entry.den.terms[(q, 0)])


def residues(field: ToyHiggsField) -> Dict[str, list]:
    """Exact residue matrix at each of the four punctures, keyed 0, 1, p, inf.

    The field is f G with G its polynomial grid and f = 1 / prod (z - b)
    over its finite poles b, all simple and distinct.  At a finite pole a
    the residue is G(a) / prod_{b != a} (a - b); at a finite site that is
    not a pole of f it is zero; infinity is read off each entry's degrees
    and leading coefficients (_residue_at_infinity), with no change of chart.
    """
    grid = _FIELDS[field.which][0]
    out: Dict[str, list] = {}
    for site, (a, _line) in _sites(field.flags.p).items():
        if a is None:
            continue
        if site not in field.poles:
            out[site] = [[GR_ZERO] * grid.cols for _ in range(grid.rows)]
            continue
        scale = GR_ONE
        for b in field.finite_poles:
            if b != a:
                scale = scale * (a - b)
        out[site] = [[e.num.eval_exact(a, GR_ZERO) / scale for e in row] for row in grid.entries]
    out["inf"] = [[_residue_at_infinity(e) for e in row] for row in field.matrix.entries]
    return out


def toy_quadratic_differential(c, p=2) -> BRF:
    """c / (z (z-1) (z-p)), the dz^2 coefficient of the only available shape; p avoids 0 and 1."""
    return BRF.from_poles(c, [GR_ZERO, GR_ONE, _sites(p)["p"][0]])


def parabolic_model_connection(rho) -> MatrixOneForm:
    """Unitary-frame model connection around a weighted puncture.

    The angular form rewrites rationally: (rho/2) diag(1,-1) (dz/z - dzbar/zbar).
    """
    rho = exact_fraction(rho)
    if not (0 <= rho < Fraction(1, 2)):
        raise ValueError("weight must lie in [0, 1/2)")
    if rho == 0:
        return MatrixOneForm.zero(2)
    half = GaussianRational(rho / 2)
    z, zbar = BRF.z(), BRF.zbar()
    dz_coeff = BRF.constant(half) / z
    dzbar_coeff = -(BRF.constant(half) / zbar)
    dz = RationalFunctionMatrix([[dz_coeff, BRF.zero()], [BRF.zero(), -dz_coeff]])
    dzbar = RationalFunctionMatrix([[dzbar_coeff, BRF.zero()], [BRF.zero(), -dzbar_coeff]])
    return MatrixOneForm(dz, dzbar)


def nilpotent_cone_graph(p, weights: ParabolicWeights) -> dict:
    """Incidence graph of the nilpotent locus: a star-of-spheres configuration.

    One central node (the sphere of stable parabolic bundles, parameter w),
    four family nodes (scaling orbits attached at w = 0, 1, inf, p) and four
    limit-point tips; 9 nodes and 8 edges.  The fixed-point locus is the
    central sphere plus the four tips.
    """
    report = check_weight_inequalities(weights)
    if not report.all_pass:
        raise UnstableWeights("weights fail the stability inequalities")
    p = _sites(p)["p"][0]

    sites = (
        ("0", "phi_0", "limit of the w=0 orbit (unstable underlying bundle)"),
        ("1", "phi_1", "limit of the w=1 orbit (unstable underlying bundle)"),
        ("inf", "phi_inf", "limit of the w=inf orbit (unstable underlying bundle)"),
        ("p", "phi_p", "uniformization point"),
    )
    w_values = {"0": "0", "1": "1", "inf": "inf", "p": str(p.re) if not p.im else f"{p.re}+{p.im}i"}
    nodes = [
        {
            "id": "center",
            "kind": "center",
            "label": "sphere of stable parabolic bundles, parameter w",
            "vhs": True,
            "attachments": [w_values[s] for s, _f, _l in sites],
        }
    ]
    edges = []
    for site, field, limit_label in sites:
        fam = f"family_{site}"
        lim = f"limit_{site}"
        nodes.append(
            {
                "id": fam,
                "kind": "family",
                "label": f"scaling orbit of {field}",
                "w": w_values[site],
                "vhs": False,
            }
        )
        nodes.append({"id": lim, "kind": "limit", "label": limit_label, "vhs": True})
        edges.append(["center", fam])
        edges.append([fam, lim])
    return {"nodes": nodes, "edges": edges}
