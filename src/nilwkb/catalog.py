"""Shipped flat families: every entry passes the exact flatness check.

The grading-fixed-point entries (``uniformization_rank2/3``) carry the
superdiagonal field with no lower connection piece, so the rescaling reports
the fixed-point degeneracy on them by design.  The ``nilpotent_*`` entries are
the smallest families whose rescaling produces a genuinely non-nilpotent
secondary field; ``regular_diagonal`` is the abelian baseline whose holonomy
has a closed form.  ``toy_*`` wrap the four-punctured-sphere Higgs fields
into family skeletons, and ``toy_aligned_p`` is the movable-puncture field
conjugated into its kernel-adapted frame, where the rescaling applies.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .algebra import BRF, GaussianRational, RationalFunctionMatrix
from .connection import ConnectionFamily, MatrixOneForm
from .toymodel import TOY_FIELDS, _sites, build_toy_higgs

# Rational approximation of 1/(2*pi), error < 4e-28; the abelian baseline
# family needs the residue -i/(2 pi) so the unit-circle holonomy trace is
# 2*cosh(1/eps).  The approximation error is far under every stated tolerance.
INV_TWO_PI = Fraction(1425859230779, 8958937768937)


def _E(n: int, i: int, j: int, value=1) -> RationalFunctionMatrix:
    mat = [[BRF.zero() for _ in range(n)] for _ in range(n)]
    mat[i][j] = BRF.constant(GaussianRational.coerce(value))
    return RationalFunctionMatrix(mat)


def trivial() -> ConnectionFamily:
    return ConnectionFamily(2, MatrixOneForm.zero(2), MatrixOneForm.zero(2), MatrixOneForm.zero(2))


def uniformization_rank2() -> ConnectionFamily:
    """Grading fixed point at rank 2: superdiagonal field, flat chart connection."""
    return ConnectionFamily(
        2, MatrixOneForm.from_dz(_E(2, 0, 1)), MatrixOneForm.zero(2), MatrixOneForm.zero(2)
    )


def uniformization_rank3() -> ConnectionFamily:
    phi = _E(3, 0, 1) + _E(3, 1, 2)
    return ConnectionFamily(3, MatrixOneForm.from_dz(phi), MatrixOneForm.zero(3), MatrixOneForm.zero(3))


def nilpotent_sl2() -> ConnectionFamily:
    """eps^-1 E12 dz + d + E21 dz: the smallest non-fixed-point flat family."""
    return ConnectionFamily(
        2,
        MatrixOneForm.from_dz(_E(2, 0, 1)),
        MatrixOneForm.from_dz(_E(2, 1, 0)),
        MatrixOneForm.zero(2),
    )


def nilpotent_sl2_full() -> ConnectionFamily:
    """All three terms nonzero: eps^-1 E12 dz + (d + E21 dz + E12 dzbar) + eps E21 dzbar.

    The curvature of the connection part cancels the phi-psi bracket exactly,
    so the family is flat with a genuinely two-sided parameter expansion; its
    rescaling carries a nonzero subleading piece at the opposite exponent.
    """
    conn = MatrixOneForm(_E(2, 1, 0), _E(2, 0, 1))
    return ConnectionFamily(
        2,
        MatrixOneForm.from_dz(_E(2, 0, 1)),
        conn,
        MatrixOneForm.from_dzbar(_E(2, 1, 0)),
    )


def nilpotent_sl3() -> ConnectionFamily:
    """Rank 3 with the lowest graded piece two steps down: m = 3."""
    phi = _E(3, 0, 1) + _E(3, 1, 2)
    return ConnectionFamily(
        3,
        MatrixOneForm.from_dz(phi),
        MatrixOneForm.from_dz(_E(3, 2, 0)),
        MatrixOneForm.zero(3),
    )


def nilpotent_sl2_parabolic() -> ConnectionFamily:
    """Simple-pole variant: phi = E12 dz/z, connection piece E21 dz.

    Tr(Phi^2) of its secondary field is 2/z: simple pole at the declared
    puncture, pinning the pole-order bound.
    """
    z = BRF.z()
    one = BRF.one()
    phi = RationalFunctionMatrix([[BRF.zero(), one / z], [BRF.zero(), BRF.zero()]])
    return ConnectionFamily(
        2,
        MatrixOneForm.from_dz(phi),
        MatrixOneForm.from_dz(_E(2, 1, 0)),
        MatrixOneForm.zero(2),
        punctures=[GaussianRational(0)],
    )


def regular_diagonal() -> ConnectionFamily:
    """Abelian baseline: phi = diag(-i, i)/(2 pi) dz/z (pole residue rationalized).

    Pullback along the unit circle is eps^-1 diag(1, -1) up to 1e-24, so the
    holonomy trace is 2*cosh(1/eps) to the same accuracy.
    """
    z = BRF.z()
    lam = GaussianRational(0, -INV_TWO_PI)
    top = BRF.constant(lam) / z
    bot = BRF.constant(-lam) / z
    phi = RationalFunctionMatrix([[top, BRF.zero()], [BRF.zero(), bot]])
    return ConnectionFamily(
        2,
        MatrixOneForm.from_dz(phi),
        MatrixOneForm.zero(2),
        MatrixOneForm.zero(2),
        punctures=[GaussianRational(0)],
    )


def toy_skeleton(which: str, p=2) -> ConnectionFamily:
    """Wrap a four-punctured-sphere Higgs field into a family skeleton."""
    field = build_toy_higgs(which, p)
    return ConnectionFamily(
        2,
        MatrixOneForm.from_dz(field.matrix),
        MatrixOneForm.zero(2),
        MatrixOneForm.zero(2),
        punctures=field.finite_poles,
    )


def toy_aligned_p(p=2) -> ConnectionFamily:
    """The movable-puncture toy field in its kernel-adapted frame.

    Conjugating by g = ((z, 0), (1, 1)) puts the kernel line (z, 1) on the
    first frame vector; the inhomogeneous term g^-1 dg joins the connection.
    The result is flat, graded, and has a nonzero lower piece, so the
    rescaling applies and Tr(Phi^2) = 2/(z(z-1)(z-p)).  p must avoid 0 and 1
    (BadPuncture).
    """
    p = _sites(p)["p"][0]
    z = BRF.z()
    one = BRF.one()
    f = BRF.from_poles(1, [GaussianRational(0), GaussianRational(1), p])
    phi = RationalFunctionMatrix([[BRF.zero(), -(z * f)], [BRF.zero(), BRF.zero()]])
    conn = RationalFunctionMatrix([[one / z, BRF.zero()], [-(one / z), BRF.zero()]])
    return ConnectionFamily(
        2,
        MatrixOneForm.from_dz(phi),
        MatrixOneForm.from_dz(conn),
        MatrixOneForm.zero(2),
        punctures=[GaussianRational(0), GaussianRational(1), p],
    )


# Every shipped family's zero-argument builder, keyed by name.
FAMILIES = {
    "trivial": trivial,
    "uniformization_rank2": uniformization_rank2,
    "uniformization_rank3": uniformization_rank3,
    "nilpotent_sl2": nilpotent_sl2,
    "nilpotent_sl2_full": nilpotent_sl2_full,
    "nilpotent_sl3": nilpotent_sl3,
    "nilpotent_sl2_parabolic": nilpotent_sl2_parabolic,
    "regular_diagonal": regular_diagonal,
    "toy_aligned_p": toy_aligned_p,
    **{f"toy_{which}": partial(toy_skeleton, which) for which in TOY_FIELDS},
}


def catalog() -> dict:
    """Every shipped family, keyed by name."""
    return {name: build() for name, build in FAMILIES.items()}
