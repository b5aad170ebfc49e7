"""Families of connections eps^a * phi + D + eps^b * psi on a punctured chart.

The family lives on a single affine chart with declared punctures; the chart
change z -> 1/w is provided as a utility transform carrying the Jacobian
factor -dw/w^2.  Flatness is verified symbolically: the five residual
expressions are polynomial identities in the data and are checked exactly,
with no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (
    BiPolynomial,
    BiRationalFunction,
    GaussianRational,
    RationalFunctionMatrix,
    _Frozen,
    exact_fraction,
    exact_int,
    radical_divides,
    wedge_bracket,
    wedge_square,
)
from .errors import DimensionMismatch, PoleHit, ZeroScale


class MatrixOneForm(_Frozen):
    """Matrix-valued 1-form, split into dz and dzbar components."""

    __slots__ = ("dz_part", "dzbar_part")

    def __init__(self, dz_part: RationalFunctionMatrix, dzbar_part: RationalFunctionMatrix):
        if dz_part.rows != dzbar_part.rows or dz_part.cols != dzbar_part.cols:
            raise DimensionMismatch("dz and dzbar parts must share dimensions")
        object.__setattr__(self, "dz_part", dz_part)
        object.__setattr__(self, "dzbar_part", dzbar_part)

    @classmethod
    def zero(cls, n: int) -> "MatrixOneForm":
        z = RationalFunctionMatrix.zeros(n)
        return cls(z, z)

    @classmethod
    def from_dz(cls, m: RationalFunctionMatrix) -> "MatrixOneForm":
        return cls(m, RationalFunctionMatrix.zeros(m.rows, m.cols))

    @classmethod
    def from_dzbar(cls, m: RationalFunctionMatrix) -> "MatrixOneForm":
        return cls(RationalFunctionMatrix.zeros(m.rows, m.cols), m)

    @property
    def n(self) -> int:
        return self.dz_part.rows

    def __add__(self, other: "MatrixOneForm") -> "MatrixOneForm":
        return MatrixOneForm(self.dz_part + other.dz_part, self.dzbar_part + other.dzbar_part)

    def scale(self, c) -> "MatrixOneForm":
        return MatrixOneForm(self.dz_part.scale(c), self.dzbar_part.scale(c))

    def conjugate_by(self, g_inv: RationalFunctionMatrix, g: RationalFunctionMatrix) -> "MatrixOneForm":
        return MatrixOneForm(g_inv @ self.dz_part @ g, g_inv @ self.dzbar_part @ g)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixOneForm)
            and self.dz_part == other.dz_part
            and self.dzbar_part == other.dzbar_part
        )

    def __hash__(self):
        return hash((self.dz_part, self.dzbar_part))

    @property
    def is_zero(self) -> bool:
        return self.dz_part.is_zero and self.dzbar_part.is_zero

    def nonzero_entries(self):
        """(i, j, dz_e, dzbar_e), row-major, at every position where the form is nonzero."""
        for i, (dz_row, dzb_row) in enumerate(zip(self.dz_part.entries, self.dzbar_part.entries)):
            for j, (dz_e, dzb_e) in enumerate(zip(dz_row, dzb_row)):
                if dz_e or dzb_e:
                    yield i, j, dz_e, dzb_e

    def to_json(self) -> dict:
        return {"dz": self.dz_part.to_json(), "dzbar": self.dzbar_part.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "MatrixOneForm":
        return cls(
            RationalFunctionMatrix.from_json(data["dz"]),
            RationalFunctionMatrix.from_json(data["dzbar"]),
        )

    def __repr__(self):
        return f"MatrixOneForm(n={self.n})"


def transform_chart_inverse(form: MatrixOneForm) -> MatrixOneForm:
    """Rewrite a 1-form in the w = 1/z chart.

    f(z, zbar) dz  ->  f(1/w, 1/wbar) * (-1/w^2) dw, and the conjugate factor
    for the dzbar component.
    """
    z2 = BiRationalFunction.z() * BiRationalFunction.z()
    zb2 = BiRationalFunction.zbar() * BiRationalFunction.zbar()
    jac_dz = -(BiRationalFunction.one() / z2)
    jac_dzbar = -(BiRationalFunction.one() / zb2)
    dz = form.dz_part.map_entries(lambda e: e.invert_chart() * jac_dz)
    dzbar = form.dzbar_part.map_entries(lambda e: e.invert_chart() * jac_dzbar)
    return MatrixOneForm(dz, dzbar)


# the family's three terms, in order, and the default power of eps on each
TERM_NAMES = ("phi", "conn", "psi")
_DEFAULT_EXPONENTS = (Fraction(-1), Fraction(0), Fraction(1))


def _check_poles_declared(forms, punctures) -> None:
    """Every denominator factor must come from a declared puncture.

    The allowed locus is A(z) B(zbar), with A = prod (z - p) and
    B = prod (zbar - conj p) over declared punctures; radical divisibility of
    each distinct denominator is exact.  A denominator in z alone is tested
    against A, one in zbar alone against B, and only a mixed one against A B.
    This gives the same verdict: an irreducible factor f(z) is prime, so it
    divides A B exactly when it divides A or B, and it cannot divide the
    nonzero B, whose degree in z is 0 while its own is positive (and the same
    with the variables swapped).  The gcds stripped from such a denominator
    are the same too, so the number of gcd calls does not change.
    """
    z_locus = zbar_locus = BiPolynomial.constant(1)
    for p in punctures:
        z_locus = z_locus * (BiPolynomial.z() - BiPolynomial.constant(p))
        zbar_locus = zbar_locus * (BiPolynomial.zbar() - BiPolynomial.constant(p.conjugate()))
    dens = {e.den for form in forms for _i, _j, *pair in form.nonzero_entries() for e in pair}
    for den in dens:
        deg_z, deg_zbar = den.degree()
        allowed = zbar_locus if deg_z == 0 else z_locus if deg_zbar == 0 else z_locus * zbar_locus
        if not radical_divides(den, allowed):
            raise PoleHit("entry has a pole away from the declared punctures")


class ConnectionFamily(_Frozen):
    """The triple (phi, D = d + conn, psi) with per-term parameter exponents.

    Default exponents (-1, 0, +1) give the family eps^-1 phi + D + eps psi.
    phi must be of type (1,0) and psi of type (0,1); both must be exactly
    traceless.  Entries may have poles only at the declared punctures, which
    the constructor checks exactly (PoleHit otherwise); the declared list also
    feeds path clearance checks.
    """

    __slots__ = ("n", "phi", "conn", "psi", "punctures", "exponents")

    def __init__(
        self,
        n: int,
        phi: MatrixOneForm,
        conn: MatrixOneForm,
        psi: MatrixOneForm,
        punctures: Sequence[GaussianRational] = (),
        exponents: Sequence[Fraction] = _DEFAULT_EXPONENTS,
    ):
        for name, form in zip(TERM_NAMES, (phi, conn, psi)):
            if form.n != n or form.dz_part.cols != n:
                raise DimensionMismatch(f"{name} is not {n}x{n}")
        if not phi.dzbar_part.is_zero:
            raise DimensionMismatch("phi must be a (1,0)-form")
        if not psi.dz_part.is_zero:
            raise DimensionMismatch("psi must be a (0,1)-form")
        if phi.dz_part.trace():
            raise ValueError("phi must be exactly traceless")
        if psi.dzbar_part.trace():
            raise ValueError("psi must be exactly traceless")
        if len(exponents) != 3:
            raise ValueError("exponents lists the powers multiplying (phi, conn, psi)")
        punctures = tuple(GaussianRational.coerce(p) for p in punctures)
        _check_poles_declared((phi, conn, psi), punctures)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "conn", conn)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "punctures", punctures)
        object.__setattr__(self, "exponents", tuple(exact_fraction(e) for e in exponents))

    def __eq__(self, other):
        return (
            isinstance(other, ConnectionFamily)
            and self.n == other.n
            and self.phi == other.phi
            and self.conn == other.conn
            and self.psi == other.psi
            and self.punctures == other.punctures
            and self.exponents == other.exponents
        )

    def terms(self):
        """(name, exponent, form) triples in TERM_NAMES order."""
        return tuple((name, e, getattr(self, name)) for name, e in zip(TERM_NAMES, self.exponents))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.n,
            **{name: form.to_json() for name, _e, form in self.terms()},
            "punctures": [p.to_json() for p in self.punctures],
            "exponents": [[str(e), name] for name, e, _form in self.terms()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ConnectionFamily":
        exps = {name: exact_fraction(e) for e, name in data.get("exponents", [])}
        return cls(
            exact_int(data["rank"]),
            *(MatrixOneForm.from_json(data[name]) for name in TERM_NAMES),
            punctures=[GaussianRational.from_strings(re, im) for re, im in data.get("punctures", [])],
            exponents=[exps.get(name, e) for name, e in zip(TERM_NAMES, _DEFAULT_EXPONENTS)],
        )

    def __repr__(self):
        return f"ConnectionFamily(n={self.n}, punctures={len(self.punctures)})"


@dataclass(frozen=True)
class FlatnessReport:
    """Exact residuals of the flatness system.

    ``residuals`` maps each expression name to the matrix coefficient of
    dz^dzbar (for the curvature-type expressions this is the full 2-form
    content on a one-dimensional chart).  The family is flat for every
    nonzero parameter value iff all residuals vanish identically.
    """

    residuals: dict
    is_flat: bool

    def to_json(self) -> dict:
        return {
            "is_flat": self.is_flat,
            "residuals": {k: v.to_json() for k, v in self.residuals.items()},
        }


def _exterior_derivative_coeff(form: MatrixOneForm) -> RationalFunctionMatrix:
    """dz^dzbar coefficient of d(form) for form = P dz + Q dzbar; the zero
    matrix, with no derivative taken, for a zero form."""
    if form.is_zero:
        return RationalFunctionMatrix.zeros(form.n)
    return form.dzbar_part.derivative_z() - form.dz_part.derivative_zbar()


def _covariant_derivative_coeff(conn: MatrixOneForm, form: MatrixOneForm) -> RationalFunctionMatrix:
    return _exterior_derivative_coeff(form) + wedge_bracket(conn, form)


def check_flatness(family: ConnectionFamily) -> FlatnessReport:
    """Evaluate the flatness system exactly.

    The exterior derivative acts formally (entrywise d/dz, d/dzbar on rational
    functions); brackets are graded matrix-form brackets, and the curvature's
    conn ^ conn is wedge_square(conn).  A zero form costs no product and no
    derivative, so the all-zero family is checked without a matrix product.
    The report carries every residual, so a failing family shows where it
    fails.
    """
    phi, conn, psi = family.phi, family.conn, family.psi
    curvature = _exterior_derivative_coeff(conn) + wedge_square(conn)
    residuals = {
        "phi_wedge_phi": wedge_bracket(phi, phi),
        "psi_wedge_psi": wedge_bracket(psi, psi),
        "D_phi": _covariant_derivative_coeff(conn, phi),
        "D_psi": _covariant_derivative_coeff(conn, psi),
        "curvature_plus_phi_wedge_psi": curvature + wedge_bracket(phi, psi),
    }
    return FlatnessReport(residuals=residuals, is_flat=all(m.is_zero for m in residuals.values()))


def conformal_limit_family(
    phi: MatrixOneForm,
    dbar_E: MatrixOneForm,
    d0: MatrixOneForm,
    phi0_dagger: MatrixOneForm,
    punctures: Sequence[GaussianRational] = (),
) -> ConnectionFamily:
    """Assemble the limiting family h^-1 phi + (dbar_E + d0) + h phi0_dagger.

    The constituents are caller-supplied (no metric is solved for); dbar_E
    must be of type (0,1) and d0 of type (1,0).  Flatness is not assumed:
    run check_flatness on the result.
    """
    n = phi.n
    for name, form in (("dbar_E", dbar_E), ("d0", d0), ("phi0_dagger", phi0_dagger)):
        if form.n != n:
            raise DimensionMismatch(f"{name} has rank {form.n}, expected {n}")
    if not dbar_E.dz_part.is_zero:
        raise DimensionMismatch("dbar_E must be a (0,1)-form")
    if not d0.dzbar_part.is_zero:
        raise DimensionMismatch("d0 must be a (1,0)-form")
    return ConnectionFamily(
        n=n,
        phi=phi,
        conn=dbar_E + d0,
        psi=phi0_dagger,
        punctures=punctures,
    )


def scale_orbit(family: ConnectionFamily, xi) -> ConnectionFamily:
    """Rescale the leading term: phi -> xi * phi, everything else unchanged."""
    xi = GaussianRational.coerce(xi)
    if not xi:
        raise ZeroScale("the scaling parameter must be nonzero")
    # The family passed the constructor's checks, and they still hold: a
    # canonical entry's denominator is monic and prime to its numerator, so
    # multiplying the entry by a nonzero constant keeps that denominator (hence
    # the declared poles), and it keeps phi's (1,0) type and zero trace.
    out = object.__new__(ConnectionFamily)
    for slot in ConnectionFamily.__slots__:
        object.__setattr__(out, slot, getattr(family, slot))
    object.__setattr__(out, "phi", family.phi.scale(xi))
    return out
