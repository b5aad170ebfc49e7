import json
import random
from fractions import Fraction

import pytest
import sympy

from nilwkb.algebra import (
    BiPolynomial,
    BiRationalFunction as BRF,
    GaussianRational,
    RationalFunctionMatrix,
    _poly_div_exact,
    _poly_gcd,
    radical_divides,
)
from nilwkb.catalog import FAMILIES, catalog, nilpotent_sl2
from nilwkb.connection import (
    ConnectionFamily,
    MatrixOneForm,
    check_flatness,
    conformal_limit_family,
    scale_orbit,
    transform_chart_inverse,
)
from nilwkb.errors import DimensionMismatch, PoleHit, ZeroScale

E12 = RationalFunctionMatrix.from_scalars([[0, 1], [0, 0]])
E21 = RationalFunctionMatrix.from_scalars([[0, 0], [1, 0]])


def _family(phi_dz=None, conn_dz=None, psi_dzbar=None, n=2, **kw):
    zero = MatrixOneForm.zero(n)
    return ConnectionFamily(
        n,
        MatrixOneForm.from_dz(phi_dz) if phi_dz is not None else zero,
        MatrixOneForm.from_dz(conn_dz) if conn_dz is not None else zero,
        MatrixOneForm.from_dzbar(psi_dzbar) if psi_dzbar is not None else zero,
        **kw,
    )


def test_flatness_examples():
    assert check_flatness(_family(phi_dz=E12)).is_flat
    assert check_flatness(_family(phi_dz=E12, conn_dz=E21)).is_flat

    z, zbar = BRF.z(), BRF.zbar()
    phi = RationalFunctionMatrix([[BRF.zero(), z], [BRF.zero(), BRF.zero()]])
    psi = RationalFunctionMatrix([[BRF.zero(), BRF.zero()], [zbar, BRF.zero()]])
    report = check_flatness(_family(phi_dz=phi, psi_dzbar=psi))
    assert not report.is_flat
    assert not report.residuals["curvature_plus_phi_wedge_psi"].is_zero
    for name in ("phi_wedge_phi", "psi_wedge_psi", "D_phi", "D_psi"):
        assert report.residuals[name].is_zero


def test_flatness_detects_nonholomorphic_phi():
    phi = RationalFunctionMatrix([[BRF.zero(), BRF.zbar()], [BRF.zero(), BRF.zero()]])
    report = check_flatness(_family(phi_dz=phi))
    assert not report.is_flat
    assert not report.residuals["D_phi"].is_zero


def test_family_type_invariants():
    with pytest.raises(DimensionMismatch):
        ConnectionFamily(2, MatrixOneForm.from_dzbar(E21), MatrixOneForm.zero(2), MatrixOneForm.zero(2))
    with pytest.raises(ValueError):
        _family(phi_dz=RationalFunctionMatrix.from_scalars([[1, 0], [0, 0]]))


def test_undeclared_pole_rejected():
    from nilwkb.errors import PoleHit

    z = BRF.z()
    phi = RationalFunctionMatrix([[BRF.zero(), BRF.one() / z], [BRF.zero(), BRF.zero()]])
    with pytest.raises(PoleHit):
        _family(phi_dz=phi)  # pole at 0, nothing declared
    with pytest.raises(PoleHit):
        _family(phi_dz=phi, punctures=[GaussianRational(1)])  # wrong point
    fam = _family(phi_dz=phi, punctures=[GaussianRational(0)])
    assert check_flatness(fam).is_flat
    # zbar-side poles count against the conjugate locus
    psi = RationalFunctionMatrix(
        [[BRF.zero(), BRF.zero()], [BRF.one() / BRF.zbar(), BRF.zero()]]
    )
    fam2 = ConnectionFamily(
        2,
        MatrixOneForm.zero(2),
        MatrixOneForm.zero(2),
        MatrixOneForm.from_dzbar(psi),
        punctures=[GaussianRational(0)],
    )
    assert fam2.punctures == (GaussianRational(0),)


def test_conformal_limit_assembly():
    fam = conformal_limit_family(
        MatrixOneForm.from_dz(E12),
        MatrixOneForm.zero(2),
        MatrixOneForm.zero(2),
        MatrixOneForm.from_dzbar(E21),
    )
    assert fam.exponents == (Fraction(-1), Fraction(0), Fraction(1))
    assert fam.phi.dz_part == E12
    assert fam.psi.dzbar_part == E21
    # all-zero input gives the trivial flat family
    triv = conformal_limit_family(
        MatrixOneForm.zero(2), MatrixOneForm.zero(2), MatrixOneForm.zero(2), MatrixOneForm.zero(2)
    )
    assert check_flatness(triv).is_flat
    with pytest.raises(DimensionMismatch):
        conformal_limit_family(
            MatrixOneForm.from_dz(E12),
            MatrixOneForm.zero(3),
            MatrixOneForm.zero(2),
            MatrixOneForm.zero(2),
        )


def test_scale_orbit():
    fam = _family(phi_dz=E12)
    assert scale_orbit(fam, 1) == fam
    doubled = scale_orbit(fam, 2)
    assert doubled.phi.dz_part.entries[0][1] == BRF.constant(2)
    with pytest.raises(ZeroScale):
        scale_orbit(fam, 0)


def test_scale_orbit_equals_the_checked_constructor(monkeypatch):
    import nilwkb.connection as connection

    rng = random.Random(17)
    xis = [
        GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)), Fraction(rng.randint(1, 9), rng.randint(1, 7)))
        for _ in range(3)
    ]
    families = catalog()
    rebuilt = {
        (name, xi): ConnectionFamily(fam.n, fam.phi.scale(xi), fam.conn, fam.psi, fam.punctures, fam.exponents)
        for name, fam in families.items()
        for xi in xis
    }
    checks = []
    monkeypatch.setattr(connection, "_check_poles_declared", lambda *args: checks.append(args))
    for (name, xi), expected in rebuilt.items():
        scaled = scale_orbit(families[name], xi)
        assert type(scaled) is ConnectionFamily
        for slot in ConnectionFamily.__slots__:
            assert getattr(scaled, slot) == getattr(expected, slot), (name, xi, slot)
    assert checks == []
    with pytest.raises(ZeroScale):
        scale_orbit(families["nilpotent_sl2"], GaussianRational(0, 0))


def test_scale_orbit_preserves_flatness_with_inverse_psi():
    # phi -> xi phi together with psi -> xi^-1 psi keeps every catalog family flat
    xi = GaussianRational(Fraction(3), Fraction(1, 2))
    for name, fam in catalog().items():
        scaled = ConnectionFamily(
            fam.n,
            fam.phi.scale(xi),
            fam.conn,
            fam.psi.scale(GaussianRational(1) / xi),
            punctures=fam.punctures,
            exponents=fam.exponents,
        )
        assert check_flatness(scaled).is_flat, name


def test_catalog_is_exactly_flat():
    for name, fam in catalog().items():
        assert check_flatness(fam).is_flat, name


def test_flatness_of_the_zero_family_multiplies_no_matrices(monkeypatch):
    # every form of trivial is zero: no bracket, curvature or derivative term
    # forms a matrix product, and the residuals are still the zero matrices
    trivial, calls, matmul = catalog()["trivial"], [], RationalFunctionMatrix.__matmul__
    monkeypatch.setattr(RationalFunctionMatrix, "__matmul__", lambda X, Y: calls.append(1) or matmul(X, Y))
    report = check_flatness(trivial)
    assert calls == []
    assert report.is_flat and all(m == RationalFunctionMatrix.zeros(2) for m in report.residuals.values())


def test_catalog_builds_from_families_by_name():
    cat = catalog()
    names = [
        "trivial", "uniformization_rank2", "uniformization_rank3", "nilpotent_sl2",
        "nilpotent_sl2_full", "nilpotent_sl3", "nilpotent_sl2_parabolic", "regular_diagonal",
        "toy_aligned_p", "toy_phi_p", "toy_phi_0", "toy_phi_1", "toy_phi_inf",
    ]
    assert list(FAMILIES) == list(cat) == names
    for name in ("regular_diagonal", "toy_phi_inf"):
        assert FAMILIES[name]().to_json() == cat[name].to_json()


def _random_constant_gauge(rng, n):
    while True:
        grid = [
            [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        det = grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0] if n == 2 else None
        if n == 2 and det:
            inv = [
                [grid[1][1] / det, -grid[0][1] / det],
                [-grid[1][0] / det, grid[0][0] / det],
            ]
            return (
                RationalFunctionMatrix.from_scalars(grid),
                RationalFunctionMatrix.from_scalars(
                    [[GaussianRational.coerce(x) for x in row] for row in inv]
                ),
            )


def test_flatness_gauge_natural_under_constant_gauge():
    rng = random.Random(5)
    for name, fam in catalog().items():
        if fam.n != 2:
            continue
        g, g_inv = _random_constant_gauge(rng, 2)
        conjugated = ConnectionFamily(
            fam.n,
            fam.phi.conjugate_by(g_inv, g),
            fam.conn.conjugate_by(g_inv, g),
            fam.psi.conjugate_by(g_inv, g),
            punctures=fam.punctures,
        )
        assert check_flatness(conjugated).is_flat == check_flatness(fam).is_flat, name


def test_chart_transform():
    z, one = BRF.z(), BRF.one()
    # dz/z -> -dw/w
    form = MatrixOneForm.from_dz(RationalFunctionMatrix([[one / z]]))
    assert transform_chart_inverse(form).dz_part.entries[0][0] == -(one / z)
    # constant dz picks up -1/w^2
    const = MatrixOneForm.from_dz(RationalFunctionMatrix([[one]]))
    assert transform_chart_inverse(const).dz_part.entries[0][0] == -(one / (z * z))


def test_family_json_round_trip():
    for name, fam in catalog().items():
        blob = json.dumps(fam.to_json(), sort_keys=True)
        back = ConnectionFamily.from_json(json.loads(blob))
        assert back == fam, name
        assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_cli_family_flatness_exit_code(tmp_path):
    from nilwkb.cli import main

    path = tmp_path / "fam.json"
    path.write_text(json.dumps(nilpotent_sl2().to_json()))
    assert main(["flatness", str(path)]) == 0


def test_nonzero_entries_walk_row_major_over_either_part():
    dz = RationalFunctionMatrix.from_scalars([[0, 2, 0], [0, 0, 0], [0, 0, 5]])
    dzbar = RationalFunctionMatrix.from_scalars([[0, 0, 0], [3, 0, 0], [0, 0, 7]])
    zero, c = BRF.zero(), lambda x: BRF.constant(GaussianRational(x))
    assert list(MatrixOneForm(dz, dzbar).nonzero_entries()) == [
        (0, 1, c(2), zero),
        (1, 0, zero, c(3)),
        (2, 2, c(5), c(7)),
    ]
    assert list(MatrixOneForm.zero(3).nonzero_entries()) == []


def _product(factors):
    out = BiPolynomial.constant(1)
    for f in factors:
        out = out * f
    return out


def _in_corner(entry, n=2):
    rows = [[BRF.zero()] * n for _ in range(n)]
    rows[0][n - 1] = entry
    return RationalFunctionMatrix(rows)


def _divides_by_stripping(den, allowed):
    """radical_divides without its early return: strip gcds until the
    remainder is a constant or shares no factor with allowed."""
    r = den
    while r.degree() != (0, 0):
        g = _poly_gcd(r, allowed)
        if g.degree() == (0, 0):
            return False
        r = _poly_div_exact(r, g)
    return True


def test_pole_locus_split_by_variable_gives_the_joint_verdict(monkeypatch):
    # a denominator in z alone is tested against prod (z - p), one in zbar alone
    # against prod (zbar - conj p); the verdict, and the number of sympy gcds
    # taken, must be those of the joint locus prod (z - p)(zbar - conj p), and
    # the verdict that of stripping gcds until a constant is left
    import nilwkb.connection as connection

    gcd_calls = []
    gcd = sympy.Poly.gcd
    monkeypatch.setattr(sympy.Poly, "gcd", lambda a, b: gcd_calls.append(1) or gcd(a, b))
    z, zb, const = BiPolynomial.z(), BiPolynomial.zbar(), BiPolynomial.constant
    points = [
        GaussianRational(0),
        GaussianRational(1),
        GaussianRational(-2, 1),
        GaussianRational(0, 1),
        GaussianRational(Fraction(1, 2), -3),
    ]
    factor = {
        "z": lambda p: z - const(p),
        "zbar": lambda p: zb - const(p.conjugate()),
        "z zbar": lambda p: z * zb - const(p * p.conjugate() + 1),  # irreducible, never declared
    }
    rng = random.Random(2202)
    seen = set()
    for _ in range(80):
        punctures = rng.sample(points, rng.randint(1, 3))
        kinds = rng.sample(["z", "z", "zbar", "zbar", "z zbar"], rng.randint(1, 3))
        near = lambda: rng.choice(punctures if rng.random() < 0.7 else points)
        den = _product(factor[kind](near()) for kind in kinds for _ in range(rng.randint(1, 2)))
        entry = BRF(BiPolynomial.constant(1), den)
        joint = _product(factor[kind](p) for p in punctures for kind in ("z", "zbar"))
        gcd_calls.clear()
        expected = radical_divides(entry.den, joint)
        joint_gcds = len(gcd_calls)
        gcd_calls.clear()
        try:
            connection._check_poles_declared([MatrixOneForm.from_dz(_in_corner(entry))], punctures)
            declared = True
        except PoleHit:
            declared = False
        assert declared == expected, (entry, punctures)
        assert len(gcd_calls) == joint_gcds, (entry, punctures)
        assert _divides_by_stripping(entry.den, joint) == expected, (entry, punctures)
        deg_z, deg_zbar = entry.den.degree()
        seen.add(("z" if deg_zbar == 0 else "zbar" if deg_z == 0 else "mixed", declared))
    assert seen == {(kind, verdict) for kind in ("z", "zbar", "mixed") for verdict in (True, False)}


@pytest.mark.parametrize(
    "den, declared",
    [
        (lambda z, zb, c: z - c(3), False),
        (lambda z, zb, c: zb - c(GaussianRational(0, 2)), False),
        (lambda z, zb, c: (z - c(1)) * (zb - c(3)), False),
        (lambda z, zb, c: z * zb - c(1), False),
        (lambda z, zb, c: (z - c(GaussianRational(0, 1))) * (z - c(GaussianRational(0, 1))), True),
        (lambda z, zb, c: (zb - c(GaussianRational(0, -1))) * zb, True),
        (lambda z, zb, c: (z - c(GaussianRational(0, 1))) * zb * zb, True),
    ],
    ids=["z-foreign", "zbar-foreign", "mixed-foreign-zbar", "mixed-irreducible", "z-squared", "zbar-at-0-and-i", "mixed-declared"],
)
def test_family_refuses_each_kind_of_foreign_pole(den, declared):
    entry = BRF(BiPolynomial.constant(1), den(BiPolynomial.z(), BiPolynomial.zbar(), BiPolynomial.constant))
    punctures = [GaussianRational(0), GaussianRational(0, 1), GaussianRational(1)]
    if declared:
        assert _family(conn_dz=_in_corner(entry), punctures=punctures).punctures == tuple(punctures)
    else:
        with pytest.raises(PoleHit):
            _family(conn_dz=_in_corner(entry), punctures=punctures)
