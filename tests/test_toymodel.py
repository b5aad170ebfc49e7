import math
import random
from fractions import Fraction

import pytest
import sympy

from nilwkb import toymodel
from nilwkb.algebra import BiPolynomial, BiRationalFunction as BRF, GaussianRational, RationalFunctionMatrix
from nilwkb.connection import MatrixOneForm, transform_chart_inverse
from nilwkb.errors import BadPuncture, UnstableWeights
from nilwkb.toymodel import (
    TOY_FIELDS,
    _residue_at_infinity,
    ParabolicWeights,
    build_toy_higgs,
    check_weight_inequalities,
    nilpotent_cone_graph,
    parabolic_model_connection,
    pdeg,
    pdeg_table,
    residues,
    toy_quadratic_differential,
)

GOOD = ParabolicWeights.parse("1/4,1/4,1/4,1/8")


def _entry_residue(entry: BRF, a: GaussianRational) -> GaussianRational:
    """Oracle: the exact residue num(a) / den'(a) at a simple pole z = a of a
    holomorphic rational entry, or 0 where the denominator does not vanish."""
    if entry.num.degree()[1] > 0 or entry.den.degree()[1] > 0:
        raise ValueError("expected a holomorphic (zbar-free) polynomial")
    if entry.den.eval_exact(a, GaussianRational(0)):
        return GaussianRational(0)
    slope = entry.den.derivative_z().eval_exact(a, GaussianRational(0))
    if not slope:
        raise ValueError(f"pole at {a!r} is not simple")
    return entry.num.eval_exact(a, GaussianRational(0)) / slope


def test_weight_inequalities_pass():
    report = check_weight_inequalities(GOOD)
    assert report.all_pass
    assert report.total == Fraction(7, 8)


def test_weight_inequalities_sum_failure():
    report = check_weight_inequalities(ParabolicWeights.parse("1/4,1/4,1/4,1/4"))
    assert not report.sum_ok
    assert report.total == 1


def test_weight_inequalities_permutation_failure():
    report = check_weight_inequalities(ParabolicWeights.parse("1/3,1/8,1/8,1/16"))
    assert not report.permutation_bounds_ok
    # the witness places the large weight first: 1/3 > 1/8 + 1/8 + 1/16
    assert any(sigma[0] == 0 and side == "lower" for sigma, side in report.permutation_violations)


def test_weight_domain():
    with pytest.raises(ValueError):
        ParabolicWeights.parse("1/2,1/4,1/4,1/8")
    with pytest.raises(ValueError):
        ParabolicWeights.parse("0,1/4,1/4,1/8")


def test_pdeg_examples():
    assert pdeg(0, [True, False, False, True], GOOD) == Fraction(-1, 8)
    assert pdeg(-1, [True, True, True, False], GOOD) == Fraction(-3, 8)
    # degree -2 lines are negative for any incidence with these weights
    for row in pdeg_table(GOOD, degrees=(-2,)):
        assert row["pdeg"] < 0


def test_pdeg_stability_enumeration():
    # stable weights: every degree-0 line through at most one flag and every
    # degree -1 line through at most three flags has negative parabolic degree
    for row in pdeg_table(GOOD, degrees=(0, -1)):
        hits = sum(row["incidence"])
        if row["degree"] == 0 and hits <= 1:
            assert row["pdeg"] < 0
        if row["degree"] == -1 and hits <= 3:
            assert row["pdeg"] < 0


def test_build_all_fields_verify_invariants():
    for which in ("phi_p", "phi_0", "phi_1", "phi_inf"):
        field = build_toy_higgs(which, 2)
        m = field.matrix
        assert (m @ m).is_zero
        assert not m.trace()
        assert len(field.poles) + len(field.vanishing) == 4


def test_build_rejects_bad_puncture():
    with pytest.raises(BadPuncture):
        build_toy_higgs("phi_p", 1)
    with pytest.raises(BadPuncture):
        build_toy_higgs("phi_0", 0)
    with pytest.raises(ValueError):
        build_toy_higgs("phi_q", 2)


@pytest.mark.parametrize("p", [0, 1])
def test_toy_aligned_p_and_quadratic_differential_refuse_a_puncture_on_0_or_1(p):
    from nilwkb.catalog import toy_aligned_p

    with pytest.raises(BadPuncture):
        toy_aligned_p(p)
    with pytest.raises(BadPuncture):
        toy_quadratic_differential(1, p)


def test_residues_phi_p():
    field = build_toy_higgs("phi_p", 2)
    res = residues(field)
    half = GaussianRational(Fraction(1, 2))
    assert res["0"] == [[GaussianRational(0), GaussianRational(0)], [half, GaussianRational(0)]]
    # residue at infinity is E12 (computed in the inverse chart)
    assert res["inf"][0][1] == GaussianRational(1)
    assert res["inf"][1][0] == GaussianRational(0)
    # every nonzero residue is nilpotent
    for site in field.poles:
        r = res[site]
        sq = [
            [
                r[0][0] * r[0][0] + r[0][1] * r[1][0],
                r[0][0] * r[0][1] + r[0][1] * r[1][1],
            ],
            [
                r[1][0] * r[0][0] + r[1][1] * r[1][0],
                r[1][0] * r[0][1] + r[1][1] * r[1][1],
            ],
        ]
        assert all(not x for row in sq for x in row), site


def test_residues_vanish_where_declared():
    for which in ("phi_0", "phi_1", "phi_inf"):
        field = build_toy_higgs(which, 2)
        res = residues(field)
        for site in field.vanishing:
            assert all(not x for row in res[site] for x in row), (which, site)
        for site in field.poles:
            assert any(x for row in res[site] for x in row), (which, site)


def test_entry_residue_matches_sympy():
    # num / prod (z - r_k) with random Gaussian-integer coefficients and
    # roots; the residue at a root (simple pole, or none once canonical form
    # cancels it) and at a regular point, against sympy.residue
    rng = random.Random(1301)
    z = BRF.z()
    zs = sympy.Symbol("z")
    gauss = lambda: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
    to_sympy = lambda g: sympy.Rational(g.re.numerator, g.re.denominator) + sympy.I * sympy.Rational(g.im.numerator, g.im.denominator)
    for _ in range(12):
        coeffs = [gauss() for _ in range(rng.randint(1, 4))]
        roots = list({(r.re, r.im): r for r in (gauss() for _ in range(rng.randint(1, 3)))}.values())
        num = BRF(BiPolynomial({(i, 0): c for i, c in enumerate(coeffs) if c}))
        den = BRF.one()
        for r in roots:
            den = den * (z - BRF.constant(r))
        expr = sum(to_sympy(c) * zs**i for i, c in enumerate(coeffs))
        expr = expr / sympy.prod([zs - to_sympy(r) for r in roots])
        for a in roots + [gauss()]:
            got = _entry_residue(num / den, a)
            assert sympy.expand(sympy.residue(expr, zs, to_sympy(a)) - to_sympy(got)) == 0, (coeffs, roots, a)


def test_entry_residue_rejects_double_poles_and_zbar():
    z, one = BRF.z(), BRF.one()
    with pytest.raises(ValueError, match="not simple"):
        _entry_residue(one / (z * z), GaussianRational(0))
    with pytest.raises(ValueError, match="zbar-free"):
        _entry_residue(BRF.zbar() / z, GaussianRational(0))


def _residue_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def test_residue_at_infinity_matches_the_chart_oracle():
    # 400 seeded holomorphic entries N / D (N possibly zero) against the chart
    # route: the residue at w = 0 of the entry rewritten in w = 1/z, or its
    # error, type and message; every degree case occurs
    rng = random.Random(34)
    gauss = lambda: GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    poly = lambda deg: BiPolynomial({(i, 0): gauss() for i in range(deg + 1)} | {(deg, 0): gauss() or GaussianRational(1)})
    cases = {"zero": 0, "q >= p + 2": 0, "q = p + 1": 0, "q <= p": 0}
    for _ in range(400):
        num = BiPolynomial() if rng.random() < 0.05 else poly(rng.randint(0, 4))
        entry = BRF(num, poly(rng.randint(0, 5)))
        flipped = transform_chart_inverse(MatrixOneForm.from_dz(RationalFunctionMatrix([[entry]])))
        want = _residue_or_error(_entry_residue, flipped.dz_part.entries[0][0], GaussianRational(0))
        assert _residue_or_error(_residue_at_infinity, entry) == want, entry
        p, q = entry.num.degree()[0], entry.den.degree()[0]
        cases["zero" if not entry else "q >= p + 2" if q >= p + 2 else "q = p + 1" if q == p + 1 else "q <= p"] += 1
    assert min(cases.values()) >= 15, cases
    with pytest.raises(ValueError, match="zbar-free"):
        _residue_at_infinity(BRF.zbar() / (BRF.z() * BRF.z()))


def test_residues_take_no_change_of_chart(monkeypatch):
    # the residue at infinity is read off the degrees: no entry is rewritten
    # in the w = 1/z chart, as transform_chart_inverse rewrites every entry
    calls, invert_chart = [], BRF.invert_chart
    monkeypatch.setattr(BRF, "invert_chart", lambda self: calls.append(self) or invert_chart(self))
    for which in TOY_FIELDS:
        residues(build_toy_higgs(which, GaussianRational(3, 1)))
    assert calls == []


def test_residues_match_the_per_entry_oracle():
    # 150 seeded Gaussian p x 4 fields: the grid rule G(a) / prod (a - b)
    # against the residue of every entry of the field's matrix at each
    # finite site, and _residue_at_infinity on every entry, in key order
    # 0, 1, p, inf
    rng = random.Random(35)
    gauss = lambda: GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 6)), Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    points = []
    while len(points) < 150:
        p = gauss()
        if p not in (GaussianRational(0), GaussianRational(1)):
            points.append(p)
    for p in points:
        sites = {"0": GaussianRational(0), "1": GaussianRational(1), "p": p}
        for which in TOY_FIELDS:
            field = build_toy_higgs(which, p)
            want = {site: [[_entry_residue(e, a) for e in row] for row in field.matrix.entries] for site, a in sites.items()}
            want["inf"] = [[_residue_at_infinity(e) for e in row] for row in field.matrix.entries]
            got = residues(field)
            assert list(got) == ["0", "1", "p", "inf"] and got == want, (which, p)


@pytest.mark.parametrize(
    "grid",
    [
        # traceless, and squares to the identity
        [[BRF.z(), BRF.one()], [BRF.one() - BRF.z() * BRF.z(), -BRF.z()]],
        # a trace: a matrix whose square is zero is traceless, so the square
        # check refuses this one too
        [[BRF.one(), BRF.zero()], [BRF.z(), BRF.zero()]],
    ],
)
def test_a_grid_whose_square_is_not_zero_is_refused(monkeypatch, grid):
    monkeypatch.setitem(toymodel._FIELDS, "phi_0", (RationalFunctionMatrix(grid), ("0", "p")))
    with pytest.raises(ValueError, match="^phi_0: matrix square is not exactly zero$"):
        build_toy_higgs("phi_0", GaussianRational(3, 1))


def test_toy_fields_are_checked_and_resolved_on_their_polynomial_grid(monkeypatch):
    # building a field multiplies only polynomial matrices (the grid by
    # itself), and its residues differentiate no denominator
    products, derivatives = [], []
    matmul = RationalFunctionMatrix.__matmul__
    monkeypatch.setattr(RationalFunctionMatrix, "__matmul__", lambda a, b: products.append((a, b)) or matmul(a, b))
    for cls in (BiPolynomial, BRF):
        derivative = cls.derivative_z
        monkeypatch.setattr(cls, "derivative_z", lambda self, _d=derivative: derivatives.append(self) or _d(self))
    for which in TOY_FIELDS:
        residues(build_toy_higgs(which, GaussianRational(3, 1)))
    polynomial = lambda m: all(e.den == BRF.one().den for row in m.entries for e in row)
    assert len(products) == len(TOY_FIELDS) and all(polynomial(a) and polynomial(b) for a, b in products)
    assert derivatives == []


def test_phi_inf_regular_at_origin():
    field = build_toy_higgs("phi_inf", 2)
    assert residues(field)["0"] == [[GaussianRational(0)] * 2] * 2


def test_quadratic_differential():
    assert toy_quadratic_differential(0, 2).is_zero
    q = toy_quadratic_differential(1, 2)
    assert q.evaluate(3.0) == pytest.approx(1 / 6)
    # simple pole at infinity: the dz^2 coefficient transforms with the squared
    # Jacobian, q(1/w) / w^4, and w * that is finite and nonzero at w = 0
    z = BRF.z()
    w_chart = q.invert_chart() / (z * z * z * z)
    softened = w_chart * z
    num0 = softened.num.eval_exact(GaussianRational(0), GaussianRational(0))
    den0 = softened.den.eval_exact(GaussianRational(0), GaussianRational(0))
    assert den0 and num0


def test_parabolic_model_connection_form():
    mc = parabolic_model_connection(Fraction(1, 4))
    assert mc.dz_part.entries[0][0] == BRF.constant(Fraction(1, 8)) / BRF.z()
    assert mc.dzbar_part.entries[0][0] == -(BRF.constant(Fraction(1, 8)) / BRF.zbar())
    assert parabolic_model_connection(0).is_zero


def test_parabolic_model_holonomy_is_rotation():
    # loop holonomy of d + A around the puncture: diag(e^{-2 pi i rho}, e^{2 pi i rho})
    from nilwkb.algebra import GaussianRational
    from nilwkb.connection import ConnectionFamily, MatrixOneForm
    from nilwkb.holonomy import ParamPath, transport

    rho = Fraction(1, 4)
    mc = parabolic_model_connection(rho)
    fam = ConnectionFamily(
        2,
        MatrixOneForm.zero(2),
        mc,
        MatrixOneForm.zero(2),
        punctures=[GaussianRational(0)],
    )
    sample = transport(fam, ParamPath.circle(), 1.0, rel_tol=1e-11)
    expected = 2 * math.cos(2 * math.pi * rho)
    assert abs(sample.trace - expected) < 1e-9


def test_cone_graph_shape():
    graph = nilpotent_cone_graph(2, GOOD)
    assert len(graph["nodes"]) == 9
    assert len(graph["edges"]) == 8
    degree = {}
    for a, b in graph["edges"]:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert degree["center"] == 4
    assert sorted(degree.values()) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
    center = next(n for n in graph["nodes"] if n["id"] == "center")
    assert set(center["attachments"]) == {"0", "1", "inf", "2"}
    # the fixed-point locus: the central sphere and the four tips
    vhs = {n["id"] for n in graph["nodes"] if n["vhs"]}
    assert vhs == {"center", "limit_0", "limit_1", "limit_inf", "limit_p"}
    assert any("uniformization" in n["label"] for n in graph["nodes"] if n["kind"] == "limit")


def test_cone_graph_rejects_unstable_weights():
    with pytest.raises(UnstableWeights):
        nilpotent_cone_graph(2, ParabolicWeights.parse("1/4,1/4,1/4,1/4"))


def test_kernel_line_meets_flags():
    # the kernel line (z, 1) of the movable-puncture field passes through each
    # flag at the corresponding puncture
    field = build_toy_higgs("phi_p", 3)
    res = residues(field)
    for site, position in (("0", 0), ("1", 1), ("p", 3)):
        r = res[site]
        v = (GaussianRational(position), GaussianRational(1))
        image = (
            r[0][0] * v[0] + r[0][1] * v[1],
            r[1][0] * v[0] + r[1][1] * v[1],
        )
        assert not image[0] and not image[1], site
