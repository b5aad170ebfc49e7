import copy
import json
import math
import pickle
import random
import struct
from fractions import Fraction

import pytest
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from nilwkb.algebra import (
    GR_ONE,
    GR_ZERO,
    _BRF_ZERO,
    _Frozen,
    BiPolynomial,
    _poly_div_exact,
    _poly_gcd,
    BiRationalFunction as BRF,
    GaussianRational,
    RationalFunctionMatrix,
    matrix_rank_exact,
    wedge_bracket,
    wedge_square,
)
from nilwkb.connection import MatrixOneForm
from nilwkb.errors import DimensionMismatch, PoleHit


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(Fraction(-2, 3), Fraction(1, 5))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (GaussianRational(1) / a) == GaussianRational(1)
    assert a.conjugate().conjugate() == a
    assert complex(a.to_complex()) == 0.5 + 0.75j


def test_evaluate_examples():
    z, one = BRF.z(), BRF.one()
    f = one / (z * (z - one))
    assert f.evaluate(2.0) == pytest.approx(0.5)
    g = z * BRF.zbar()
    assert g.evaluate(1 + 1j) == pytest.approx(2.0)
    with pytest.raises(PoleHit):
        (one / z).evaluate(0.0)


def test_pole_test_is_relative_to_the_denominator():
    # |z^110| is about 1.1e14 at 0.124+1.336i: a polynomial has no pole,
    # however large its value, nor has 1/(z zbar)^20 where its denominator
    # is past a double; a denominator near its zero still raises
    z, one = BRF.z(), BRF.one()
    power, far = one, one
    for _ in range(110):
        power = power * z
    for _ in range(20):
        far = far * z * BRF.zbar()
    assert math.isfinite(abs(power.compiled()(0.124 + 1.336j)))
    assert (one / far).compiled()(1e10) == 0
    for f, at in [(one / z, 0j), (one / (z - one), 1 + 0j), (one / (z - one), 1 + 1e-15j)]:
        with pytest.raises(PoleHit):
            f.compiled()(at)


def _rank_at(M: RationalFunctionMatrix, z: GaussianRational) -> int:
    """Rank of M at z, an oracle apart from matrix_rank_exact: sympy's
    DomainMatrix.rank over QQ_I of the entries evaluated exactly at z (PoleHit at a pole)."""
    values = [[e.evaluate_exact(z) for e in row] for row in M.entries]
    rows = [[QQ_I.new(QQ(v.a, v.d), QQ(v.b, v.d)) for v in row] for row in values]
    return DomainMatrix(rows, (M.rows, M.cols), QQ_I).rank()


def test_rank_examples():
    z, one = BRF.z(), BRF.one()
    M = RationalFunctionMatrix([[z, -(z * z)], [one, -z]])
    for matrix, at, rank in [(RationalFunctionMatrix.zeros(2), 1, 0), (M, 2, 1), (RationalFunctionMatrix.identity(3), 0, 3)]:
        assert _rank_at(matrix, GaussianRational(at)) == matrix_rank_exact(matrix) == rank


def test_generic_rank_needs_no_point_off_the_poles():
    z, one = BRF.z(), BRF.one()
    M = RationalFunctionMatrix([[one / z]])
    # the origin is a pole of the only entry; the rank over the function field
    # takes no point, so it is 1, while the rank at the origin is undefined
    assert matrix_rank_exact(M) == 1
    assert _rank_at(M, GaussianRational(1)) == 1
    with pytest.raises(PoleHit):
        _rank_at(M, GaussianRational(0))


def test_wedge_bracket_examples():
    E12 = RationalFunctionMatrix.from_scalars([[0, 1], [0, 0]])
    E21 = RationalFunctionMatrix.from_scalars([[0, 0], [1, 0]])
    zero = RationalFunctionMatrix.zeros(2)
    # dz ^ dz drops identically
    assert wedge_bracket(MatrixOneForm(E12, zero), MatrixOneForm(E12, zero)).is_zero
    # mixed types give the commutator, diag(1, -1)
    out = wedge_bracket(MatrixOneForm(E12, zero), MatrixOneForm(zero, E21))
    assert out == RationalFunctionMatrix.from_scalars([[1, 0], [0, -1]])
    # diagonal dz against diagonal dzbar commutes
    D = RationalFunctionMatrix.from_scalars([[2, 0], [0, -2]])
    assert wedge_bracket(MatrixOneForm(D, zero), MatrixOneForm(zero, D)).is_zero


def _four_products(A, B):
    """[A ^ B] as the four products (Az Bzb - Bzb Az) + (Bz Azb - Azb Bz)."""
    az, azb, bz, bzb = A.dz_part, A.dzbar_part, B.dz_part, B.dzbar_part
    return (az @ bzb - bzb @ az) + (bz @ azb - azb @ bz)


def _sparse_form(rng, n):
    """A seeded n x n matrix 1-form: each part zero one time in three, else
    entries that are zero half the time and otherwise c, c z, c zbar or c / (z - a)."""
    z, zbar = BRF.z(), BRF.zbar()
    gauss = lambda: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) or GR_ONE
    shapes = (lambda c: BRF.constant(c), lambda c: z.scale(c), lambda c: zbar.scale(c), lambda c: BRF.from_poles(c, [gauss()]))

    def part():
        if rng.random() < 1 / 3:
            return RationalFunctionMatrix.zeros(n)
        return RationalFunctionMatrix([[rng.choice(shapes)(gauss()) if rng.random() < 0.5 else _BRF_ZERO for _ in range(n)] for _ in range(n)])

    return MatrixOneForm(part(), part())


def test_wedge_bracket_self_and_zero_cases_match_the_four_products(monkeypatch):
    # seeded rank-2 and rank-3 forms mixing zero and nonzero parts: the self
    # bracket (one commutator, doubled), brackets with a zero form on either
    # side and brackets of two different forms all equal the four products;
    # a bracket with a zero form multiplies nothing
    rng = random.Random(34)
    matmuls, matmul = [], RationalFunctionMatrix.__matmul__
    self_brackets = []
    for n in (2, 3):
        Z = MatrixOneForm.zero(n)
        forms = [_sparse_form(rng, n) for _ in range(16)]
        for A, B in zip(forms, forms[1:] + forms[:1]):
            az, azb = A.dz_part, A.dzbar_part
            assert wedge_square(A) == az @ azb - azb @ az
            assert wedge_bracket(A, A) == _four_products(A, A)
            self_brackets.append(wedge_bracket(A, A).is_zero)
            assert wedge_bracket(A, B) == _four_products(A, B)
            with monkeypatch.context() as m:
                m.setattr(RationalFunctionMatrix, "__matmul__", lambda X, Y: matmuls.append(1) or matmul(X, Y))
                zero_sided = (wedge_bracket(A, Z), wedge_bracket(Z, A), wedge_bracket(Z, Z))
            assert all(out == RationalFunctionMatrix.zeros(n) == _four_products(Z, A) for out in zero_sided)
    assert matmuls == []
    # both kinds of self bracket occur: zero (a part is zero) and not
    assert self_brackets.count(True) >= 8 and self_brackets.count(False) >= 8


def _random_brf(rng: random.Random) -> BRF:
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            key = (rng.randint(0, 2), rng.randint(0, 1))
            terms[key] = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
        return BiPolynomial(terms)

    num = poly()
    den = poly()
    while den.is_zero:
        den = poly()
    return BRF(num, den)


def test_product_evaluation_property():
    # evaluate(f*g, z) = evaluate(f, z) * evaluate(g, z) on 100 random points
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        f, g = _random_brf(rng), _random_brf(rng)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        try:
            lhs = (f * g).evaluate(z)
            rhs = f.evaluate(z) * g.evaluate(z)
        except PoleHit:
            continue
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale
        checked += 1


def test_canonical_form_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        f = _random_brf(rng)
        again = BRF(f.num, f.den)
        assert again.num == f.num and again.den == f.den
    # an unreduced quotient lands in the same canonical form as the reduced one
    z, one = BRF.z(), BRF.one()
    assert (z * z - one) / (z - one) == z + one


def test_json_round_trip_bit_exact():
    rng = random.Random(23)
    for _ in range(25):
        f = _random_brf(rng)
        blob = json.dumps(f.to_json(), sort_keys=True)
        back = BRF.from_json(json.loads(blob))
        assert back == f
        assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_generic_rank_equals_the_rank_at_seeded_points():
    from nilwkb.catalog import catalog

    # the rank at a point never exceeds the generic rank and meets it off a
    # proper zero set, which seeded Gaussian rationals miss
    for seed in (101, 404):
        rng = random.Random(seed)
        points = [
            GaussianRational(Fraction(rng.randint(-97, 97), rng.randint(1, 29)), rng.randint(-9, 9))
            for _ in range(3)
        ]
        for name, fam in catalog().items():
            for M in (fam.phi.dz_part, fam.conn.dz_part, fam.conn.dzbar_part):
                generic = matrix_rank_exact(M)
                assert [_rank_at(M, p) for p in points] == [generic] * 3, name


def test_derivatives_quotient_rule():
    z, one = BRF.z(), BRF.one()
    f = one / z
    assert f.derivative_z() == -(one / (z * z))
    g = BRF.zbar() * z
    assert g.derivative_zbar() == z


def test_matrix_algebra_and_trace():
    A = RationalFunctionMatrix.from_scalars([[1, 2], [3, 4]])
    B = RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]])
    assert (A @ B).entries[0][0] == BRF.constant(2)
    assert A.trace() == BRF.constant(5)
    assert (A - A).is_zero
    assert A.power(0) == RationalFunctionMatrix.identity(2)


def _random_gr(rng: random.Random) -> GaussianRational:
    return GaussianRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    )


def _shifted_quotient(a: BiPolynomial, b: BiPolynomial) -> BiPolynomial:
    """a / b for a one-term b by exponent arithmetic, terms in ascending order:
    an oracle apart from the long division in _poly_div_exact."""
    ((bi, bj), c), = b.terms.items()
    if any(i < bi or j < bj for i, j in a.terms):
        raise ArithmeticError("inexact")
    return BiPolynomial({(i - bi, j - bj): v / c for (i, j), v in sorted(a.terms.items())})


def test_monomial_shortcuts_match_sympy():
    # a one-term operand (constants included) never reaches sympy; the
    # results must be the polynomials sympy gives, with the same term order,
    # and a quotient the exponent shift of every term
    rng, other_rng = random.Random(29), random.Random(33)
    for _ in range(200):
        p = BiPolynomial({(rng.randint(0, 3), rng.randint(0, 3)): _random_gr(rng) for _ in range(rng.randint(1, 4))})
        if p.is_zero:
            continue
        c = _random_gr(rng) or GaussianRational(1)
        m = BiPolynomial.monomial(rng.randint(0, 3), rng.randint(0, 3), c) if rng.random() < 0.7 else BiPolynomial.constant(c)
        expected = BiPolynomial._from_sympy(m._to_sympy().gcd(p._to_sympy()))
        assert _poly_gcd(m, p) == expected and _poly_gcd(p, m) == expected
        q = _poly_div_exact(p * m, m)
        q_sympy, _r = (p * m)._to_sympy().div(m._to_sympy())
        assert q == p and list(q.terms) == list(BiPolynomial._from_sympy(q_sympy).terms)
        shifted = _shifted_quotient(p * m, m)
        assert q == shifted and list(q.terms) == list(shifted.terms)
        other = _multi_term_poly(other_rng, "z zbar")
        try:
            shifted = _shifted_quotient(other, m)
        except ArithmeticError:
            with pytest.raises(ArithmeticError):
                _poly_div_exact(other, m)
        else:
            q = _poly_div_exact(other, m)
            assert q == shifted and list(q.terms) == list(shifted.terms)
    with pytest.raises(ArithmeticError):
        _poly_div_exact(BiPolynomial.z() + BiPolynomial.zbar(), BiPolynomial.z())
    with pytest.raises(ArithmeticError):
        _poly_div_exact(BiPolynomial.monomial(3, 0), BiPolynomial.monomial(1, 1, 2))


def _multi_term_poly(rng: random.Random, variables: str) -> BiPolynomial:
    """A polynomial of two to four terms in z, zbar or both, each exponent at most 2."""
    exponent = lambda v: rng.randint(0, 2) if v in variables else 0
    while True:
        p = BiPolynomial({(exponent("z"), exponent("zbar")): _random_gr(rng) for _ in range(rng.randint(2, 4))})
        if len(p.terms) > 1:
            return p


@pytest.mark.parametrize("variables", ["z", "zbar", "z zbar"])
def test_gcd_and_division_over_the_occurring_variables_match_two_variables(variables):
    # sympy sees only the variables that occur in either operand; the gcd and
    # the quotient must be those of the two-variable route, down to the
    # insertion order of their terms.  A mixed pair here has at least one
    # operand in both variables.  Three gcd pairs and one quotient each time:
    # 160 pairs per set of variables
    rng = random.Random(3030 + len(variables))
    two = lambda poly: BiPolynomial._from_sympy(poly)
    for _ in range(40):
        if variables == "z zbar":
            a = _multi_term_poly(rng, rng.choice(["z", "zbar", "z zbar"]))
            b = _multi_term_poly(rng, "z zbar")
        else:
            a, b = _multi_term_poly(rng, variables), _multi_term_poly(rng, variables)
        c = _multi_term_poly(rng, variables)
        for x, y in ((a * c, b * c), (a * c, b), (a, b)):
            g, want = _poly_gcd(x, y), two(x._to_sympy().gcd(y._to_sympy()))
            assert g == want and list(g.terms) == list(want.terms), (x, y)
        q, want = _poly_div_exact(a * c, c), two((a * c)._to_sympy().div(c._to_sympy())[0])
        assert q == a and list(q.terms) == list(want.terms), (a, c)
        if not (b * c)._to_sympy().div(a._to_sympy())[1].is_zero:
            with pytest.raises(ArithmeticError):
                _poly_div_exact(b * c, a)


def test_sympy_sees_only_the_variables_that_occur(monkeypatch):
    # sympy computes gcds of two multi-term polynomials and nothing else: the
    # catalog's pole checks are all in z alone, one generator each, and a pair
    # in z and zbar takes both.  No sympy division is made by the catalog, by
    # flatness on every family, by the secondary field of the nilpotent
    # families, by the toy residues or by a mixed pair's normalisation
    import sympy

    from nilwkb.catalog import catalog
    from nilwkb.connection import check_flatness
    from nilwkb.gauge import secondary_higgs
    from nilwkb.toymodel import TOY_FIELDS, build_toy_higgs, residues

    seen = []
    for name in ("gcd", "div", "rem", "quo", "exquo"):
        method = getattr(sympy.Poly, name)
        monkeypatch.setattr(sympy.Poly, name, lambda a, b, _m=method, _n=name: seen.append((_n, a.gens, b.gens)) or _m(a, b))
    families = catalog()
    assert seen and {(name, gens) for name, *both in seen for gens in both} == {("gcd", sympy.symbols("z,"))}
    for family in families.values():
        check_flatness(family)
    for name, blocks in (("nilpotent_sl2", [1, 1]), ("nilpotent_sl2_full", [1, 1]), ("nilpotent_sl3", [1, 1, 1]), ("nilpotent_sl2_parabolic", [1, 1])):
        secondary_higgs(families[name], blocks)
    for which in TOY_FIELDS:
        residues(build_toy_higgs(which))
    assert {name for name, *_gens in seen} == {"gcd"}
    seen.clear()
    z, zb, one = BiPolynomial.z(), BiPolynomial.zbar(), BiPolynomial.constant(1)
    f = BRF((z + one) * (zb - one), (z * z - one) * (zb + one))
    both = sympy.symbols("z zbar")
    assert seen == [("gcd", both, both)]
    assert f.num == zb - one and f.den == (z - one) * (zb + one)


def _multi_term_brf(rng: random.Random) -> BRF:
    while True:
        f = _random_brf(rng)
        if len(f.num.terms) > 1 and len(f.den.terms) > 1:
            return f


def _same_terms(f: BRF, g: BRF) -> bool:
    return f == g and list(f.num.terms) == list(g.num.terms) and list(f.den.terms) == list(g.den.terms)


def test_zero_operand_skips_normalising_but_matches_it():
    # x + 0, 0 + x, x - 0, 0 - x, x * 0 and 0 * x return without normalising;
    # the result must be what the general formula gives, term order included
    rng = random.Random(31)
    zero = BRF.zero()
    general_add = lambda a, b: BRF(a.num * b.den + b.num * a.den, a.den * b.den)
    general_sub = lambda a, b: BRF(a.num * b.den - b.num * a.den, a.den * b.den)
    general_mul = lambda a, b: BRF(a.num * b.num, a.den * b.den)
    for _ in range(40):
        x = _multi_term_brf(rng)
        for a, b in ((x, zero), (zero, x)):
            assert _same_terms(a + b, general_add(a, b))
            assert _same_terms(a - b, general_sub(a, b))
            assert _same_terms(a * b, general_mul(a, b))


def test_flatness_normalises_only_nonzero_arithmetic(monkeypatch):
    # a zero operand costs no normalisation; normalising it too made 261 calls here
    from nilwkb.catalog import nilpotent_sl3
    from nilwkb.connection import check_flatness

    family = nilpotent_sl3()
    calls = []
    normalize = BRF._normalize
    monkeypatch.setattr(BRF, "_normalize", staticmethod(lambda num, den: calls.append(1) or normalize(num, den)))
    assert check_flatness(family).is_flat
    assert len(calls) <= 60


def test_non_finite_values_are_refused():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=repr(bad)):
            GaussianRational.from_strings(bad, "0")
        with pytest.raises(ValueError, match=repr(bad)):
            GaussianRational.from_strings("1/2", bad)
        with pytest.raises(TypeError):
            GaussianRational.coerce(bad)
        with pytest.raises(TypeError):
            GaussianRational.coerce(complex(bad, 0))
    with pytest.raises(ValueError):
        GaussianRational.from_strings(None, "0")
    assert GaussianRational.from_strings("1/2", 3) == GaussianRational(Fraction(1, 2), 3)
    assert GaussianRational.coerce(4.0) == GaussianRational(4)


def test_scale_by_a_constant_keeps_the_canonical_form(monkeypatch):
    # a canonical entry times a nonzero constant is already canonical: scale
    # returns what the normalising constructor returns, term order included,
    # and never asks for a gcd; a zero constant gives the zero singleton
    from nilwkb import algebra
    from nilwkb.catalog import catalog

    rng = random.Random(4242)
    entries = [
        e
        for fam in catalog().values()
        for form in (fam.phi, fam.conn, fam.psi)
        for part in (form.dz_part, form.dzbar_part)
        for row in part.entries
        for e in row
    ]
    entries += [_multi_term_brf(rng) for _ in range(20)]
    consts = [GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9)) for _ in range(6)]
    consts = [c for c in consts if c] + [GaussianRational(-1), GaussianRational(0, 1)]
    expected = [[BRF(e.num.scale(c), e.den) for c in consts] for e in entries]
    assert any(len(e.num.terms) > 1 and len(e.den.terms) > 1 for e in entries)

    def no_gcd(a, b):
        raise AssertionError("scale by a constant asked for a gcd")

    monkeypatch.setattr(algebra, "_poly_gcd", no_gcd)
    for e, row in zip(entries, expected):
        for c, want in zip(consts, row):
            assert _same_terms(e.scale(c), want)
            assert _same_terms(RationalFunctionMatrix([[e]]).scale(c).entries[0][0], want)
        assert e.scale(0) is BRF.zero()
        assert RationalFunctionMatrix([[e]]).scale(GaussianRational(0)).entries[0][0] is BRF.zero()


# -- integer-triple representation against a two-Fraction reference ----------


class _PairReference:
    """The arithmetic of a Gaussian rational kept as two Fractions (re, im)."""

    def __init__(self, re, im=Fraction(0)):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, x):
        if isinstance(x, complex):
            return cls(int(x.real), int(x.imag))
        return cls(x)

    def add(self, o):
        return _PairReference(self.re + o.re, self.im + o.im)

    def sub(self, o):
        return _PairReference(self.re - o.re, self.im - o.im)

    def mul(self, o):
        return _PairReference(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def div(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _PairReference((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def repr(self):
        return f"GaussianRational({self.re})" if not self.im else f"GaussianRational({self.re}, {self.im})"

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)


def _random_part(rng: random.Random, den=None) -> Fraction:
    kind = rng.randrange(5)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-99, 99), den or rng.randint(1, 12))
    return Fraction(rng.randint(-(10**40), 10**40), den or rng.randint(1, 10**rng.randint(1, 40)))


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _assert_matches(g: GaussianRational, ref: _PairReference):
    assert (g.re, g.im) == (ref.re, ref.im)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert repr(g) == ref.repr()
    assert g.to_json() == [str(ref.re), str(ref.im)]
    assert hash(g) == hash((ref.re, ref.im))
    assert _bits(g.to_complex()) == _bits(ref.to_complex())
    assert bool(g) == bool(ref.re or ref.im)
    # one triple per value: canonical, so equal values have equal slots
    assert g.d > 0 and math.gcd(g.a, g.b, g.d) == 1
    twin = GaussianRational.from_strings(*g.to_json())
    assert (twin.a, twin.b, twin.d) == (g.a, g.b, g.d) and twin == g


def test_integer_triples_match_the_fraction_pair_reference():
    rng = random.Random(2101)
    binary = (
        ("add", lambda x, y: x + y),
        ("sub", lambda x, y: x - y),
        ("mul", lambda x, y: x * y),
        ("div", lambda x, y: x / y),
    )
    for _ in range(2000):
        shared = rng.choice([None, None, rng.randint(1, 10**rng.randint(1, 40))])
        r1, i1 = _random_part(rng, shared), _random_part(rng, shared)
        g, ref = GaussianRational(r1, i1), _PairReference(r1, i1)
        _assert_matches(g, ref)
        _assert_matches(-g, _PairReference(-r1, -i1))
        _assert_matches(g.conjugate(), _PairReference(r1, -i1))
        kind = rng.randrange(4)
        if kind == 0:
            r2, i2 = _random_part(rng, shared), _random_part(rng, shared)
            other, oref = GaussianRational(r2, i2), _PairReference(r2, i2)
        elif kind == 1:
            other = rng.randint(-(10**40), 10**40) if rng.random() < 0.5 else rng.randint(-3, 3)
            oref = _PairReference.of(other)
        elif kind == 2:
            other = _random_part(rng)
            oref = _PairReference.of(other)
        else:
            other = complex(rng.randint(-9, 9), rng.randint(-9, 9))
            oref = _PairReference.of(other)
        assert (g == other) == (ref.re == oref.re and ref.im == oref.im)
        assert g == GaussianRational(r1, i1) and g == g * 1
        for name, op in binary:
            for x, y, rx, ry in ((g, other, ref, oref), (other, g, oref, ref)):
                try:
                    want = getattr(rx, name)(ry)
                except ZeroDivisionError as exc:
                    with pytest.raises(ZeroDivisionError, match=str(exc)):
                        op(x, y)
                    continue
                _assert_matches(op(x, y), want)


def test_integer_triples_refuse_what_the_fraction_pairs_refused():
    g = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    for zero in (0, Fraction(0), 0j, GaussianRational(0), GaussianRational(Fraction(0), 0)):
        with pytest.raises(ZeroDivisionError, match="division by zero GaussianRational"):
            g / zero
    with pytest.raises(ZeroDivisionError, match="division by zero GaussianRational"):
        1 / GaussianRational(0)
    for bad in (0.5, complex(0.5, 1), complex(1, -2.25)):
        for attempt in (
            lambda: GaussianRational.coerce(bad),
            lambda: g + bad,
            lambda: bad * g,
            lambda: g / bad,
        ):
            with pytest.raises(TypeError, match="non-integral float"):
                attempt()
        assert (g == bad) is False and (g != bad) is True
    with pytest.raises(TypeError, match="non-integral float"):
        GaussianRational(0.5)
    for bad in ("abc", "inf", "nan", "1.5e", None):
        with pytest.raises(ValueError, match="not an exact Gaussian rational"):
            GaussianRational.from_strings(bad, "1/2")
    assert GaussianRational.from_strings("-6/4", "0.5") == GaussianRational(Fraction(-3, 2), Fraction(1, 2))
    assert GaussianRational.coerce(complex(2, -3)) == GaussianRational(2, -3) == complex(2, -3)


def test_exact_hot_paths_read_no_fraction_parts(monkeypatch):
    # flatness and the transport pullback work on the integer triples alone:
    # reading re or im builds a Fraction, with its own gcd, per call
    from nilwkb.catalog import catalog, nilpotent_sl2
    from nilwkb.connection import check_flatness
    from nilwkb.holonomy import ParamPath, transport

    families = catalog()
    sl2 = nilpotent_sl2()
    reads = []
    for name in ("re", "im"):
        part = getattr(GaussianRational, name).fget
        monkeypatch.setattr(GaussianRational, name, property(lambda self, part=part: reads.append(1) or part(self)))
    assert GaussianRational(Fraction(1, 2)).re == Fraction(1, 2) and reads == [1]
    reads.clear()
    for name, family in families.items():
        assert check_flatness(family).is_flat, name
    sample = transport(sl2, ParamPath.segment(0, 1), 0.3)
    assert math.isfinite(sample.trace.real)
    assert reads == []


# -- fast paths against the dense rules they replace -------------------------


def _terms_in_order(matrix):
    """Each entry's numerator and denominator terms in insertion order: the
    order compiled() sums them in, which neither == nor to_json() sees."""
    return [[(list(e.num.terms.items()), list(e.den.terms.items())) for e in row] for row in matrix.entries]


def _same_matrix(got, want):
    assert got == want
    assert got.to_json() == want.to_json()
    assert _terms_in_order(got) == _terms_in_order(want)


def _dense_matmul(a, b):
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = BRF.zero()
            for k in range(a.cols):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return RationalFunctionMatrix(out)


def _dense_entrywise(a, b, op):
    return RationalFunctionMatrix([[op(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)])


def _quotient_rule(e, d):
    """d/dz or d/dzbar of one entry as (num' den - num den') / den^2, with no shortcut."""
    diff = (lambda p: p.derivative_z()) if d == "z" else (lambda p: p.derivative_zbar())
    return BRF(diff(e.num) * e.den - e.num * diff(e.den), e.den * e.den)


def _entry_pool(rng):
    """Zeros, constants, and z-only, zbar-only and mixed rational functions.

    Most denominators are monomials, whose gcds are exponent arithmetic; one
    function of each kind has a two-term denominator, normalised by sympy."""
    c = lambda: GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)) or GaussianRational(1)
    mono = lambda i, j: BiPolynomial.monomial(i, j, c())
    z, zb, one = BiPolynomial.z(), BiPolynomial.zbar(), BiPolynomial.constant(1)
    pool = [BRF.zero()] * 6 + [BRF.constant(c()) for _ in range(3)]
    for _ in range(3):
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        pool.append(BRF(mono(i, 0) + mono(0, 0), BiPolynomial.monomial(rng.randint(0, 2), 0)))
        pool.append(BRF(mono(0, j) + mono(0, 0), BiPolynomial.monomial(0, rng.randint(0, 2))))
        pool.append(BRF(mono(i, j) + mono(1, 0) + mono(0, 1), BiPolynomial.monomial(rng.randint(0, 1), rng.randint(0, 1))))
    pool.append(BRF(one, z - BiPolynomial.constant(c())))
    pool.append(BRF(mono(0, 1), zb - BiPolynomial.constant(c())))
    pool.append(BRF(mono(1, 0), z * zb - BiPolynomial.constant(c())))
    return pool


def test_sparse_product_and_derivative_rule_match_the_dense_rules():
    rng = random.Random(2201)
    pool = _entry_pool(rng)
    matrix = lambda r, c: RationalFunctionMatrix([[rng.choice(pool) for _ in range(c)] for _ in range(r)])
    for _ in range(200):
        n, k, m = (rng.randint(1, 3) for _ in range(3))
        a, b, a2 = matrix(n, k), matrix(k, m), matrix(n, k)
        _same_matrix(a @ b, _dense_matmul(a, b))
        _same_matrix(a + a2, _dense_entrywise(a, a2, lambda x, y: x + y))
        _same_matrix(a - a2, _dense_entrywise(a, a2, lambda x, y: x - y))
        for d in ("z", "zbar"):
            got = a.derivative_z() if d == "z" else a.derivative_zbar()
            _same_matrix(got, RationalFunctionMatrix([[_quotient_rule(e, d) for e in row] for row in a.entries]))
        f = rng.choice(pool)
        _same_matrix(a.map_entries(lambda e: e * f), RationalFunctionMatrix([[e * f for e in row] for row in a.entries]))


def test_public_matrix_constructor_keeps_its_checks():
    one = BRF.one()
    with pytest.raises(DimensionMismatch, match="ragged"):
        RationalFunctionMatrix([[one, one], [one]])
    with pytest.raises(DimensionMismatch, match="empty"):
        RationalFunctionMatrix([])
    with pytest.raises(DimensionMismatch, match="empty"):
        RationalFunctionMatrix([[]])
    with pytest.raises(TypeError, match="BiRationalFunction"):
        RationalFunctionMatrix([[one, 1]])
    with pytest.raises(TypeError, match="BiRationalFunction"):
        RationalFunctionMatrix([[one], [GaussianRational(1)]])


def test_flatness_multiplies_no_zero_and_differentiates_no_variable_free_entry(monkeypatch):
    # the sparse product and the derivative rule skip work whose result is known
    # to be zero; a later edit that brings the dense work back fails here
    from nilwkb.catalog import catalog
    from nilwkb.connection import check_flatness

    families = catalog()
    zero_products, free_normalizations, in_free_derivative = [], [], []
    mul, normalize = BRF.__mul__, BRF._normalize

    def counting_mul(self, other):
        if self.is_zero or other.is_zero:
            zero_products.append((self, other))
        return mul(self, other)

    def counting_normalize(num, den):
        if in_free_derivative:
            free_normalizations.append((num, den))
        return normalize(num, den)

    def watched(name, axis):
        derivative = getattr(BRF, name)

        def run(self):
            if self.num.degree()[axis] > 0 or self.den.degree()[axis] > 0:
                return derivative(self)
            in_free_derivative.append(self)
            try:
                return derivative(self)
            finally:
                in_free_derivative.pop()

        return run

    monkeypatch.setattr(BRF, "__mul__", counting_mul)
    monkeypatch.setattr(BRF, "_normalize", staticmethod(counting_normalize))
    monkeypatch.setattr(BRF, "derivative_z", watched("derivative_z", 0))
    monkeypatch.setattr(BRF, "derivative_zbar", watched("derivative_zbar", 1))
    for name, family in families.items():
        assert check_flatness(family).is_flat, name
    assert zero_products == []
    assert free_normalizations == []
    BRF.zero() * BRF.z()
    assert len(zero_products) == 1  # the counter sees what it counts



def _frozen_types(cls=_Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from _frozen_types(sub)


def test_every_frozen_value_survives_pickle_and_deepcopy():
    # each immutable value type, every catalog family among them, comes back
    # equal slot for slot, and rebuilding one sets no shared value
    from nilwkb.catalog import catalog
    from nilwkb.connection import ConnectionFamily
    from nilwkb.holonomy import Period

    def slots(value):
        return [(name, getattr(value, name)) for cls in type(value).__mro__ for name in cls.__dict__.get("__slots__", ())]

    z = BRF.z()
    values = [
        GaussianRational(0),
        GaussianRational(Fraction(1, 2), -3),
        BiPolynomial({(2, 1): GaussianRational(1, 1), (0, 0): GaussianRational(-4)}),
        BRF.zero(),
        z / (z - BRF.one()),
        RationalFunctionMatrix([[z, BRF.zero()], [BRF.one(), -z]]),
        MatrixOneForm(RationalFunctionMatrix([[z]]), RationalFunctionMatrix([[BRF.zbar()]])),
        *catalog().values(),
        Period(complex(-0.0, 2.5), 1e-13, True, 0.75),
    ]
    assert {type(v) for v in values} == set(_frozen_types()) == {
        GaussianRational, BiPolynomial, BRF, RationalFunctionMatrix, MatrixOneForm, ConnectionFamily, Period
    }
    shared = [(value, slots(value)) for value in (GR_ZERO, GR_ONE, BRF.zero(), BRF.one())]
    for value in values:
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(copied) is type(value) and copied == value and slots(copied) == slots(value)
            with pytest.raises(AttributeError, match="immutable"):
                copied.x = 1
    assert repr(pickle.loads(pickle.dumps(values[-1]))) == repr(values[-1])
    assert all(slots(value) == before for value, before in shared)
    assert (GaussianRational(0).a, GaussianRational(0).b, GaussianRational(0).d) == (0, 0, 1)
    assert BRF.zero() is _BRF_ZERO and BRF.zero().is_zero and BRF.zero().den == BiPolynomial.constant(1)
