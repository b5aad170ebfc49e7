import random
from fractions import Fraction

import pytest

import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

from nilwkb.algebra import (
    BiPolynomial,
    BiRationalFunction as BRF,
    GaussianRational,
    RationalFunctionMatrix,
    matrix_rank_exact,
)
from nilwkb.catalog import catalog, nilpotent_sl2, nilpotent_sl3, uniformization_rank2
from nilwkb.connection import ConnectionFamily, MatrixOneForm
from nilwkb.errors import (
    BadBlocks,
    FixedPointDetected,
    FrameNotAligned,
    NotNilpotent,
    ZeroHiggsField,
)
from nilwkb.gauge import (
    GaugeProfile,
    _check_graded_frame,
    _line_layout,
    conjugate_partition,
    gauge_conjugate,
    graded_decompose,
    is_m_cyclic,
    jordan_type,
    k_differentials,
    reality_obstruction,
    secondary_higgs,
    undo_gauge,
)

E12 = RationalFunctionMatrix.from_scalars([[0, 1], [0, 0]])
E21 = RationalFunctionMatrix.from_scalars([[0, 0], [1, 0]])


# -- jordan type -------------------------------------------------------------


def test_jordan_type_single_block():
    J3 = RationalFunctionMatrix.from_scalars([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    jt = jordan_type(MatrixOneForm.from_dz(J3))
    assert jt.partition == (1, 1, 1)
    assert jt.transpose == (3,)
    assert jt.nilpotency_index == 3


def test_jordan_type_toy_field():
    from nilwkb.toymodel import build_toy_higgs

    field = build_toy_higgs("phi_p", 2)
    jt = jordan_type(field.one_form())
    assert jt.partition == (1, 1)
    assert jt.transpose == (2,)


def test_jordan_type_errors():
    with pytest.raises(ZeroHiggsField):
        jordan_type(MatrixOneForm.zero(2))
    with pytest.raises(NotNilpotent):
        jordan_type(MatrixOneForm.from_dz(RationalFunctionMatrix.identity(2)))


def test_jordan_type_is_generic_where_sample_points_vanish():
    # phi = prod_k (z - a_k) E12 has generic rank 1, but vanishes at the 8
    # points a_k that random.Random(2301) draws as Gaussian rationals with
    # parts n/d, -97 <= n <= 97, 1 <= d <= 29, so sampling there reads rank 0
    rng = random.Random(2301)
    f = BRF.one()
    for _ in range(8):
        re = Fraction(rng.randint(-97, 97), rng.randint(1, 29))
        im = Fraction(rng.randint(-97, 97), rng.randint(1, 29))
        f = f * (BRF.z() - BRF.constant(GaussianRational(re, im)))
    jt = jordan_type(MatrixOneForm.from_dz(E12.scale(f)))
    assert jt.partition == (1, 1) and jt.transpose == (2,)


def test_jordan_type_of_a_high_order_pole():
    pole = BRF(BiPolynomial.constant(1), BiPolynomial.monomial(2000, 0))
    assert jordan_type(MatrixOneForm.from_dz(E12.scale(pole))).partition == (1, 1)


def test_jordan_type_evaluates_at_no_point(monkeypatch):
    calls = []
    original = BRF.evaluate_exact
    monkeypatch.setattr(BRF, "evaluate_exact", lambda self, z: calls.append(z) or original(self, z))
    types = {}
    for name, fam in catalog().items():
        try:
            types[name] = jordan_type(fam.phi).partition
        except (NotNilpotent, ZeroHiggsField):
            pass
    assert types["nilpotent_sl3"] == (1, 1, 1) and types["nilpotent_sl2"] == (1, 1)
    assert calls == []


def _random_poly(rng: random.Random) -> BiPolynomial:
    terms = {}
    for _ in range(2):
        key = (rng.randint(0, 1), rng.randint(0, 1))
        terms[key] = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
    return BiPolynomial(terms)


def _seeded_nilpotent_field(rng: random.Random, n: int) -> RationalFunctionMatrix:
    """g N g^-1: N strictly upper triangular, some entries zero and the others
    p/(z - c) or p/zbar, g a product of two elementary matrices I + a E_ij
    with polynomial a, each inverted as I - a E_ij."""
    while True:
        N = [[BRF.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.7:
                    den = rng.choice([BiPolynomial.zbar(), BiPolynomial.z() - BiPolynomial.constant(rng.randint(1, 3))])
                    N[i][j] = BRF(_random_poly(rng), den)
        if any(e for row in N for e in row):
            break
    phi = RationalFunctionMatrix(N)
    one = RationalFunctionMatrix.identity(n)
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        a = BRF(_random_poly(rng))
        E = RationalFunctionMatrix([[a if (r, c) == (i, j) else BRF.zero() for c in range(n)] for r in range(n)])
        phi = (one + E) @ phi @ (one - E)
    return phi


def test_generic_ranks_agree_with_sympy_over_the_function_field():
    z, zbar = sympy.symbols("z zbar")
    K = QQ_I.frac_field(z, zbar)
    rng = random.Random(1968)
    seen = set()
    for n in (2, 2, 2, 2, 3, 3, 3, 3, 3, 3):
        phi = _seeded_nilpotent_field(rng, n)
        assert any(e.num.degree()[1] or e.den.degree()[1] for row in phi.entries for e in row)
        sym = DomainMatrix(
            [[K.from_sympy(e.num._to_sympy().as_expr() / e.den._to_sympy().as_expr()) for e in row]
             for row in phi.entries],
            (n, n),
            K,
        )
        ranks = [(sym**j).rank() for j in range(1, n + 1)]
        assert matrix_rank_exact(phi) == ranks[0]
        kernel_dims = [0] + [n - r for r in ranks]
        kernel_dims = kernel_dims[: kernel_dims.index(n) + 1]
        partition = tuple(b - a for a, b in zip(kernel_dims, kernel_dims[1:]))
        assert jordan_type(MatrixOneForm.from_dz(phi)).partition == partition
        seen.add(partition)
    assert seen == {(1, 1), (2, 1), (1, 1, 1)}


def test_conjugate_partition_involution():
    rng = random.Random(3)
    for _ in range(30):
        parts = sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 4))), reverse=True)
        parts = tuple(parts)
        assert conjugate_partition(conjugate_partition(parts)) == parts


# -- graded decomposition ------------------------------------------------------


def test_graded_decompose_examples():
    ident = MatrixOneForm.from_dz(RationalFunctionMatrix.identity(2))
    assert graded_decompose(ident, [1, 1]) == {0: ident}

    A = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 5], [7, 0]]))
    pieces = graded_decompose(A, [1, 1])
    assert set(pieces) == {-1, 1}
    assert pieces[1].dz_part.entries[0][1] == BRF.constant(5)
    assert pieces[-1].dz_part.entries[1][0] == BRF.constant(7)

    E31 = MatrixOneForm.from_dz(
        RationalFunctionMatrix.from_scalars([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    )
    assert set(graded_decompose(E31, [1, 1, 1])) == {-2}


def test_graded_decompose_reassembles():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        grid = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        A = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars(grid))
        blocks = []
        left = n
        while left:
            b = rng.randint(1, left)
            blocks.append(b)
            left -= b
        pieces = graded_decompose(A, blocks)
        total = MatrixOneForm.zero(n)
        for piece in pieces.values():
            total = total + piece
        assert total == A
    with pytest.raises(BadBlocks):
        graded_decompose(MatrixOneForm.zero(2), [1, 2])


# -- gauge conjugation ----------------------------------------------------------


def test_gauge_conjugate_examples():
    phi = MatrixOneForm.from_dz(E12)
    quarter = GaugeProfile((Fraction(1, 4), Fraction(-1, 4)))
    assert gauge_conjugate(phi, quarter) == {Fraction(-1, 2): phi}

    g3 = GaugeProfile((Fraction(-1), Fraction(0), Fraction(1)))
    E31 = MatrixOneForm.from_dz(
        RationalFunctionMatrix.from_scalars([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    )
    assert gauge_conjugate(E31, g3) == {Fraction(-2): E31}

    identity = GaugeProfile((Fraction(0), Fraction(0)))
    assert gauge_conjugate(phi, identity) == {Fraction(0): phi}


def test_gauge_round_trip_randomized():
    # criterion: exact round trip over >= 20 randomized instances, fixed seed
    rng = random.Random(17)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        grid = [
            [GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        form = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars(grid))
        exps = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n - 1)]
        exps.append(-sum(exps, Fraction(0)))
        profile = GaugeProfile(tuple(exps))
        once = gauge_conjugate(form, profile)
        back = gauge_conjugate(once, profile.negated())
        assert back == {Fraction(0): form}


def test_profile_must_be_traceless():
    with pytest.raises(ValueError):
        GaugeProfile((Fraction(1, 2), Fraction(1, 2)))


def test_gauge_conjugate_family_merges_leading_terms():
    # applying the quarter-power gauge to the whole family: the leading field
    # and the lower connection piece coalesce at exponent -1/2
    graded = gauge_conjugate(nilpotent_sl2(), GaugeProfile.from_splitting((1, 1), (2,)))
    assert set(graded) == {Fraction(-1, 2)}
    expected = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    assert graded[Fraction(-1, 2)] == expected


# -- secondary field -------------------------------------------------------------


def test_secondary_sl2():
    sd = secondary_higgs(nilpotent_sl2(), [1, 1])
    assert sd.m == 2
    assert sd.Phi == MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    assert sd.leading_exponent == Fraction(-1)
    assert k_differentials(sd.Phi, 2)[0] == BRF.constant(2)
    phi, conn, psi = undo_gauge(sd)
    fam = nilpotent_sl2()
    assert (phi, conn, psi) == (fam.phi, fam.conn, fam.psi)


def test_secondary_fixed_point():
    with pytest.raises(FixedPointDetected):
        secondary_higgs(uniformization_rank2(), [1, 1])


def test_secondary_sl3():
    sd = secondary_higgs(nilpotent_sl3(), [1, 1, 1])
    assert sd.m == 3
    diffs = k_differentials(sd.Phi, 3)
    assert diffs[0].is_zero
    assert diffs[1] == BRF.constant(3)
    assert is_m_cyclic(sd.Phi, sd.profile, 3)
    fam = nilpotent_sl3()
    assert undo_gauge(sd) == (fam.phi, fam.conn, fam.psi)


def test_secondary_rejects_bad_inputs():
    fam = nilpotent_sl2()
    with pytest.raises(BadBlocks):
        secondary_higgs(fam, [2])
    with pytest.raises(ZeroHiggsField):
        secondary_higgs(
            ConnectionFamily(2, MatrixOneForm.zero(2), MatrixOneForm.zero(2), MatrixOneForm.zero(2)),
            [1, 1],
        )
    # misaligned frame: phi lower-triangular instead of graded-superdiagonal
    flipped = ConnectionFamily(
        2, MatrixOneForm.from_dz(E21), MatrixOneForm.from_dz(E12), MatrixOneForm.zero(2)
    )
    with pytest.raises(FrameNotAligned):
        secondary_higgs(flipped, [1, 1])


def test_secondary_refuses_a_phi_entry_that_changes_slot():
    # phi = E13 + E23 has Jordan type (2, 1) and steps up one level, but its
    # entry (1, 2) leaves slot 2 of level 1 for slot 1 of level 2
    phi = RationalFunctionMatrix.from_scalars([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    family = ConnectionFamily(3, MatrixOneForm.from_dz(phi), MatrixOneForm.zero(3), MatrixOneForm.zero(3))
    assert jordan_type(family.phi).partition == (2, 1)
    with pytest.raises(FrameNotAligned, match="slot 2->1"):
        secondary_higgs(family, [2, 1])


def _graded_frame_by_double_loop(phi, partition):
    """The graded-frame rule as one test per position, row-major: the oracle for _check_graded_frame."""
    layout = _line_layout(partition)
    n = len(layout)
    for r in range(n):
        for c in range(n):
            entry = phi.dz_part.entries[r][c]
            lr, sr = layout[r]
            lc, sc = layout[c]
            if entry:
                if lc - lr != 1 or sr != sc:
                    raise FrameNotAligned(
                        f"phi entry ({r},{c}) sits at grading step {lc - lr}, slot "
                        f"{sr}->{sc}; the splitting frame must align phi on the "
                        "graded superdiagonal"
                    )
            else:
                if lc - lr == 1 and sr == sc:
                    raise FrameNotAligned(
                        f"phi entry ({r},{c}) on the graded superdiagonal vanishes; "
                        "the grading lines are not matched by phi"
                    )


def _compositions(n):
    """Every ordered tuple of positive integers summing to n."""
    if n == 0:
        return [()]
    return [(first, *rest) for first in range(1, n + 1) for rest in _compositions(n - first)]


def _graded_frame_verdict(check, phi, partition):
    try:
        check(phi, partition)
    except FrameNotAligned as exc:
        return str(exc)
    return None


def _support_form(n, bits):
    """The dz form whose entry (r, c) is 1 where bit r*n + c of bits is set, else 0."""
    return MatrixOneForm.from_dz(
        RationalFunctionMatrix.from_scalars([[bits >> (r * n + c) & 1 for c in range(n)] for r in range(n)])
    )


@pytest.mark.parametrize("n", [2, 3])
def test_graded_frame_rule_matches_the_double_loop_on_every_support(n):
    cases = verdicts = 0
    for partition in _compositions(n):
        for bits in range(2 ** (n * n)):
            phi = _support_form(n, bits)
            want = _graded_frame_verdict(_graded_frame_by_double_loop, phi, partition)
            assert _graded_frame_verdict(_check_graded_frame, phi, partition) == want, (partition, bits)
            cases, verdicts = cases + 1, verdicts + (want is None)
    assert cases == {2: 32, 3: 2048}[n]
    assert verdicts == len(_compositions(n))  # one aligned support per composition


def test_graded_frame_rule_matches_the_double_loop_on_seeded_rank4_supports():
    rng = random.Random(31)
    aligned_count = 0
    for partition in _compositions(4):
        layout = _line_layout(partition)
        aligned = sum(
            1 << (r * 4 + c) for r in range(4) for c in range(4) if layout[c] == (layout[r][0] + 1, layout[r][1])
        )
        draws = [aligned] + [rng.getrandbits(16) for _ in range(20)]
        # near the aligned support, where the first differing position can be anywhere
        draws += [aligned ^ (1 << rng.randrange(16)) ^ (rng.random() < 0.5) << rng.randrange(16) for _ in range(20)]
        for bits in draws:
            phi = _support_form(4, bits)
            want = _graded_frame_verdict(_graded_frame_by_double_loop, phi, partition)
            assert _graded_frame_verdict(_check_graded_frame, phi, partition) == want, (partition, bits)
            aligned_count += want is None
    assert aligned_count >= len(_compositions(4))


def test_secondary_requires_flat_family():
    z, zbar = BRF.z(), BRF.zbar()
    phi = RationalFunctionMatrix([[BRF.zero(), z], [BRF.zero(), BRF.zero()]])
    psi = RationalFunctionMatrix([[BRF.zero(), BRF.zero()], [zbar, BRF.zero()]])
    crooked = ConnectionFamily(
        2, MatrixOneForm.from_dz(phi), MatrixOneForm.from_dz(E21), MatrixOneForm.from_dzbar(psi)
    )
    with pytest.raises(ValueError):
        secondary_higgs(crooked, [1, 1])


def test_secondary_on_catalog_families():
    # every flat catalog family with nilpotent phi and m >= 2:
    # pure (1,0) secondary field, cyclic-vanishing trace powers, exact reassembly
    cases = {
        "nilpotent_sl2": [1, 1],
        "nilpotent_sl3": [1, 1, 1],
        "nilpotent_sl2_parabolic": [1, 1],
        "toy_aligned_p": [1, 1],
    }
    cat = catalog()
    for name, blocks in cases.items():
        fam = cat[name]
        sd = secondary_higgs(fam, blocks)
        assert sd.m >= 2, name
        assert sd.Phi.dzbar_part.is_zero, name
        for k, diff in enumerate(k_differentials(sd.Phi, fam.n), start=2):
            if k % sd.m != 0:
                assert diff.is_zero, (name, k)
        assert is_m_cyclic(sd.Phi, sd.profile, sd.m), name
        assert undo_gauge(sd) == (fam.phi, fam.conn, fam.psi), name


def test_secondary_trace_pole_orders():
    # Tr(Phi^2) has poles of order at most 1, and only at declared punctures
    cat = catalog()
    for name, blocks in (("nilpotent_sl2_parabolic", [1, 1]), ("toy_aligned_p", [1, 1])):
        fam = cat[name]
        sd = secondary_higgs(fam, blocks)
        q = k_differentials(sd.Phi, 2)[0]
        for p in fam.punctures:
            softened = q * (BRF.z() - BRF.constant(p))
            # after one linear factor the denominator no longer vanishes at p
            assert softened.den.eval_exact(p, p.conjugate()) != GaussianRational(0), name


def test_secondary_with_nonzero_psi_and_residuals():
    # all three terms nonzero: the rescaling leaves a residual at exponent +1
    # collecting the upper connection piece and the psi term, and ungauging
    # reproduces the family exactly
    from nilwkb.catalog import nilpotent_sl2_full

    fam = nilpotent_sl2_full()
    sd = secondary_higgs(fam, [1, 1])
    assert sd.m == 2
    assert sd.Phi == MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    assert [e for e, _f in sd.residual_terms] == [Fraction(1)]
    residual = sd.residual_terms[0][1]
    assert residual.dzbar_part.entries[0][1] == BRF.one()  # connection piece
    assert residual.dzbar_part.entries[1][0] == BRF.one()  # psi piece
    assert undo_gauge(sd) == (fam.phi, fam.conn, fam.psi)


def test_merged_graded_pieces_keep_full_shape():
    # sparse residuals that miss the last row/column must keep the full rank
    phi = RationalFunctionMatrix.from_scalars([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    conn = RationalFunctionMatrix.from_scalars([[0, 5, 0], [0, 0, 0], [1, 0, 0]])
    fam = ConnectionFamily(
        3, MatrixOneForm.from_dz(phi), MatrixOneForm.from_dz(conn), MatrixOneForm.zero(3)
    )
    sd = secondary_higgs(fam, [1, 1, 1])
    assert sd.m == 3
    (exp, res), = sd.residual_terms
    assert exp == Fraction(1)
    assert res.n == 3
    assert res.dz_part.entries[0][1] == BRF.constant(5)
    assert undo_gauge(sd) == (fam.phi, fam.conn, fam.psi)


def test_toy_aligned_quadratic_differential_shape():
    # the flat family over the movable-puncture toy field yields exactly
    # Tr(Phi^2) = c / (z (z-1) (z-p)) with c = 2
    from nilwkb.toymodel import toy_quadratic_differential

    fam = catalog()["toy_aligned_p"]
    sd = secondary_higgs(fam, [1, 1])
    assert k_differentials(sd.Phi, 2)[0] == toy_quadratic_differential(2, 2)


def test_m_cyclic_examples():
    quarter = GaugeProfile.from_splitting((1, 1), (2,))
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    assert is_m_cyclic(Phi, quarter, 2)
    diag = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[1, 0], [0, -1]]))
    assert not is_m_cyclic(diag, quarter, 2)
    g3 = GaugeProfile((Fraction(-1), Fraction(0), Fraction(1)))
    Phi3 = MatrixOneForm.from_dz(
        RationalFunctionMatrix.from_scalars([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    )
    assert is_m_cyclic(Phi3, g3, 3)


def test_k_differentials_examples():
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    assert k_differentials(Phi, 2) == [BRF.constant(2)]
    from nilwkb.toymodel import build_toy_higgs

    phi_p = build_toy_higgs("phi_p", 2).one_form()
    assert k_differentials(phi_p, 2)[0].is_zero


def test_reality_obstruction_examples():
    one, z = BRF.one(), BRF.z()
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    Psi = MatrixOneForm.from_dzbar(RationalFunctionMatrix.from_scalars([[0, -1], [1, 0]]))
    assert reality_obstruction(Phi, Psi)

    Phi2 = MatrixOneForm.from_dz(RationalFunctionMatrix([[BRF.zero(), one], [z, BRF.zero()]]))
    Psi2 = MatrixOneForm.from_dzbar(
        RationalFunctionMatrix([[BRF.zero(), -BRF.zbar()], [one, BRF.zero()]])
    )
    assert reality_obstruction(Phi2, Psi2)

    assert not reality_obstruction(MatrixOneForm.zero(2), MatrixOneForm.zero(2))


def test_secondary_higgs_still_accepts_a_seed():
    # the seed is read by nothing; callers that pass it keep working
    assert secondary_higgs(nilpotent_sl2(), [1, 1], seed=5).to_json() == secondary_higgs(nilpotent_sl2(), [1, 1]).to_json()
