"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Every tolerance below is pinned; nothing is deferred to later
calibration.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from nilwkb.algebra import (
    BiRationalFunction as BRF,
    GaussianRational,
    RationalFunctionMatrix,
)
from nilwkb.catalog import catalog, nilpotent_sl2, nilpotent_sl3, regular_diagonal
from nilwkb.connection import ConnectionFamily, MatrixOneForm, check_flatness
from nilwkb.gauge import (
    GaugeProfile,
    gauge_conjugate,
    is_m_cyclic,
    k_differentials,
    secondary_higgs,
    undo_gauge,
)
from nilwkb.holonomy import (
    ParamPath,
    period,
    transport,
    transport_grid,
    wkb_fit,
)
from nilwkb.surface import (
    find_wkb_loop,
    flat_torus,
    lift_check,
    staircase,
    validate,
)
from nilwkb.toymodel import (
    ParabolicWeights,
    build_toy_higgs,
    check_weight_inequalities,
    nilpotent_cone_graph,
    pdeg,
    residues,
)

SEG = ParamPath.segment(0, 1)


def _report(number: int, message: str) -> None:
    print(f"[criterion {number}] PASS  {message}")


def test_criterion_1_exact_catalog_flatness():
    t0 = time.perf_counter()
    cat = catalog()
    required = {
        "trivial",
        "uniformization_rank2",
        "uniformization_rank3",
        "nilpotent_sl2",
        "nilpotent_sl3",
        "toy_phi_p",
        "toy_phi_0",
        "toy_phi_1",
        "toy_phi_inf",
    }
    assert required <= set(cat)
    for name, family in cat.items():
        report = check_flatness(family)
        assert report.is_flat, name
        for residual in report.residuals.values():
            assert residual.is_zero, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"flatness sweep took {elapsed:.3f}s"
    _report(1, f"{len(cat)} catalog families exactly flat in {elapsed:.3f}s")


def test_criterion_2_secondary_field_at_desk_scale():
    t0 = time.perf_counter()
    family = nilpotent_sl2()
    data = secondary_higgs(family, [1, 1])
    assert data.m == 2
    expected_Phi = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    assert data.Phi == expected_Phi
    assert k_differentials(data.Phi, 2)[0] == BRF.constant(2)
    assert undo_gauge(data) == (family.phi, family.conn, family.psi)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, f"m=2, Phi=((0,1),(1,0))dz, Tr Phi^2 = 2, exact ungauging in {elapsed:.3f}s")


def test_criterion_3_sqrt_rate_numerics():
    t0 = time.perf_counter()
    family = nilpotent_sl2()
    eps = np.geomspace(0.25, 5e-4, 12)
    samples = transport_grid(family, SEG, eps, rel_tol=1e-11)
    for s in samples:
        exact = 2 * math.cosh(s.epsilon ** -0.5)
        assert abs(s.trace - exact) / exact <= 1e-6, s.epsilon
    fit = wkb_fit(samples, [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    assert fit.exponent_p == Fraction(1, 2)
    ranked = dict(fit.candidates)
    assert ranked[Fraction(1)] / ranked[Fraction(1, 2)] >= 1e3
    assert ranked[Fraction(1, 3)] / ranked[Fraction(1, 2)] >= 1e3
    assert abs(fit.Z - 1) <= 1e-4
    Z_period = period(secondary_higgs(family, [1, 1]).Phi, SEG)
    assert abs(fit.Z - Z_period) <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        3,
        f"traces match 2cosh(eps^-1/2) to 1e-6, p=1/2 wins by "
        f"{min(ranked[Fraction(1)], ranked[Fraction(1, 3)]) / ranked[Fraction(1, 2)]:.0f}x, "
        f"|Z-1| = {abs(fit.Z - 1):.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_regular_rate_baseline():
    t0 = time.perf_counter()
    family = regular_diagonal()
    circle = ParamPath.circle()
    eps = np.geomspace(0.5, 0.05, 12)
    samples = transport_grid(family, circle, eps, rel_tol=1e-11)
    for s in samples:
        exact = 2 * math.cosh(1 / s.epsilon)
        assert abs(s.trace - exact) / exact <= 1e-8, s.epsilon
    fit = wkb_fit(samples, [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    assert fit.exponent_p == Fraction(1)
    assert abs(fit.Z - 1) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(4, f"2cosh(1/eps) to 1e-8, p=1, |Z-1| = {abs(fit.Z - 1):.2e}, {elapsed:.2f}s")


def test_criterion_5_higher_rank_structure():
    family = nilpotent_sl3()
    data = secondary_higgs(family, [1, 1, 1])
    assert data.m == 3
    diffs = k_differentials(data.Phi, 3)
    assert diffs[0].is_zero
    assert diffs[1] == BRF.constant(3)
    assert is_m_cyclic(data.Phi, data.profile, 3)
    eps = np.geomspace(0.1, 1e-3, 32)
    samples = transport_grid(family, SEG, eps, rel_tol=1e-10)
    fit = wkb_fit(samples)
    deviation = abs(fit.free_fit_exponent - 2 / 3) / (2 / 3)
    assert deviation <= 0.05
    _report(
        5,
        f"m=3, TrPhi^2=0, TrPhi^3=3, cyclic; free-fit exponent "
        f"{fit.free_fit_exponent:.4f} within {deviation:.2%} of 2/3",
    )


def test_criterion_6_genus_table():
    t0 = time.perf_counter()
    for n in range(1, 6):
        assert validate(staircase(n, "left")).genus == n
        assert validate(staircase(n, "right")).genus == n
    six_faces = validate(staircase(3, "left"))
    assert six_faces.F == 6 and six_faces.chi == -4 and six_faces.genus == 3
    for n in range(1, 6):
        for style in ("left", "right"):
            rep = validate(staircase(n, style, half=True))
            assert rep.genus == n, (n, style)
            assert rep.simple_pole_count() == 2, (n, style)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(6, f"genus tables exact for n=1..5, both styles, in {elapsed:.3f}s")


def test_criterion_7_wkb_loops_and_periods():
    torus = flat_torus()
    horizontal = find_wkb_loop(torus, (0, 0.5 + 0.3j), 0.0, convention="real-increasing")
    assert abs(horizontal.period_Z - 1.0) <= 1e-9
    theta = math.atan2(1, 2)
    slanted = find_wkb_loop(torus, (0, 0.21 + 0.13j), theta)
    assert abs(abs(slanted.period_Z) - math.sqrt(5)) <= 1e-6
    assert cmath.phase(slanted.period_Z) == pytest.approx(theta, abs=1e-9)

    half = staircase(2, "left", half=True)
    count = 5
    px, py = (count - 1) // 2, count // 2
    loop = find_wkb_loop(half, (count - 1, complex(px + 0.5, py + 0.5)), math.pi / 2)
    assert loop.is_wkb and loop.margin > 0
    assert abs(loop.period_Z) > 0
    assert lift_check(half, loop)
    _report(7, "torus periods 1 and sqrt(5); vertical loop on the half staircase lifts")


def test_criterion_8_toy_model():
    t0 = time.perf_counter()
    weights = ParabolicWeights.parse("1/4,1/4,1/4,1/8")
    report = check_weight_inequalities(weights)
    assert report.all_pass

    for which in ("phi_p", "phi_0", "phi_1", "phi_inf"):
        field = build_toy_higgs(which, 2)  # construction verifies all invariants
        res = residues(field)
        for site in field.vanishing:
            assert all(not x for row in res[site] for x in row)

    # frozen hand-computed parabolic degrees for rho = (1/4, 1/4, 1/4, 1/8)
    expected = {
        (0, (False, False, False, False)): Fraction(-7, 8),
        (0, (True, True, True, True)): Fraction(7, 8),
        (0, (True, False, False, False)): Fraction(-3, 8),
        (0, (False, False, False, True)): Fraction(-5, 8),
        (0, (True, False, False, True)): Fraction(-1, 8),
        (0, (False, True, True, False)): Fraction(1, 8),
        (-1, (True, True, True, False)): Fraction(-3, 8),
        (-1, (True, True, True, True)): Fraction(-1, 8),
    }
    for (deg, incidence), value in expected.items():
        assert pdeg(deg, incidence, weights) == value, (deg, incidence)

    graph = nilpotent_cone_graph(2, weights)
    assert len(graph["nodes"]) == 9 and len(graph["edges"]) == 8
    degree = {}
    for a, b in graph["edges"]:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert sorted(degree.values()) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, f"weights, four fields, pdeg table, and the 9/8 star graph in {elapsed:.3f}s")


def test_criterion_9_invariant_suites():
    # gauge round trip, exact, 20 instances
    rng = random.Random(2301)
    for _ in range(20):
        n = rng.choice([2, 3])
        grid = [
            [GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        form = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars(grid))
        exps = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n - 1)]
        exps.append(-sum(exps, Fraction(0)))
        profile = GaugeProfile(tuple(exps))
        back = gauge_conjugate(gauge_conjugate(form, profile), profile.negated())
        assert back == {Fraction(0): form}

    # transport multiplicativity and unimodularity, 20 instances
    for trial in range(20):
        a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        fam = ConnectionFamily(
            2,
            MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, rng.randint(1, 3)], [0, 0]])),
            MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[a, b], [c, -a]])),
            MatrixOneForm.zero(2),
        )
        eps = rng.uniform(0.3, 1.0)
        mid = rng.uniform(0.3, 0.7)
        full = transport(fam, ParamPath.segment(0, 1), eps)
        first = transport(fam, ParamPath.segment(0, mid), eps)
        second = transport(fam, ParamPath.segment(mid, 1), eps)
        err = np.linalg.norm(full.holonomy - second.holonomy @ first.holonomy)
        assert err <= 10 * max(full.est_error, first.est_error, second.est_error), trial
        assert abs(np.linalg.det(full.holonomy) - 1) <= 100 * full.est_error, trial

    # period antisymmetry to 1e-10, 20 instances
    for _ in range(20):
        Phi = MatrixOneForm.from_dz(
            RationalFunctionMatrix.from_scalars([[0, rng.randint(1, 4)], [rng.randint(1, 4), 0]])
        )
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        gamma = ParamPath.segment(z0, z0 + complex(rng.uniform(0.2, 1.5), rng.uniform(-0.4, 0.4)))
        assert abs(period(Phi, gamma) + period(Phi, gamma.reversed())) <= 1e-10

    # Gauss-Bonnet, exact, 20 randomized surfaces
    for _ in range(20):
        n = rng.randint(1, 5)
        rep = validate(staircase(n, rng.choice(["left", "right"]), half=rng.choice([True, False])))
        assert sum(rep.orders()) == 4 * rep.genus - 4

    _report(9, "gauge round trip, transport bounds, period antisymmetry, Gauss-Bonnet: 20+ instances each")
