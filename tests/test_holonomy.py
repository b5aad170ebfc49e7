import cmath
import copy
import math
import pickle
import random
import warnings
from dataclasses import astuple
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from nilwkb.algebra import GaussianRational, RationalFunctionMatrix, BiRationalFunction as BRF
from nilwkb.catalog import (
    catalog,
    nilpotent_sl2,
    nilpotent_sl2_full,
    nilpotent_sl2_parabolic,
    nilpotent_sl3,
    regular_diagonal,
)
from nilwkb import holonomy
from nilwkb.connection import ConnectionFamily, MatrixOneForm
from nilwkb.errors import (
    BranchPointOnPath,
    ClearanceViolated,
    HolonomyOverflow,
    InsufficientSamples,
    NonDecayingSequence,
    NonFiniteSample,
    StiffnessBudgetExceeded,
    TieAtStart,
)
from nilwkb.gauge import jordan_type
from nilwkb.holonomy import (
    ArcSegment,
    LineSegment,
    EigenvalueTrack,
    HolonomySample,
    ParamPath,
    Period,
    _free_fit_exponent,
    _pulled_back,
    _term_matrices,
    _term_weights,
    is_wkb_curve,
    period,
    pullback,
    transport,
    transport_grid,
    wkb_fit,
)

SEG = ParamPath.segment(0, 1)


def _const_family(phi_grid, conn_grid=None, punctures=()):
    n = len(phi_grid)
    conn = (
        MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars(conn_grid))
        if conn_grid is not None
        else MatrixOneForm.zero(n)
    )
    return ConnectionFamily(
        n,
        MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars(phi_grid)),
        conn,
        MatrixOneForm.zero(n),
        punctures=punctures,
    )


# -- paths ----------------------------------------------------------------------


def test_path_geometry():
    circle = ParamPath.circle()
    assert circle.point(0.25) == pytest.approx(1j)
    assert circle.velocity(0.0) == pytest.approx(2j * math.pi)
    seg = ParamPath.segment(0, 1 + 1j)
    assert seg.point(0.5) == pytest.approx(0.5 + 0.5j)
    with pytest.raises(ValueError):
        ParamPath.from_points([0, 1, 1])  # zero-length second segment collapses


@pytest.mark.parametrize(
    "build",
    [
        lambda: ParamPath.segment(0, complex(math.nan, 0)),
        lambda: ParamPath.segment(complex(0, math.inf), 1),
        lambda: ParamPath.from_points([0, 1, complex(1, math.nan)]),
        lambda: ParamPath.circle(complex(math.inf, 0)),
        lambda: ParamPath.circle(0j, math.nan),
        lambda: ParamPath.circle(0j, math.inf),
        lambda: ParamPath.from_json({"segments": [{"type": "line", "from": [0, 0], "to": [math.nan, 1]}]}),
        lambda: ParamPath.from_json({"segments": [{"type": "arc", "center": [0, 0], "radius": math.inf, "angles": [0, 1]}]}),
    ],
)
def test_path_rejects_non_finite_coordinates(build):
    with pytest.raises(ValueError, match="non-finite"):
        build()


def test_path_json_round_trip():
    import json

    path = ParamPath.from_points([0, 1, 1 + 1j], closed=True)
    blob = json.dumps(path.to_json(), sort_keys=True)
    back = ParamPath.from_json(json.loads(blob))
    assert json.dumps(back.to_json(), sort_keys=True) == blob


# radius 1 about -exp(10.25i), angles 10 to 10.5: the midpoint is the puncture 0
ARC_THROUGH_ZERO = ParamPath([ArcSegment(-cmath.exp(10.25j), 1.0, 10.0, 10.5)])


def test_arc_through_a_puncture_violates_clearance():
    assert abs(ARC_THROUGH_ZERO.point(0.5)) < 1e-15
    with pytest.raises(ClearanceViolated):
        ARC_THROUGH_ZERO.check_clearance(nilpotent_sl2_parabolic().punctures)


def _arc_brute_distance(arc: ArcSegment, q: complex, points: int = 20001) -> float:
    """min |q - arc(s)| over an even grid of points in s, refined by as many
    points over the two cells beside the grid's best one."""
    span = arc.angle1 - arc.angle0
    on_arc = lambda s: arc.center + arc.radius * np.exp(1j * (arc.angle0 + s * span))
    s = np.linspace(0.0, 1.0, points)
    k = int(np.argmin(np.abs(q - on_arc(s))))
    fine = np.linspace(s[max(k - 1, 0)], s[min(k + 1, points - 1)], points)
    return float(np.abs(q - on_arc(fine)).min())


def test_arc_distance_matches_brute_force():
    # angles over several turns, spans of either sign up to past a full turn;
    # a third of the queries lie near the circle, where the distance is radial
    rng = random.Random(1901)
    for _ in range(300):
        center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        radius = rng.uniform(0.1, 3.0)
        angle0 = rng.uniform(-4 * math.pi, 4 * math.pi)
        arc = ArcSegment(center, radius, angle0, angle0 + rng.choice((-1, 1)) * rng.uniform(0.01, 7.0))
        if rng.random() < 1 / 3:
            q = center + radius * rng.uniform(0.9, 1.1) * cmath.exp(1j * rng.uniform(-10, 10))
        else:
            q = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert arc.distance_to(q) == pytest.approx(_arc_brute_distance(arc, q), abs=1e-9), (arc, q)


# -- pullback ----------------------------------------------------------------------


def test_pullback_examples():
    trivial = catalog()["trivial"]
    M = pullback(trivial, SEG, 0.3)
    assert np.allclose(M(0.4), 0)

    # diagonal dz/z around the unit circle: constant eps^-1 2 pi i diag(lam, -lam)
    lam = GaussianRational(Fraction(1, 5))
    z = BRF.z()
    phi = RationalFunctionMatrix(
        [[BRF.constant(lam) / z, BRF.zero()], [BRF.zero(), BRF.constant(-lam) / z]]
    )
    fam = ConnectionFamily(
        2, MatrixOneForm.from_dz(phi), MatrixOneForm.zero(2), MatrixOneForm.zero(2),
        punctures=[GaussianRational(0)],
    )
    M = pullback(fam, ParamPath.circle(), 0.5)
    expected = (1 / 0.5) * 2j * math.pi * np.diag([0.2, -0.2])
    assert np.allclose(M(0.0), expected)
    assert np.allclose(M(0.37), expected)

    with pytest.raises(ClearanceViolated):
        pullback(fam, ParamPath.segment(-1, 1), 0.5)

    # all three terms, dzbar parts included, on a non-real segment:
    # eps^-1 E12 v + (E21 v + E12 conj(v)) + eps E21 conj(v)
    v, eps = 0.9 + 0.6j, 0.3
    E12, E21 = np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])
    M = pullback(nilpotent_sl2_full(), ParamPath.segment(0.2 + 0.1j, 1.1 + 0.7j), eps)
    expected = E12 * v / eps + (E21 * v + E12 * v.conjugate()) + eps * E21 * v.conjugate()
    assert np.allclose(M(0.0), expected)
    assert np.allclose(M(0.6), expected)


def test_constant_segment_pulls_back_once_bit_for_bit():
    # a z-independent family on a line: each segment's term matrices are one
    # read-only (n, K n) array, the terms side by side, equal bit for bit to
    # the entries evaluated one by one
    fam = nilpotent_sl2_full()
    gamma = ParamPath.from_points([0.2 + 0.1j, 1.1 + 0.7j, 0.4 + 1.3j])
    forms, _weights = _term_weights(fam, [0.3])
    pieces = _pulled_back(forms, gamma, _term_matrices(forms, 2))
    for k, (seg, P) in enumerate(zip(gamma.segments, pieces)):
        assert isinstance(P, np.ndarray) and not P.flags.writeable
        z = seg.point(0.0)
        v = seg.velocity(0.0) / (gamma.breaks[k + 1] - gamma.breaks[k])
        expected = np.zeros((2, 2 * len(forms)), dtype=complex)
        for f, form in enumerate(forms):
            for i in range(2):
                for j in range(2):
                    acc = 0j
                    if form.dz_part.entries[i][j]:
                        acc += form.dz_part.entries[i][j].evaluate(z) * v
                    if form.dzbar_part.entries[i][j]:
                        acc += form.dzbar_part.entries[i][j].evaluate(z) * v.conjugate()
                    expected[i, 2 * f + j] = acc
        assert np.array_equal(P, expected)
    # an arc and a z-dependent entry keep evaluating per t
    assert all(callable(P) for P in _pulled_back(forms, ParamPath.circle(0.3 + 0.2j, 0.7), _term_matrices(forms, 2)))
    diag_forms, _w = _term_weights(regular_diagonal(), [0.3])
    assert all(callable(P) for P in _pulled_back(diag_forms, SEG, _term_matrices(diag_forms, 2)))


def _counting_closures(monkeypatch):
    calls = [0]
    compiled = BRF.compiled

    def counting(self):
        fn = compiled(self)

        def counted(z):
            calls[0] += 1
            return fn(z)

        return counted

    monkeypatch.setattr(BRF, "compiled", counting)
    return calls


def _counting(monkeypatch, owner, name):
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_constant_segments_evaluate_entries_once_per_segment(monkeypatch):
    # cost guard: a constant family on a polyline evaluates its two entries
    # once per segment and crosses each segment by its exponential, no steps
    calls = _counting_closures(monkeypatch)
    poly = ParamPath.from_points([0, 1, 1 + 1j, 0.2 + 1.5j])
    s = transport(nilpotent_sl2(), poly, 0.3)
    assert 0 < calls[0] <= 2 * len(poly.segments)
    assert s.steps == 0
    # the shortcut must not widen: a z-dependent field on the circle still
    # evaluates per right-hand side
    calls[0] = 0
    s = transport(regular_diagonal(), ParamPath.circle(), 0.3)
    assert calls[0] >= s.rhs_evals


# -- transport --------------------------------------------------------------------


@pytest.mark.parametrize("build", [nilpotent_sl2, nilpotent_sl2_full, regular_diagonal, nilpotent_sl2_parabolic])
def test_polyline_transport_solves_each_segment_on_its_own(build):
    # each solve reads only its own segment, also in the last stage of a step
    # that ends on a corner, so the polyline costs about what its three
    # segments cost alone (regular_diagonal, z-dependent: 26 steps against 28;
    # reading the next segment there costs 134); constant families take none
    pts = [0.5, 1.5, 1.5 + 1j, 0.7 + 1.5j]
    fam, eps = build(), 0.3
    whole = transport(fam, ParamPath.from_points(pts), eps)
    parts = [transport(fam, ParamPath.segment(a, b), eps) for a, b in zip(pts, pts[1:])]
    assert whole.steps <= 1.1 * sum(p.steps for p in parts)
    product = parts[2].holonomy @ parts[1].holonomy @ parts[0].holonomy
    assert np.linalg.norm(whole.holonomy - product) <= whole.est_error + sum(p.est_error for p in parts)


def test_coarse_run_only_where_dop853_runs(monkeypatch):
    # cost guard: exponentials ignore the tolerance, so a path of constant
    # segments is carried once; a DOP853 segment needs the coarse run too
    runs = _counting(monkeypatch, holonomy, "_integrate")
    transport_grid(nilpotent_sl2(), ParamPath.from_points([0, 1, 1 + 1j, 0.2 + 1.5j]), [0.3, 0.1])
    assert runs[0] == 1
    runs[0] = 0
    transport_grid(regular_diagonal(), ParamPath.circle(), [0.3, 0.1])
    assert runs[0] == 2


def test_transport_trivial():
    s = transport(catalog()["trivial"], SEG, 0.7)
    assert np.allclose(s.holonomy, np.eye(2))
    assert s.trace == pytest.approx(2.0)


def test_transport_regular_diagonal_circle():
    s = transport(regular_diagonal(), ParamPath.circle(), 0.1, rel_tol=1e-11)
    exact = 2 * math.cosh(10)
    assert abs(s.trace - exact) / exact < 1e-8


def test_transport_constant_stiff_segment():
    s = transport(nilpotent_sl2(), SEG, 0.04, rel_tol=1e-11)
    exact = 2 * math.cosh(5)
    assert abs(s.trace - exact) / exact < 1e-9


def _check_multiplicativity(fam, eps, mid):
    # criterion 9: transport over [0, 1] is the product over [0, mid] and
    # [mid, 1], and unimodular, each within its est_error
    full = transport(fam, ParamPath.segment(0, 1), eps)
    first = transport(fam, ParamPath.segment(0, mid), eps)
    second = transport(fam, ParamPath.segment(mid, 1), eps)
    err = np.linalg.norm(full.holonomy - second.holonomy @ first.holonomy)
    assert err <= 10 * max(full.est_error, first.est_error, second.est_error)
    det = np.linalg.det(full.holonomy)
    assert abs(det - 1) <= 100 * full.est_error


def test_transport_multiplicativity_and_unimodularity():
    # criterion: >= 20 randomized moderate instances, fixed seed
    rng = random.Random(31)
    for trial in range(20):
        grid_phi = [[0, rng.randint(1, 3)], [0, 0]]
        a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        fam = _const_family(grid_phi, [[a, b], [c, -a]])  # traceless connection
        eps = rng.uniform(0.3, 1.0)
        mid = rng.uniform(0.3, 0.7)
        _check_multiplicativity(fam, eps, mid)


@pytest.mark.parametrize(
    "p, conn, eps, mid",
    [
        (2, [[2, 0], [-2, -2]], 0.9869638059896788, 0.5975577152715582),
        (1, [[-1, -2], [2, 1]], 0.6860697283447565, 0.5320202094751889),
        (1, [[2, -1], [-2, -2]], 0.3309315282882764, 0.6876375564685018),
        (3, [[-2, -1], [-2, 2]], 0.9924124653802626, 0.6812144969982739),
    ],
)
def test_multiplicativity_where_dop853_under_reported(p, conn, eps, mid):
    # criterion-9 inputs of the benchmark's multiplicativity checks (seeds 5, 7,
    # 23, 24) on which two DOP853 runs took the same steps on a constant
    # segment, so their distance missed the shared truncation error
    _check_multiplicativity(_const_family([[0, p], [0, 0]], conn), eps, mid)


def _random_constant_family(rng, n):
    # rank 2: criterion-9 style, nilpotent Higgs field and a traceless
    # connection; rank 3: both traceless
    if n == 2:
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        return [[0, rng.randint(1, 3)], [0, 0]], [[a, b], [c, -a]]
    phi, conn = ([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)] for _ in range(2))
    phi[2][2] = -phi[0][0] - phi[1][1]
    conn[2][2] = -conn[0][0] - conn[1][1]
    return phi, conn


@pytest.mark.parametrize("n, count", [(2, 200), (3, 100)])
def test_constant_segment_est_error_bounds_mpmath_expm(n, count):
    # oracle: the holonomy of a constant dz-family is the ordered product of
    # expm(-(phi / eps + conn) dz) over the segments, here at 50 digits
    import mpmath as mp

    rng = random.Random(100 + n)
    with mp.workdps(50):
        for trial in range(count):
            phi, conn = _random_constant_family(rng, n)
            eps = rng.uniform(0.3, 1.0)
            pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
            fam = _const_family(phi, conn)
            M = mp.matrix(phi) / mp.mpf(eps) + mp.matrix(conn)
            exact = mp.eye(n)
            for k, (a, b) in enumerate(zip(pts, pts[1:])):
                exact = mp.expm(-M * (mp.mpc(b) - mp.mpc(a))) * exact
                if k in (0, 2):
                    s = transport(fam, ParamPath.from_points(pts[: k + 2]), eps)
                    err = mp.mnorm(mp.matrix(s.holonomy.tolist()) - exact, "f")
                    assert s.steps == 0 and err <= s.est_error, (trial, k)


@pytest.mark.parametrize("n, count", [(2, 60), (3, 30)])
def test_line_arc_line_est_error_bounds_mpmath_expm(n, count):
    # a constant dz-family on a line, an arc, a line: the arc is solved by
    # DOP853 for its propagator, which must carry the first exponential's
    # roundoff bound; the holonomy of the whole path is expm(-M (end - start))
    import mpmath as mp

    rng = random.Random(200 + n)
    with mp.workdps(50):
        for trial in range(count):
            phi, conn = _random_constant_family(rng, n)
            eps, a = rng.uniform(0.1, 1.0), rng.uniform(0.5, 3.0)
            end = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            arc = ArcSegment(0j, 1.0, 0.0, a)
            gamma = ParamPath([LineSegment(-1 + 0j, 1 + 0j), arc, LineSegment(cmath.exp(1j * a), end)])
            s = transport(_const_family(phi, conn), gamma, eps)
            exact = mp.expm(-(mp.matrix(phi) / mp.mpf(eps) + mp.matrix(conn)) * (mp.mpc(end) + 1))
            err = mp.mnorm(mp.matrix(s.holonomy.tolist()) - exact, "f")
            assert s.steps > 0 and err <= s.est_error, trial


def test_transport_trace_constant_gauge_invariant():
    rng = random.Random(47)
    fam = nilpotent_sl2()
    base = transport(fam, SEG, 0.5)
    for _ in range(5):
        a, b, c = rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2)
        g = RationalFunctionMatrix.from_scalars([[a, b], [0, 1]])
        det = GaussianRational(a)
        g_inv = RationalFunctionMatrix.from_scalars(
            [[GaussianRational(1) / det, GaussianRational(-b) / det], [0, 1]]
        )
        conj = ConnectionFamily(
            2,
            fam.phi.conjugate_by(g_inv, g),
            fam.conn.conjugate_by(g_inv, g),
            fam.psi.conjugate_by(g_inv, g),
        )
        s = transport(conj, SEG, 0.5)
        assert abs(s.trace - base.trace) <= 10 * max(s.est_error, base.est_error)
        _ = c


def test_transport_grid_ordering():
    eps = [0.5, 0.25, 0.125]
    out = transport_grid(nilpotent_sl2(), SEG, eps)
    assert [s.epsilon for s in out] == eps
    for s, e in zip(out, eps):
        single = transport(nilpotent_sl2(), SEG, e)
        assert np.linalg.norm(s.holonomy - single.holonomy) <= s.est_error + single.est_error


def test_transport_grid_counters_shared():
    # DOP853's counters, shared by the grid; constant segments take no steps
    out = transport_grid(regular_diagonal(), ParamPath.circle(), [0.5, 0.2])
    assert out[0].steps == out[1].steps > 0
    assert out[0].rhs_evals == out[1].rhs_evals >= out[0].steps
    assert all(s.steps == s.rhs_evals == 0 for s in transport_grid(nilpotent_sl2(), SEG, [0.5, 0.01]))
    assert transport_grid(nilpotent_sl2(), SEG, []) == []


def _solved_alone(family, gamma, eps, rtol):
    # the member on its own: plain DOP853 on S' = -M(t) S, S(0) = 1, M from pullback
    n = family.n
    M = pullback(family, gamma, eps)
    sol = solve_ivp(
        lambda t, s: -(M(t) @ s.reshape(n, n)).reshape(-1),
        (0.0, 1.0), np.eye(n, dtype=complex).reshape(-1), method="DOP853", rtol=rtol, atol=rtol * 1e-3,
    )
    return sol.y[:, -1].reshape(n, n)


@pytest.mark.parametrize("size", [1, 5])
@pytest.mark.parametrize("build", [regular_diagonal, nilpotent_sl2_full, nilpotent_sl2_parabolic, nilpotent_sl3])
def test_stacked_grid_matches_each_member_solved_alone(build, size):
    # K = 1, 3, 2, 2 terms at ranks 2, 2, 2, 3: every member of the grid,
    # carried as one (n, B n) state, agrees with its own solve, within the
    # sum of both sides' coarse/fine differences (the grid's is its est_error);
    # a stacked product that mixes up members or terms does not
    rng = random.Random(2302)
    fam = build()
    center = 1.5 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    angle0 = rng.uniform(0, 2 * math.pi)
    arc = ParamPath([ArcSegment(center, rng.uniform(0.3, 0.8), angle0, angle0 + rng.uniform(1.0, 4.0))])
    eps = sorted((rng.uniform(0.1, 0.6) for _ in range(size)), reverse=True)
    for s in transport_grid(fam, arc, eps):
        assert s.steps > 0
        coarse, fine = (_solved_alone(fam, arc, s.epsilon, rtol) for rtol in (1e-10, 1e-12))
        assert np.linalg.norm(s.holonomy - fine) <= s.est_error + np.linalg.norm(coarse - fine), s.epsilon


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_transport_rejects_bad_epsilon(bad):
    with pytest.raises(ValueError):
        transport(nilpotent_sl2(), SEG, bad)
    with pytest.raises(ValueError):
        transport_grid(nilpotent_sl2(), SEG, [0.5, bad, 0.1])


@pytest.mark.parametrize(
    "family, path, eps, closed_form",
    [
        (nilpotent_sl2, SEG, np.geomspace(0.25, 5e-4, 12), lambda e: 2 * math.cosh(e**-0.5)),
        (regular_diagonal, ParamPath.circle(), np.geomspace(0.5, 0.05, 12), lambda e: 2 * math.cosh(1 / e)),
    ],
)
def test_est_error_bounds_every_grid_member(family, path, eps, closed_form):
    # the acceptance grids of criteria 3 and 4: each member's est_error bounds
    # its actual trace error, also for members far less stiff than the stiffest
    for s in transport_grid(family(), path, eps, rel_tol=1e-11):
        assert abs(s.trace - closed_form(s.epsilon)) <= s.est_error, s.epsilon


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-6, 1e-2])
@pytest.mark.parametrize(
    "family, path, eps, closed_form",
    [
        # nilpotent_sl2 has constant coefficients, so a closed loop has the identity holonomy
        (nilpotent_sl2, ParamPath.circle(0.3, 0.5), [0.5, 0.2, 0.05, 0.01], lambda e: 2.0),
        (regular_diagonal, ParamPath.circle(), np.geomspace(0.5, 0.05, 12), lambda e: 2 * math.cosh(1 / e)),
    ],
)
def test_est_error_bounds_the_trace_error_at_every_accepted_rel_tol(rel_tol, family, path, eps, closed_form):
    for s in transport_grid(family(), path, eps, rel_tol=rel_tol):
        assert abs(s.trace - closed_form(s.epsilon)) <= s.est_error, (rel_tol, s.epsilon)


# -- spectral tracking -----------------------------------------------------------------


def test_est_error_finite_past_norm_overflow():
    # entries near 1e217: the plain Frobenius norm overflows, the rescaled one does not
    s = transport_grid(regular_diagonal(), ParamPath.circle(), [2e-3], rel_tol=1e-8)[0]
    exact = 2 * math.cosh(1 / 2e-3)
    assert math.isfinite(s.est_error)
    assert abs(s.trace - exact) <= s.est_error < 1e-4 * exact


def test_constant_segment_est_error_finite_past_norm_overflow():
    # the same on a constant segment: entries near 1e219, where the
    # exponential's roundoff bound takes the rescaled norm
    s = transport(nilpotent_sl2(), SEG, 4e-6)
    exact = 2 * math.cosh(500)
    assert math.isfinite(s.est_error)
    assert abs(s.trace - exact) <= s.est_error


def test_non_finite_holonomy_raises_overflow():
    # the trace 2 cosh(eps^-1/2) at eps 1e-7 is past a double
    with pytest.raises(HolonomyOverflow):
        transport(nilpotent_sl2(), SEG, 1e-7)


@pytest.mark.parametrize("eps", [1.42e-3, 1e-3])
def test_overflowing_dop853_state_raises_overflow(eps):
    # the circle transport of regular_diagonal (trace 2 cosh(1/eps)) reaches
    # states near 1e303, where DOP853's arithmetic overflows a double before
    # t = 1: an overflow, not a stiffness failure, and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HolonomyOverflow, match="segment 0"):
            transport_grid(regular_diagonal(), ParamPath.circle(), [0.5, eps], rel_tol=1e-11)


def test_failed_dop853_step_raises_stiffness(monkeypatch):
    class Failed:
        status, message = -1, "Required step size is less than spacing between numbers."

    monkeypatch.setattr("nilwkb.holonomy.solve_ivp", lambda *args, **kwargs: Failed())
    with pytest.raises(StiffnessBudgetExceeded):
        transport(regular_diagonal(), ParamPath.circle(), 0.3)


@pytest.mark.parametrize("order, error", [(("overflow", "rhs"), StiffnessBudgetExceeded), (("rhs", "overflow"), HolonomyOverflow)])
def test_failed_dop853_solve_is_an_overflow_only_after_its_last_rhs_call(monkeypatch, order, error):
    # an overflow in a step DOP853 went on from does not make a later failure an overflow
    def failing_solve(fun, t_span, y0, **kwargs):
        for op in order:
            fun(t_span[0], y0) if op == "rhs" else np.array([1e300]) * 1e10
        return SimpleNamespace(status=-1, message="step failed", t=np.array([t_span[0]]), y=y0[:, None])

    monkeypatch.setattr("nilwkb.holonomy.solve_ivp", failing_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            transport(regular_diagonal(), ParamPath.circle(), 0.3)


def test_overflow_in_a_finished_dop853_solve_changes_nothing(monkeypatch):
    from nilwkb import holonomy

    before = transport(regular_diagonal(), ParamPath.circle(), 0.3)
    solve = holonomy.solve_ivp
    monkeypatch.setattr("nilwkb.holonomy.solve_ivp", lambda *args, **kwargs: (np.array([1e300]) * 1e10, solve(*args, **kwargs))[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        after = transport(regular_diagonal(), ParamPath.circle(), 0.3)
    assert after.holonomy.tobytes() == before.holonomy.tobytes() and after.est_error == before.est_error


def test_track_examples():
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    track = EigenvalueTrack(Phi, SEG)
    assert track(0.0) == pytest.approx(1.0)
    assert track(0.77) == pytest.approx(1.0)

    diag = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[1, 0], [0, -1]]))
    track2 = EigenvalueTrack(diag, SEG)
    assert track2(0.5) == pytest.approx(1.0)

    z = BRF.z()
    half = BRF.constant(Fraction(1, 2))
    vanishing = MatrixOneForm.from_dz(
        RationalFunctionMatrix([[z - half, BRF.zero()], [BRF.zero(), -(z - half)]])
    )
    with pytest.raises(BranchPointOnPath):
        EigenvalueTrack(vanishing, SEG)

    with pytest.raises(TieAtStart):
        EigenvalueTrack(Phi, ParamPath.segment(0, 1j))


def test_rank3_track_refuses_colliding_eigenvalues():
    # diag(z - 1/2, 1/2 - z, 0): all three eigenvalues meet at z = 1/2
    z, half, zero = BRF.z(), BRF.constant(Fraction(1, 2)), BRF.zero()
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix([[z - half, zero, zero], [zero, half - z, zero], [zero, zero, zero]]))
    with pytest.raises(BranchPointOnPath):
        EigenvalueTrack(Phi, SEG)


@pytest.mark.parametrize("n", [2, 3])
def test_track_and_jordan_type_refuse_a_dzbar_part(n):
    # at rank 2 the track used to read only the dz part of such a field
    diag = [[(1 if i == j == 0 else -1 if i == j == n - 1 else 0) for j in range(n)] for i in range(n)]
    corner = [[int(i == 0 and j == n - 1) for j in range(n)] for i in range(n)]
    Phi = MatrixOneForm(RationalFunctionMatrix.from_scalars(diag), RationalFunctionMatrix.from_scalars(corner))
    with pytest.raises(ValueError, match=r"\(1,0\)-form"):
        EigenvalueTrack(Phi, SEG)
    with pytest.raises(ValueError, match=r"\(1,0\)-form"):
        jordan_type(Phi)


def test_track_continuous_branch_on_circle():
    # dz/z around the circle: mu is constant despite the winding coefficient
    fam = regular_diagonal()
    track = EigenvalueTrack(fam.phi, ParamPath.circle())
    values = [track(t) for t in np.linspace(0, 1, 17)]
    assert max(abs(v - values[0]) for v in values) < 1e-9


_ARC = ParamPath([ArcSegment(0.3 + 0.2j, 0.7, 0.1, 2.0)])
_POLY = ParamPath.from_points([0.2, 0.9 + 0.1j, 1.4 + 0.6j, 1.2 + 1.4j])


def _phi(grid):
    return MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars(grid))


def _zpow(k):
    out = BRF.one()
    for _ in range(k):
        out = out * BRF.z()
    return out


@pytest.mark.parametrize(
    "Phi, gamma",
    [
        (_phi([[0, 2], [3, 0]]), ParamPath.segment(0.1 + 0.2j, 1.3 - 0.1j)),
        (_phi([[0, 2], [3, 0]]), _ARC.reversed()),
        # z^40 on a circle winds fast enough to refine the track grid
        (MatrixOneForm.from_dz(RationalFunctionMatrix([[BRF.zero(), _zpow(40)], [BRF.one(), BRF.zero()]])),
         ParamPath([ArcSegment(0j, 1.0, 0.3, 0.3 + 2 * math.pi)])),
        (_phi([[2, 0, 0], [0, 1, 1], [0, 0, -3]]), ParamPath.segment(0.1 + 0.2j, 1.3 - 0.1j)),
        (_phi([[2, 0, 0], [0, 1, 1], [0, 0, -3]]), _ARC.reversed()),
        # constant fields on a polyline: the nodes are the breaks
        (_phi([[0, 2], [3, 0]]), _POLY),
        (_phi([[0, 2], [3, 0]]), _POLY.reversed()),
        (_phi([[2, 0, 0], [0, 1, 1], [0, 0, -3]]), _POLY),
    ],
)
def test_track_node_values_equal_values_at_nodes(Phi, gamma):
    track = EigenvalueTrack(Phi, gamma)
    nodes, ts = track.node_values(), track.grid()
    assert len(nodes) == len(ts)
    for vals, t in zip(nodes, ts):
        assert np.array_equal(vals, track.values(t))
        assert vals[0] == track(t)
    # is_wkb_curve reads the node values: same margin from a prebuilt track
    assert is_wkb_curve(Phi, gamma, track) == is_wkb_curve(Phi, gamma)


def test_is_wkb_curve_examples():
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    chk = is_wkb_curve(Phi, SEG)
    # the margin is the gap between the two sheets, 2 Re mu at rank 2
    assert chk.is_wkb and chk.margin == pytest.approx(2.0)
    chk_v = is_wkb_curve(Phi, ParamPath.segment(0, 1j))
    assert not chk_v.is_wkb

    P3 = MatrixOneForm.from_dz(
        RationalFunctionMatrix.from_scalars([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    )
    chk3 = is_wkb_curve(P3, SEG)
    assert chk3.is_wkb and chk3.margin == pytest.approx(2.0)


def test_wkb_predicate_reads_the_tracked_order():
    # diag(z, 1 - z, -1): the first two tracked real parts cross at Re z = 1/2,
    # which the sorted real parts do not show
    z, one, zero = BRF.z(), BRF.one(), BRF.zero()
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix([[z, zero, zero], [zero, one - z, zero], [zero, zero, -one]]))
    gamma = ParamPath.segment(0.1 + 0.3j, 0.8317 + 0.3j)
    track = EigenvalueTrack(Phi, gamma)
    start, end = track.values(0.0).real, track.values(1.0).real
    assert start[0] > start[1] > start[2] and end[1] > end[0] > end[2]
    for path in (gamma, gamma.reversed()):
        chk = is_wkb_curve(Phi, path)
        assert not chk.is_wkb and chk.margin < 0


def test_period_examples():
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, 1], [1, 0]]))
    assert period(Phi, SEG) == pytest.approx(1.0, abs=1e-10)
    fam = regular_diagonal()
    assert period(fam.phi, ParamPath.circle()) == pytest.approx(1.0, abs=1e-9)


def test_period_reversal_antisymmetry_randomized():
    # criterion: 20 randomized instances, |Z(rev) + Z| <= 1e-10
    rng = random.Random(53)
    count = 0
    while count < 20:
        a = rng.randint(1, 4)
        b = rng.randint(1, 4)
        Phi = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[0, a], [b, 0]]))
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z1 = z0 + complex(rng.uniform(0.2, 1.5), rng.uniform(-0.4, 0.4))
        gamma = ParamPath.segment(z0, z1)
        Z = period(Phi, gamma)
        Zrev = period(Phi, gamma.reversed())
        assert abs(Z + Zrev) <= 1e-10
        count += 1


def _quad_period(Phi, gamma):
    # reference: adaptive quadrature of track(t) on every segment, the track
    # built as if no segment were constant, so the field is evaluated at every
    # node and every quadrature point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("nilwkb.holonomy._constant_segments", lambda forms, gamma: [False] * len(gamma.segments))
        track = EigenvalueTrack(Phi, gamma)
        total = 0j
        for t0, t1 in zip(gamma.breaks, gamma.breaks[1:]):
            re, _ = quad(lambda t: track(t).real, t0, t1, epsabs=1e-12, epsrel=1e-12, limit=200)
            im, _ = quad(lambda t: track(t).imag, t0, t1, epsabs=1e-12, epsrel=1e-12, limit=200)
            total += re + 1j * im
    return total


def _gaussian(rng):
    return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))


def _random_traceless(rng, n):
    grid = [[_gaussian(rng) for _ in range(n)] for _ in range(n)]
    grid[n - 1][n - 1] = -sum((grid[i][i] for i in range(n - 1)), GaussianRational(0))
    return _phi(grid)


@pytest.mark.parametrize("n, count", [(2, 40), (3, 20)])
def test_closed_form_period_matches_quadrature(n, count):
    # a constant field on segments and 2-4 point polylines: mu (t_{k+1} - t_k)
    # per segment against quadrature of the track
    rng = random.Random(400 + n)
    done = 0
    while done < count:
        Phi = _random_traceless(rng, n)
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(2, 4))]
        gamma = ParamPath.from_points(pts)
        try:
            Z = period(Phi, gamma)
        except (TieAtStart, BranchPointOnPath):
            continue
        assert abs(Z - _quad_period(Phi, gamma)) <= 1e-10, (done, pts)
        assert EigenvalueTrack(Phi, gamma).grid() == gamma.breaks
        done += 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_period_exactly_odd_on_a_constant_segment(n):
    # the reversed track reads the same eigvals row and negates gamma', so the
    # two periods are the same bits with opposite signs (eigvals(-A) is not
    # bit for bit -eigvals(A), so tracking the pulled-back field would miss some)
    rng = random.Random(9000 + n)
    done = 0
    while done < 400:
        Phi = _random_traceless(rng, n)
        z0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        gamma = ParamPath.segment(z0, z0 + complex(rng.uniform(0.2, 1.5), rng.uniform(-0.4, 0.4)))
        try:
            total = period(Phi, gamma) + period(Phi, gamma.reversed())
        except (TieAtStart, BranchPointOnPath):
            continue
        assert total == 0, done
        done += 1


@pytest.mark.parametrize("Phi, lam", [(_phi([[0, 1], [1, 0]]), 1.0), (_phi([[2, 0, 0], [0, 1, 0], [0, 0, -3]]), 2.0)])
def test_a_corner_moves_no_sheet(Phi, lam):
    # the sheet seeded on the first segment is kept past a corner that turns
    # more than 90 degrees, where matching lam gamma' would jump to another sheet;
    # no sheet ordering holds on both segments, so neither path is a WKB curve
    for points in ([0, 1, 0.5 + 0.9j], [0, 1, 0.1 + 0.1j]):
        gamma = ParamPath.from_points(points)
        Z = period(Phi, gamma)
        assert abs(Z - lam * (points[-1] - points[0])) <= 1e-12
        assert not Z.is_wkb and Z.margin < 0


@pytest.mark.parametrize(
    "Phi, gamma",
    [(_phi([[0, 3], [2, 0]]), ParamPath.segment(0.1, 0.9)), (_phi([[2, 0, 0], [0, 0, 0], [0, 0, -2]]), SEG)],
)
def test_reversed_path_keeps_its_verdict(Phi, gamma):
    forward, backward = is_wkb_curve(Phi, gamma), is_wkb_curve(Phi, gamma.reversed())
    assert forward.is_wkb and backward == forward


@pytest.mark.parametrize("k", [126, 128])
def test_track_refines_where_the_sheets_move_fast(k):
    # z^k on the unit circle: the sheets +-z^(k/2) turn k/2 times, about pi/2
    # per step of the even grid (exactly at k = 128, where nearest matching
    # without refinement loses the sheet and the period is 0.45 off)
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix([[BRF.zero(), _zpow(k)], [BRF.one(), BRF.zero()]]))
    gamma = ParamPath([ArcSegment(0j, 1.0, 0.3, 0.3 + 2 * math.pi)])
    assert abs(period(Phi, gamma)) <= 1e-10


def test_track_refuses_sheets_too_close_to_follow(monkeypatch):
    # diag(z, z + d, -2z - d): two sheets d apart move together, and a step may
    # move them by d/4 at most, so following them takes about 4/d nodes
    z, zero, d = BRF.z(), BRF.zero(), BRF.constant(Fraction(1, 1000))
    Phi = MatrixOneForm.from_dz(RationalFunctionMatrix([[z, zero, zero], [zero, z + d, zero], [zero, zero, -(z + z + d)]]))
    gamma = ParamPath.segment(0.1, 1.1)
    assert len(EigenvalueTrack(Phi, gamma).grid()) > 4000
    monkeypatch.setattr(EigenvalueTrack, "MAX_NODES", 4000)
    with pytest.raises(BranchPointOnPath, match="too close to follow"):
        EigenvalueTrack(Phi, gamma)


def _parabolic_secondary():
    from nilwkb.gauge import secondary_higgs

    return secondary_higgs(nilpotent_sl2_parabolic(), [1, 1]).Phi


def test_period_carries_the_verdict_of_its_path():
    # the verdict is is_wkb_curve's on the same path; arithmetic drops it
    Phi = _phi([[0, 1], [1, 0]])
    for gamma, is_wkb in ((SEG, True), (ParamPath.from_points([0, 1, 1 + 1j]), False)):
        Z = period(Phi, gamma)
        assert (Z.is_wkb, Z.margin) == astuple(is_wkb_curve(Phi, gamma)) and Z.is_wkb is is_wkb
        assert all(type(w) is complex for w in (Z + Z, Z - 1, -Z, 2 * Z, complex(Z)))
        with pytest.raises(AttributeError):
            Z.is_wkb = True
        for copied in (copy.deepcopy(Z), pickle.loads(pickle.dumps(Z))):
            assert type(copied) is Period and (copied, copied.is_wkb, copied.margin) == (Z, Z.is_wkb, Z.margin)


def test_period_odd_under_reversal_wherever_the_path_is_wkb():
    # on a WKB curve both directions follow one sheet; off one the reversed
    # track orders the sheets at the far end, where another can lead
    Phi = _parabolic_secondary()
    rng = random.Random(71)
    wkb = 0
    for _ in range(60):
        if rng.random() < 0.5:
            z0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            gamma = ParamPath.segment(z0, z0 + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        else:
            a0 = rng.uniform(-math.pi, math.pi)
            centre = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            gamma = ParamPath([ArcSegment(centre, rng.uniform(0.2, 1.0), a0, a0 + rng.uniform(-2, 2))])
        try:
            Z, Zrev = period(Phi, gamma), period(Phi, gamma.reversed())
        except (TieAtStart, BranchPointOnPath):
            continue
        assert Zrev.is_wkb == Z.is_wkb
        if Z.is_wkb:
            assert abs(Z + Zrev) <= 1e-10, gamma
            wkb += 1
    assert wkb >= 30
    arc = ParamPath([ArcSegment(0.3 + 0.2j, 0.7, 0.1, 2.0)])
    assert not period(Phi, arc).is_wkb and not period(Phi, arc.reversed()).is_wkb


def test_rank2_track_reads_numpy_and_python_floats_alike():
    # the grid nodes are numpy floats; the field is evaluated on Python
    # scalars either way, so the track gives the same bits at t and float(t)
    track = EigenvalueTrack(_parabolic_secondary(), ParamPath.segment(0.3 + 0.2j, 1.4 + 0.9j))
    nodes = track.grid()
    assert any(isinstance(t, np.floating) for t in nodes)
    for t in nodes:
        assert repr(complex(track(t))) == repr(complex(track(float(t)))), t


@pytest.mark.parametrize(
    "Phi, gamma",
    [
        # a constant field on line, arc, line: closed form on the lines, quadrature on the arc
        (_phi([[0, 2], [3, 0]]), ParamPath([LineSegment(-1 + 0j, 1 + 0j), ArcSegment(0j, 1.0, 0.0, 1.2),
                                             LineSegment(cmath.exp(1.2j), 0.3 + 1.4j)])),
        (_phi([[2, 0, 0], [0, 1, 1], [0, 0, -3]]), ParamPath([LineSegment(1.5 + 0j, 1 + 0j),
                                                              ArcSegment(0j, 1.0, 0.0, 1.0)])),
        # a z-dependent field (q = 1/z) on a polyline: quadrature on every segment
        (_parabolic_secondary(), ParamPath.from_points([0.5, 1.5, 1.5 + 1j, 0.7 + 1.5j])),
    ],
)
def test_period_on_mixed_paths_matches_quadrature(Phi, gamma):
    assert abs(period(Phi, gamma) - _quad_period(Phi, gamma)) <= 1e-10


@pytest.mark.parametrize("Phi", [_phi([[0, 2], [3, 0]]), _phi([[1, 2], [3, -1]]), _phi([[2, 0, 0], [0, 1, 1], [0, 0, -3]])])
def test_constant_period_evaluates_entries_once_per_segment(monkeypatch, Phi):
    # cost guard: on a constant polyline the track evaluates each nonzero
    # entry and its eigenvalues once per segment, the WKB predicate refines
    # nothing and the period reads mu once per segment
    calls = _counting_closures(monkeypatch)
    eigvals, refined = _counting(monkeypatch, np.linalg, "eigvals"), _counting(monkeypatch, EigenvalueTrack, "values")
    mu = _counting(monkeypatch, EigenvalueTrack, "__call__")
    entries = sum(bool(e) for row in Phi.dz_part.entries for e in row)
    period(Phi, _POLY)
    assert 0 < calls[0] <= entries * len(_POLY.segments)
    assert eigvals[0] <= len(_POLY.segments) and refined[0] == 0
    assert mu[0] == len(_POLY.segments)
    # the shortcut must not widen: a z-dependent field evaluates every node
    calls[0] = 0
    period(_parabolic_secondary(), _POLY)
    assert calls[0] >= 257


# -- rate fitting -----------------------------------------------------------------------


def _cosh_samples(exponent: float, eps_values) -> list:
    out = []
    for e in eps_values:
        T = 2 * math.cosh(e ** (-exponent))
        out.append(HolonomySample(epsilon=float(e), holonomy=np.eye(2, dtype=complex), trace=T, est_error=1e-12))
    return out


def test_wkb_fit_sqrt_exponent():
    eps = np.geomspace(0.04, 0.04 * 2.0 ** (-11), 12)
    fit = wkb_fit(_cosh_samples(0.5, eps), [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    assert fit.exponent_p == Fraction(1, 2)
    assert abs(fit.Z - 1) < 1e-4


def test_wkb_fit_linear_exponent():
    eps = np.geomspace(0.5, 0.05, 12)
    fit = wkb_fit(_cosh_samples(1.0, eps), [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    assert fit.exponent_p == Fraction(1)
    assert abs(fit.Z - 1) < 1e-6


def test_rate_theorem_on_manufactured_family():
    # the nilpotent-leading family: selected exponent exactly 1/2, free-fit
    # exponent within 1%, and Z equal to the period of the secondary field
    from nilwkb.gauge import secondary_higgs

    eps = np.geomspace(0.25, 5e-4, 12)
    samples = transport_grid(nilpotent_sl2(), SEG, eps, rel_tol=1e-11)
    fit = wkb_fit(samples, [Fraction(1), Fraction(1, 2), Fraction(1, 3)])
    assert fit.exponent_p == Fraction(1, 2)
    assert abs(fit.free_fit_exponent - 0.5) / 0.5 < 0.01
    Phi = secondary_higgs(nilpotent_sl2(), [1, 1]).Phi
    assert abs(fit.Z - period(Phi, SEG)) < 1e-4


@pytest.mark.parametrize(
    "start, end", [(0.10038496625636678, 0.0010036268765484149), (0.09937068685108635, 0.0009991451664090926)]
)
def test_free_fit_exponent_on_jittered_sl3_grids(start, end):
    # criterion 5 on two jittered grids of the benchmark's nilpotent_sl3 checks
    # (seed 37 op 479, seed 30 op 59): the trace changes sign, and trimming its
    # dips at the large-eps end tilted the free slope 5.9% and 5.4% off 2/3
    fit = wkb_fit(transport_grid(nilpotent_sl3(), SEG, np.geomspace(start, end, 32), rel_tol=1e-10))
    assert abs(fit.free_fit_exponent - 2 / 3) / (2 / 3) <= 0.05


def test_free_fit_exponent_ignores_a_sample_near_one():
    # log log|T| of a trace just above 1 is an unbounded outlier: one such
    # sample anywhere on the grid must not move the free slope past 5%
    sl2 = [2 * math.cosh(e**-0.5) for e in np.geomspace(0.25, 5e-4, 12)]
    sl3 = [s.trace for s in transport_grid(nilpotent_sl3(), SEG, np.geomspace(0.1, 1e-3, 32), rel_tol=1e-10)]
    for traces, eps, p in ((sl2, np.geomspace(0.25, 5e-4, 12), 0.5), (sl3, np.geomspace(0.1, 1e-3, 32), 2 / 3)):
        for k in range(len(traces)):
            for d in (1e-9, 1e-3, 1e-1):
                moved = traces[:k] + [1 + d] + traces[k + 1 :]
                assert abs(_free_fit_exponent(eps, moved) - p) / p <= 0.05, (p, k, d)


def test_wkb_fit_refuses_a_repeated_eps_and_a_zero_trace():
    samples = _cosh_samples(1.0, np.geomspace(0.5, 0.05, 12))
    repeated = samples[:5] + [samples[4]] + samples[6:]
    with pytest.raises(InsufficientSamples, match="strictly decreasing"):
        wkb_fit(repeated)
    zero = samples[:5] + [HolonomySample(samples[5].epsilon, np.eye(2, dtype=complex), 0j, 0.0)] + samples[6:]
    with pytest.raises(NonDecayingSequence, match="zero trace"):
        wkb_fit(zero)


def test_wkb_fit_errors():
    eps = np.geomspace(0.5, 0.05, 12)
    flat = [
        HolonomySample(epsilon=float(e), holonomy=np.eye(2, dtype=complex), trace=5.0, est_error=0.0)
        for e in eps
    ]
    with pytest.raises(NonDecayingSequence):
        wkb_fit(flat)
    with pytest.raises(InsufficientSamples):
        wkb_fit(_cosh_samples(1.0, np.geomspace(0.5, 0.05, 5)))
    with pytest.raises(InsufficientSamples):
        wkb_fit(_cosh_samples(1.0, np.geomspace(0.5, 0.1, 8)))


@pytest.mark.parametrize(
    "eps, trace",
    [(0.1, math.inf), (0.1, complex(1, math.inf)), (0.1, complex(math.nan, 0)), (math.inf, 3.0), (0.0, 3.0)],
)
def test_wkb_fit_rejects_non_finite_sample(eps, trace):
    samples = _cosh_samples(1.0, np.geomspace(0.5, 0.05, 12))
    samples[4] = HolonomySample(epsilon=eps, holonomy=None, trace=trace, est_error=0.0)
    with pytest.raises(NonFiniteSample):
        wkb_fit(samples)


def test_wkb_fit_complex_unwinding():
    # rotating traces T = 2 cosh(Z/eps): the unwound complex fit recovers the
    # full complex rate, provided consecutive samples wind by less than pi
    eps = np.geomspace(0.5, 0.02, 24)
    Zc = 1 + 0.2j
    samples = [
        HolonomySample(
            epsilon=float(e),
            holonomy=np.eye(2, dtype=complex),
            trace=2 * np.cosh(Zc / e),
            est_error=0.0,
        )
        for e in eps
    ]
    fit = wkb_fit(samples, [Fraction(1), Fraction(1, 2)])
    assert fit.exponent_p == Fraction(1)
    assert abs(fit.Z - Zc) < 1e-6
