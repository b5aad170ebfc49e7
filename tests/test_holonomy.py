import cmath
import copy
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import warnings
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
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
    PoleHit,
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
    _family_terms,
    _free_fit_exponent,
    _pulled_back,
    _term_matrices,
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


@pytest.mark.parametrize("points", [[0, 1e-300, 2e-300, 1e308], [0, 1e-5, 1e303]])
def test_path_refuses_a_share_of_the_parameter_range_below_the_least_normal_double(points):
    # shares 0 and 1e-308 of [0, 1]: transport ended in a bare
    # ZeroDivisionError on the first and a HolonomyOverflow on the second,
    # whose holonomy is finite
    with pytest.raises(ValueError, match=r"^segment 0 takes a share (0\.0|1e-308) of the parameter range"):
        ParamPath.from_points(points)


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


@pytest.mark.parametrize("radius", [0.0, -0.0, -1.0, -1e300])
def test_path_rejects_an_arc_of_non_positive_radius(radius):
    # an arc's radius must be positive: refused by name, not as the
    # zero-length segment its length makes it
    arc = {"type": "arc", "center": [0, 0], "radius": radius, "angles": [0, 1]}
    for build in (lambda: ParamPath([ArcSegment(0j, radius, 0.0, 1.0)]), lambda: ParamPath.from_json({"segments": [arc]})):
        with pytest.raises(ValueError, match=r"^arc radius must be positive, got "):
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


def _entries_summed(forms, z, v):
    """The forms' term matrices at (z, v) side by side, each entry summed from 0j one part at a time."""
    n = forms[0].n
    out = np.zeros((n, len(forms) * n), dtype=complex)
    for f, form in enumerate(forms):
        for i in range(n):
            for j in range(n):
                acc = 0j
                if form.dz_part.entries[i][j]:
                    acc += form.dz_part.entries[i][j].evaluate(z) * v
                if form.dzbar_part.entries[i][j]:
                    acc += form.dzbar_part.entries[i][j].evaluate(z) * v.conjugate()
                out[i, f * n + j] = acc
    return out


def test_constant_segment_pulls_back_once_bit_for_bit():
    # a z-independent family on a line: each segment's term matrices are one
    # read-only (n, K n) array, the terms side by side, equal bit for bit to
    # the entries evaluated one by one
    fam = nilpotent_sl2_full()
    gamma = ParamPath.from_points([0.2 + 0.1j, 1.1 + 0.7j, 0.4 + 1.3j])
    evaluate, flat, _weights = _family_terms(fam, [0.3])
    forms = [form for _name, _x, form in fam.terms()]
    pieces = _pulled_back(gamma, evaluate, flat)
    for k, (seg, P) in enumerate(zip(gamma.segments, pieces)):
        assert isinstance(P, np.ndarray) and not P.flags.writeable
        v = seg.velocity(0.0) / (gamma.breaks[k + 1] - gamma.breaks[k])
        assert np.array_equal(P, _entries_summed(forms, seg.point(0.0), v))
    # an arc and a z-dependent entry keep evaluating per t
    assert all(callable(P) for P in _pulled_back(ParamPath.circle(0.3 + 0.2j, 0.7), evaluate, flat))
    assert all(callable(P) for P in _pulled_back(SEG, *_family_terms(regular_diagonal(), [0.3])[:2]))


def _mixed_form():
    """A z-dependent form whose entries have a dz part, a dzbar part, both, or multi-term rational parts."""
    z, zbar, one, zero = BRF.z(), BRF.zbar(), BRF.one(), BRF.zero()
    P = RationalFunctionMatrix([[z * z - one / (z - BRF.constant(2)), zbar], [zero, one / z]])
    Q = RationalFunctionMatrix([[z + zbar, zero], [z / (z - BRF.constant(3)), zero]])
    return MatrixOneForm(P, Q)


@pytest.mark.parametrize(
    "forms",
    [
        [form for _name, _x, form in nilpotent_sl2_parabolic().terms()],
        [form for _name, _x, form in nilpotent_sl2_full().terms()],
        [MatrixOneForm.from_dz(catalog()["toy_phi_p"].phi.dz_part), _mixed_form()],
    ],
    ids=["parabolic", "full", "toy_and_mixed"],
)
def test_segment_sampler_is_the_segments_point_and_velocity_bit_for_bit(forms):
    # each segment's sampler reads t as a Python float (a numpy float64 t
    # would put z in numpy's complex arithmetic, whose powers and quotients
    # round differently), clamps s to [0, 1] (a NaN t to 0) and gives the
    # bits of value at the segment's own point and velocity; the term block
    # gives the bits of its entries summed one by one from 0j
    arc = ArcSegment(0.5j, 0.25, -0.5 * math.pi, 1.2 * math.pi)
    gamma = ParamPath([LineSegment(0.5 + 0.5j, arc.point(0.0)), arc, LineSegment(arc.point(1.0), 1.5 + 0.2j)])
    value, _flat, kept = holonomy._compiled_terms(forms, forms[0].n, ["f"] * len(forms))
    pieces = _pulled_back(gamma, value, False)
    rng = random.Random(3708)
    for seg, P, t0, t1 in zip(gamma.segments, pieces, gamma.breaks, gamma.breaks[1:]):
        dt = t1 - t0
        ts = [t0, t1, math.nan] + [t0 + rng.uniform(-0.3, 1.3) * dt for _ in range(20)]
        for t in ts:
            s = min(1.0, max(0.0, (t - t0) / dt))
            z, v = seg.point(s), seg.velocity(s) / dt
            want = value(z, v)
            for as_given in (t, np.float64(t)):
                assert P(as_given).tobytes() == want.tobytes(), (seg, t, type(as_given))
            assert want.tobytes() == _entries_summed([forms[f] for f in kept], z, v).tobytes()
        assert P(math.nan).tobytes() == value(seg.point(0.0), seg.velocity(0.0) / dt).tobytes()


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


def _small_eps_constant_family(rng, n, shift=0):
    # the norms of the benchmark's grids: a nilpotent Higgs field (superdiagonal
    # 1..3, at rank 3 also a corner) and a traceless connection, full, lower or
    # upper triangular (nilpotent_sl3's connection is its lower corner), plus
    # shift * I (a connection with a trace, whose exponentials decay or grow)
    phi = [[rng.randint(1, 3) if j == i + 1 else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    conn = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    conn[-1][-1] = -sum(conn[i][i] for i in range(n - 1))
    shape = rng.choice(["full", "lower", "upper"])
    keep = {"full": lambda i, j: True, "lower": lambda i, j: j <= i, "upper": lambda i, j: j >= i}[shape]
    return phi, [[(c if keep(i, j) else 0) + (shift if i == j else 0) for j, c in enumerate(row)] for i, row in enumerate(conn)]


@pytest.mark.parametrize(
    "n, count, eps_low, shift",
    [
        pytest.param(2, 200, None, 0, id="2-200"),
        pytest.param(3, 100, None, 0, id="3-100"),
        pytest.param(2, 100, 5e-4, 0, id="2-100-to-5e-4"),
        pytest.param(3, 60, 1e-3, 0, id="3-60-to-1e-3"),
        pytest.param(2, 60, 2e-6, 0, id="2-60-to-2e-6"),
        pytest.param(3, 40, 5e-5, 0, id="3-40-to-5e-5"),
        pytest.param(2, 40, 5e-4, 10, id="2-40-to-5e-4-plus-10I"),
        pytest.param(2, 40, 5e-4, 40, id="2-40-to-5e-4-plus-40I"),
        pytest.param(3, 30, 1e-3, 40, id="3-30-to-1e-3-plus-40I"),
    ],
)
def test_constant_segment_est_error_bounds_mpmath_expm(n, count, eps_low, shift):
    # oracle: the holonomy of a constant dz-family is the ordered product of
    # expm(-(phi / eps + conn) dz) over the segments, here at 50 digits; with
    # eps_low, eps is log-uniform down to it and the families are those of
    # _small_eps_constant_family.  Down to 2e-6 at rank 2 and 5e-5 at rank 3
    # the exponentials take up to about 20 squarings, and a transport whose
    # segments' norms multiply past a double must raise HolonomyOverflow;
    # with a shift the exponentials decay far below I on some segments
    import mpmath as mp

    rng = random.Random(100 + n if eps_low is None else 300 + n + shift if eps_low >= 5e-4 else 400 + n)
    finite = 0
    with mp.workdps(50):
        for trial in range(count):
            if eps_low is None:
                phi, conn = _random_constant_family(rng, n)
                eps = rng.uniform(0.3, 1.0)
            else:
                phi, conn = _small_eps_constant_family(rng, n, shift)
                eps = math.exp(rng.uniform(math.log(eps_low), 0.0))
            pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
            fam = _const_family(phi, conn)
            M = mp.matrix(phi) / mp.mpf(eps) + mp.matrix(conn)
            exact, steps_norm = mp.eye(n), 1
            for k, (a, b) in enumerate(zip(pts, pts[1:])):
                step = mp.expm(-M * (mp.mpc(b) - mp.mpc(a)))
                exact, steps_norm = step * exact, steps_norm * mp.mnorm(step, "f")
                if k in (0, 2):
                    try:
                        s = transport(fam, ParamPath.from_points(pts[: k + 2]), eps)
                    except HolonomyOverflow:
                        # the roundoff bound grows as the product of the
                        # segments' norms, which can pass a double first
                        assert steps_norm > 1e280, (trial, k)
                        continue
                    finite += 1
                    err = mp.mnorm(mp.matrix(s.holonomy.tolist()) - exact, "f")
                    assert s.steps == 0 and err <= s.est_error, (trial, k)
    assert finite >= count  # at least half of the 2 * count transports are checked


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


@pytest.mark.parametrize("build, path", [(nilpotent_sl2, SEG), (regular_diagonal, ParamPath.circle())])
def test_sample_fields_are_python_numbers(build, path):
    # the stack-wide finish hands out Python numbers, not numpy scalars
    for s in transport_grid(build(), path, [0.5, 0.2]):
        assert (type(s.epsilon), type(s.trace), type(s.est_error)) == (float, complex, float)


def test_frobenius_of_plain_huge_inf_and_nan_members():
    huge = [[3e200 + 4e199j, -7e154], [1.5e-300, 2e201j]]
    stack = np.array(
        [[[3, 4j], [12, 0]], huge, [[math.inf, 1], [0, 0]], [[1, math.nan], [0, 0]]], dtype=complex
    )
    with np.errstate(invalid="ignore"):  # inf * 0 in inf's square, as in the transport's errstate
        plain, big, inf, nan = holonomy._frobenius(stack).tolist()
    assert plain == 13.0  # 9 + 16 + 144 exactly: the plain sum, bit for bit
    with mpmath.workdps(50):
        exact = mpmath.sqrt(sum(mpmath.mpf(x.real) ** 2 + mpmath.mpf(x.imag) ** 2 for row in huge for x in row))
        assert math.isfinite(big) and abs(mpmath.mpf(big) - exact) <= 4 * 2.0**-52 * exact
    assert inf == math.inf and math.isnan(nan)


def test_grid_norms_do_not_grow_with_the_grid(monkeypatch):
    # cost guard: a constant grid takes every Frobenius norm on the whole
    # (B, n, n) stack, so 32 members take as many calls as 2
    calls, counts = _counting(monkeypatch, holonomy, "_frobenius"), []
    for size in (2, 32):
        calls[0] = 0
        transport_grid(nilpotent_sl2(), ParamPath.from_points([0, 1, 1 + 1j]), np.geomspace(0.5, 0.05, size))
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("build, path", [(nilpotent_sl2_full, ParamPath.from_points([0, 1, 1 + 1j])), (regular_diagonal, ParamPath.circle())])
def test_transport_walks_each_term_form_once(monkeypatch, build, path):
    # cost guard: one walk over a term form's entries compiles them, decides
    # whether the field is constant in z and whether the form is zero; no
    # form is tested for zero apart from it, and a later call on the same
    # family reuses the compiled block
    family = build()
    is_zero, zero_tests = MatrixOneForm.is_zero, [0]

    def counted(form):
        zero_tests[0] += 1
        return is_zero.fget(form)

    walks = _counting(monkeypatch, MatrixOneForm, "nonzero_entries")
    monkeypatch.setattr(MatrixOneForm, "is_zero", property(counted))
    transport_grid(family, path, [0.5, 0.2])
    assert (walks[0], zero_tests[0]) == (len(family.terms()), 0)
    transport(family, path, 0.3)
    assert walks[0] == len(family.terms())


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
    # the trace 2 cosh(eps^-1/2) at eps 1e-7 is past a double; a grid is
    # checked as one stack, and the member named is the first in input order
    # that is not finite, as when members were checked one by one
    with pytest.raises(HolonomyOverflow):
        transport(nilpotent_sl2(), SEG, 1e-7)
    with pytest.raises(HolonomyOverflow, match=r"^holonomy at eps=1e-07 exceeds double precision$"):
        transport_grid(nilpotent_sl2(), SEG, [0.5, 1e-7, 1e-8])


@pytest.mark.parametrize("eps", [1e-300, 1e-12])
def test_exponential_past_double_precision_raises_overflow(eps):
    # 2 cosh(eps^-1/2) is past a double at both.  At 1e-300 the exponential is
    # scaled by 2^-995, about 500 squarings more than its eigenvalues ask for:
    # squaring r(A) itself would round its diagonal to within an ulp of 1 and
    # square it toward 0 before the growth sets in, a finite trace of 0.
    # Alone and among finite members, it is an overflow
    message = rf"^holonomy at eps={re.escape(repr(eps))} exceeds double precision$"
    with pytest.raises(HolonomyOverflow, match=message):
        transport(nilpotent_sl2(), SEG, eps)
    with pytest.raises(HolonomyOverflow, match=message):
        transport_grid(nilpotent_sl2(), SEG, [0.5, eps, 0.2])


def test_batched_exponential_of_a_non_finite_member():
    # a member with an infinite or NaN entry, or whose 1-norm is past a double,
    # comes back non-finite, with no LinAlgError from the batched solve; the
    # finite member keeps the bits it gets alone
    X = np.tile(np.array([[0.3, -1.2], [0.7j, -0.3]]), (4, 1, 1))
    X[1, 0, 1] = np.inf
    X[2, 1, 0] = np.nan
    X[3] = 1.5e308
    with np.errstate(over="ignore", invalid="ignore"):
        E, alone = holonomy._expm(X), holonomy._expm(X[:1])
    assert np.isfinite(E[0]).all() and E[0].tobytes() == alone[0].tobytes()
    assert not np.isfinite(E[1:]).all(axis=(1, 2)).any()


def _squarings(x):
    """How many times the batched exponential squares x: the least s >= 0 with ||x||_1 / 2^s below THETA13."""
    return max(math.frexp(float(np.abs(x).sum(axis=0).max()) / holonomy.THETA13)[1], 0)


def _held_as(x):
    """How the batched exponential holds x while it squares it, read off
    scipy's expm of x / 2^k for k = s..0: as E - I throughout (every
    diagonal real part stays at least 1/2), as E throughout (one is below
    1/2 from the start), or switched from E - I to E."""
    from scipy.linalg import expm

    near = [expm(x / 2.0**k).diagonal().real.min() >= 0.5 for k in range(_squarings(x), -1, -1)]
    return "E - I" if all(near) else "E" if not near[0] else "switched"


def test_batched_exponential_member_bits_do_not_depend_on_the_stack():
    # members that are squared 0 to about 20 times, held as E - I throughout,
    # as E throughout, or switched between the two (a trace makes exp decay
    # far below I): each gets the bits it gets alone, in a stack of one, in
    # any order of the stack (which the exponential puts in order of its
    # squarings), and beside a member squared a very different number of times
    rng = np.random.default_rng(29)
    X = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(8)]
    X = np.array([x * scale + shift * np.eye(3) for x, scale, shift in zip(X, [0.1, 1, 30, 0.01, 0.5, 2, 8, 30], [0, 0, 0, 0, -40, -5, 20, -200])])
    X[3] += 1e5 * np.triu(X[0], 1)  # 12 squarings, its size off the diagonal
    X[5] = np.triu(X[5]) + 50 * np.triu(X[1], 1)  # held as E - I, then as E once its diagonal decays
    nilpotent = 3e6 * np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 1)  # 21 squarings
    X = np.concatenate((X, nilpotent[None]))
    counts = [_squarings(x) for x in X]
    assert min(counts) == 0 and max(counts) >= 20
    assert {_held_as(x) for x in X} == {"E - I", "E", "switched"}
    alone = [holonomy._expm(X[b : b + 1])[0] for b in range(len(X))]
    orders = [np.arange(len(X)), np.arange(len(X))[::-1]]
    orders += [np.random.default_rng(seed).permutation(len(X)) for seed in range(8)]
    few, many = counts.index(0), counts.index(max(counts))
    orders += [np.array([few, many]), np.array([many, few])]
    for order in orders:
        E = holonomy._expm(X[order])
        assert np.isfinite(E).all()
        for member, b in zip(E, order.tolist()):
            assert member.tobytes() == alone[b].tobytes(), (order, b)


def test_constant_transport_takes_one_exponential_per_segment(monkeypatch):
    # cost guard: on a constant polyline a transport, of one member or of a
    # grid, takes one batched exponential per segment and no DOP853 solve
    expm, solves = _counting(monkeypatch, holonomy, "_expm"), _counting(monkeypatch, holonomy, "solve_ivp")
    transport(nilpotent_sl2(), _POLY, 0.3)
    assert (expm[0], solves[0]) == (len(_POLY.segments), 0)
    transport_grid(nilpotent_sl2(), _POLY, [0.3, 0.1, 0.05])
    assert (expm[0], solves[0]) == (2 * len(_POLY.segments), 0)


def test_constant_grid_member_is_its_lone_transport_bit_for_bit():
    # the batched exponential scales and squares each member on its own: at
    # these eps the members take 0, 0, 10, 2, 6, 0 and 5 squarings, in a
    # stack of mixed order, and each gets the bits it gets alone
    gamma = ParamPath.from_points([0, 1, 1 + 1j])
    eps = [0.3, 20.0, 2.5e-4, 0.05, 3e-3, 1.0, 0.01]
    for s in transport_grid(nilpotent_sl2(), gamma, eps):
        alone = transport(nilpotent_sl2(), gamma, s.epsilon)
        assert (s.holonomy.tobytes(), s.trace, s.est_error) == (alone.holonomy.tobytes(), alone.trace, alone.est_error)


@pytest.mark.parametrize("eps", [1.42e-3, 1e-3])
def test_overflowing_dop853_state_raises_overflow(eps):
    # the circle transport of regular_diagonal (trace 2 cosh(1/eps)) reaches
    # states near 1e303, where DOP853's arithmetic overflows a double before
    # t = 1: an overflow, not a stiffness failure, and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HolonomyOverflow, match="segment 0"):
            transport_grid(regular_diagonal(), ParamPath.circle(), [0.5, eps], rel_tol=1e-11)


def test_nan_t_ends_the_dop853_solve_at_once(monkeypatch):
    # 10^300 z at z = 1e10 is inf in doubles, so DOP853's first step comes out
    # NaN; the solve used to run 100,000 right-hand sides at t = NaN (over 1 s)
    # before its budget test stopped it
    rhs_calls = []
    solve = holonomy.solve_ivp

    def counted(fun, *args, **kwargs):
        return solve(lambda t, s: rhs_calls.append(t) or fun(t, s), *args, **kwargs)

    monkeypatch.setattr("nilwkb.holonomy.solve_ivp", counted)
    zero, one = BRF.zero(), BRF.one()
    phi = MatrixOneForm.from_dz(RationalFunctionMatrix([[zero, BRF.constant(10**300) * BRF.z()], [one, zero]]))
    family = ConnectionFamily(2, phi, MatrixOneForm.zero(2), MatrixOneForm.zero(2))
    with pytest.raises(HolonomyOverflow, match=r"^DOP853's t is NaN on segment 0 \[0.0, 1.0\]: a value overflowed a double$"):
        transport(family, ParamPath.segment(1e10, 2e10), 0.5)
    assert 0 < len(rhs_calls) < 10


def test_failed_dop853_step_raises_stiffness(monkeypatch):
    class Failed:
        status, message = -1, "Required step size is less than spacing between numbers."

    monkeypatch.setattr("nilwkb.holonomy.solve_ivp", lambda *args, **kwargs: Failed())
    with pytest.raises(StiffnessBudgetExceeded):
        transport(regular_diagonal(), ParamPath.circle(), 0.3)


def test_oscillatory_solve_takes_the_right_hand_sides_it_needs():
    # on the radial segment 1 -> 2 dz/z is real and regular_diagonal's
    # eigenvalues are imaginary: the holonomy stays finite, with trace
    # 2 cos(log 2 / (2 pi eps)), however many evaluations the solve takes
    # (here past 200,000, steps of DOP853 advancing t at an even pace)
    eps = 3e-5
    sample = transport(regular_diagonal(), ParamPath.segment(1, 2), eps)
    assert sample.rhs_evals > 200_000
    assert abs(sample.trace - 2 * math.cos(math.log(2) / (2 * math.pi * eps))) <= sample.est_error


@pytest.mark.parametrize("budget, ends", [(9_000, False), (3_000, True)])
def test_rhs_budget_is_projected_from_progress(monkeypatch, budget, ends):
    # the fine solve takes 6014 right-hand sides on the circle at eps 0.01,
    # at an even pace in t: from the probe on, a budget above that lets it
    # finish, one below it ends it at the probe
    monkeypatch.setattr("nilwkb.holonomy.RHS_PROBE", 500)
    monkeypatch.setattr("nilwkb.holonomy.RHS_BUDGET", budget)
    if ends:
        with pytest.raises(StiffnessBudgetExceeded, match=r"after 500 right-hand sides: .* more than 3000$"):
            transport(regular_diagonal(), ParamPath.circle(), 0.01)
    else:
        assert transport(regular_diagonal(), ParamPath.circle(), 0.01).rhs_evals == 6014


@pytest.mark.parametrize("order, error",[(("overflow", "rhs"), StiffnessBudgetExceeded), (("rhs", "overflow"), HolonomyOverflow)])
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
    assert track.values(0.0)[0] == pytest.approx(1.0)
    assert track.values(0.77)[0] == pytest.approx(1.0)

    diag = MatrixOneForm.from_dz(RationalFunctionMatrix.from_scalars([[1, 0], [0, -1]]))
    track2 = EigenvalueTrack(diag, SEG)
    assert track2.values(0.5)[0] == pytest.approx(1.0)

    z = BRF.z()
    half = BRF.constant(Fraction(1, 2))
    vanishing = MatrixOneForm.from_dz(
        RationalFunctionMatrix([[z - half, BRF.zero()], [BRF.zero(), -(z - half)]])
    )
    with pytest.raises(BranchPointOnPath):
        EigenvalueTrack(vanishing, SEG)
    # a zero field: every sheet is 0 everywhere, the same collision
    with pytest.raises(BranchPointOnPath, match="collide"):
        EigenvalueTrack(MatrixOneForm.zero(2), ParamPath.circle())

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
    values = [track.values(t)[0] for t in np.linspace(0, 1, 17)]
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
    # reference: adaptive quadrature of track.values(t)[0] on every segment,
    # the track built as if no segment were constant, so the field is
    # evaluated at every node and every quadrature point
    def never_flat(forms, n, names):
        evaluate, _flat, kept = _term_matrices(forms, n, names)
        return evaluate, False, kept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("nilwkb.holonomy._term_matrices", never_flat)
        track = EigenvalueTrack(Phi, gamma)
        total = 0j
        for t0, t1 in zip(gamma.breaks, gamma.breaks[1:]):
            re, _ = quad(lambda t: track.values(t)[0].real, t0, t1, epsabs=1e-12, epsrel=1e-12, limit=200)
            im, _ = quad(lambda t: track.values(t)[0].imag, t0, t1, epsabs=1e-12, epsrel=1e-12, limit=200)
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
        assert repr(complex(track.values(t)[0])) == repr(complex(track.values(float(t))[0])), t


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
    # entry and its eigenvalues once per segment and builds no even grid, the
    # WKB predicate refines nothing and the period reads the track's node
    # rows, calling values not at all
    calls = _counting_closures(monkeypatch)
    eigvals, values = _counting(monkeypatch, np.linalg, "eigvals"), _counting(monkeypatch, EigenvalueTrack, "values")
    linspace = _counting(monkeypatch, np, "linspace")
    entries = sum(bool(e) for row in Phi.dz_part.entries for e in row)
    period(Phi, _POLY)
    assert 0 < calls[0] <= entries * len(_POLY.segments)
    assert eigvals[0] <= len(_POLY.segments)
    assert values[0] == 0
    assert linspace[0] == 0
    # the shortcut must not widen: a z-dependent field evaluates every node
    calls[0] = 0
    period(_parabolic_secondary(), _POLY)
    assert calls[0] >= 257


_PARABOLIC = _parabolic_secondary()


def _oracle_field(rng):
    z, one, zero = BRF.z(), BRF.one(), BRF.zero()
    kind = rng.randrange(5)
    if kind == 0:
        return _PARABOLIC
    if kind == 1:
        return MatrixOneForm.from_dz(RationalFunctionMatrix([[z, zero, zero], [zero, one - z, zero], [zero, zero, -one]]))
    if kind == 2:
        return MatrixOneForm.from_dz(RationalFunctionMatrix([[zero, _zpow(rng.randint(20, 130))], [one, zero]]))
    # constant plus linear entries at rank 2 or 3; a steep linear part makes
    # some steps of the even grid move a sheet past another
    n, steep = kind - 1, rng.choice([1, 100])
    c = lambda s: BRF.constant(GaussianRational(rng.randint(-3 * s, 3 * s), rng.randint(-3 * s, 3 * s)))
    return MatrixOneForm.from_dz(RationalFunctionMatrix([[c(1) + c(steep) * z for _ in range(n)] for _ in range(n)]))


def _oracle_path(rng):
    point = lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    kind = rng.randrange(3)
    if kind == 0:
        gamma = ParamPath.segment(point(), point())
    elif kind == 1:
        a0 = rng.uniform(-math.pi, math.pi)
        gamma = ParamPath([ArcSegment(point() / 2, rng.uniform(0.2, 1.0), a0, a0 + rng.uniform(-6, 6))])
    else:
        gamma = ParamPath.from_points([point() for _ in range(rng.randint(3, 5))])
    return gamma.reversed() if rng.random() < 0.5 else gamma


def test_nearest_map_matches_the_assignment_oracle(monkeypatch):
    # the oracle is the one-to-one match of least total distance.  Where the
    # nearest map repeats a sheet, the step is refined under either matcher,
    # so both give the same grid, node rows, period bits and verdict, or
    # raise the same error
    from scipy.optimize import linear_sum_assignment

    nearest, repeats = holonomy._matched, [0]

    def counted(prev, lam):
        out = nearest(prev, lam)
        repeats[0] += len(set(out.tolist())) < len(out)
        return out

    def assignment(prev, lam):
        return lam[linear_sum_assignment(np.abs(lam[None, :] - prev[:, None]))[1]]

    built = []

    class Kept(EigenvalueTrack):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(holonomy, "EigenvalueTrack", Kept)

    def run(Phi, gamma, matcher):
        monkeypatch.setattr(holonomy, "_matched", matcher)
        try:
            Z = period(Phi, gamma)
        except (TieAtStart, BranchPointOnPath, PoleHit) as err:
            return type(err)
        track = built[-1]
        return track.grid(), [row.tobytes() for row in track.node_values()], repr(complex(Z)), Z.est_error, Z.is_wkb, Z.margin

    rng = random.Random(2026)
    followed = 0
    for i in range(400):
        Phi, gamma = _oracle_field(rng), _oracle_path(rng)
        out = run(Phi, gamma, counted)
        assert out == run(Phi, gamma, assignment), (i, gamma.segments)
        followed += not isinstance(out, type)
    assert followed >= 300 and repeats[0] > 0


def _exact_point(seg, s):
    """seg's point at s, in mpmath's precision: the path's own geometry, not its rounded doubles."""
    if isinstance(seg, LineSegment):
        return mpmath.mpc(seg.start) + s * (mpmath.mpc(seg.end) - mpmath.mpc(seg.start))
    return mpmath.mpc(seg.center) + seg.radius * mpmath.expj(seg.angle0 + s * (mpmath.mpf(seg.angle1) - seg.angle0))


def _power_period(gamma, k, lam0):
    """The closed form of the period of [[0, z^k], [1, 0]] dz: (2/(k+2)) z^((k+2)/2)
    between the ends of gamma, on the branch of z^(k/2) that starts at lam0 and
    is continued along gamma; 40 digits."""
    with mpmath.workdps(40):
        ends = [_exact_point(gamma.segments[0], 0), _exact_point(gamma.segments[-1], 1)]
        phases = np.unwrap([cmath.phase(gamma.point(t)) for t in np.linspace(0.0, 1.0, 4001)])
        logs = [mpmath.log(z) + 2j * mpmath.pi * round((p - float(mpmath.arg(z))) / (2 * math.pi)) for z, p in zip(ends, phases[[0, -1]])]
        start = complex(mpmath.exp(k * logs[0] / 2))
        sign = 1 if abs(lam0 - start) < abs(lam0 + start) else -1
        return sign * 2 / mpmath.mpf(k + 2) * (mpmath.exp((k + 2) * logs[1] / 2) - mpmath.exp((k + 2) * logs[0] / 2))


def _power_field(k):
    return _PARABOLIC if k == -1 else MatrixOneForm.from_dz(RationalFunctionMatrix([[BRF.zero(), _zpow(k)], [BRF.one(), BRF.zero()]]))


@pytest.mark.parametrize("powers, shape", [((-1,), "segment"), ((-1,), "arc"), (range(20, 131), "arc")])
def test_period_est_error_bounds_the_closed_form(powers, shape):
    # the parabolic secondary field is [[0, 1/z], [1, 0]] dz, whose period is
    # 2 (sqrt(b) - sqrt(a)); z^k arcs stay within radius 1.3 of 0, where z^k
    # is below 1e14 and no entry is refused as a pole
    rng = random.Random(f"{powers} {shape}")
    done = 0
    while done < 40:
        power = rng.choice(powers)
        if shape == "segment":
            z0 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            gamma = ParamPath.segment(z0, z0 + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        else:
            a0, reach = rng.uniform(-math.pi, math.pi), 0.5 if power == -1 else 0.2
            centre = complex(rng.uniform(-reach, reach), rng.uniform(-reach, reach))
            gamma = ParamPath([ArcSegment(centre, rng.uniform(0.2, 1.0), a0, a0 + rng.uniform(-6, 6))])
        if rng.random() < 0.5:
            gamma = gamma.reversed()
        Phi = _power_field(power)
        try:
            Z = period(Phi, gamma)
        except (TieAtStart, BranchPointOnPath, PoleHit):
            continue
        lam0 = EigenvalueTrack(Phi, gamma).values(0.0)[0] / gamma.velocity(0.0)
        assert abs(Z - _power_period(gamma, power, lam0)) <= Z.est_error, (power, gamma.segments)
        done += 1


def test_period_est_error_bounds_the_exact_eigenvalue_on_constant_paths():
    # constant fields on polylines: mu dt per segment against the exact
    # eigenvalue of the exact matrix, in 40 digits.  Some have a block near a
    # branch point: [[0, a], [d, 0]] (d down to 1e-9), which balancing makes
    # well conditioned, or [[1 + K + e, -K], [K, 1 - K - e]], eigenvalues
    # 1 +- sqrt(2 K e + e^2), which it does not: at K = 1e4, e = 1e-8
    # eigvals is 1.4e-6 off
    rng = random.Random(77)
    done = 0
    while done < 150:
        n = rng.choice([2, 3, 4])
        if rng.random() < 0.4:
            grid = [[GaussianRational(j if i == j > 1 else 0) for j in range(n)] for i in range(n)]
            if rng.random() < 0.5:
                grid[0][1], grid[1][0] = GaussianRational(rng.randint(1, 5)), GaussianRational(1, rng.choice([10**3, 10**6, 10**9]))
            else:
                K, e = rng.choice([10**2, 10**3, 10**4]), GaussianRational(1, rng.choice([10**4, 10**6, 10**8]))
                grid[0][0], grid[0][1], grid[1][0], grid[1][1] = 1 + K + e, GaussianRational(-K), GaussianRational(K), 1 - K - e
        else:
            s = rng.choice([1, 1000])
            grid = [[GaussianRational(rng.randint(-s, s), rng.randint(-s, s)) for _ in range(n)] for _ in range(n)]
        points = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(2, 4))]
        gamma = ParamPath.from_points(points)
        try:
            Z = period(_phi(grid), gamma)
        except (TieAtStart, BranchPointOnPath):
            continue
        lam0 = EigenvalueTrack(_phi(grid), gamma).values(0.0)[0] / gamma.velocity(0.0)
        with mpmath.workdps(40):
            A = mpmath.matrix([[mpmath.mpf(c.a) / c.d + 1j * mpmath.mpf(c.b) / c.d for c in row] for row in grid])
            lam = min(mpmath.eig(A, left=False, right=False), key=lambda e: abs(complex(e) - lam0))
            assert abs(Z - lam * (mpmath.mpc(points[-1]) - mpmath.mpc(points[0]))) <= Z.est_error, (grid, points)
        done += 1


# the arc on which quad cannot reach its tolerance for z^77: it used to warn twice
_Z77_ARC = ArcSegment(-0.7711935290401906 + 0.11429370361024116j, 0.6735629502555041, -5.068851432658857, -2.0977795889151456)


def test_period_command_reports_est_error_where_quad_falls_short(tmp_path):
    gamma = ParamPath([_Z77_ARC])
    Phi = _power_field(77)
    family, path = tmp_path / "family.json", tmp_path / "path.json"
    family.write_text(json.dumps(ConnectionFamily(2, Phi, MatrixOneForm.zero(2), MatrixOneForm.zero(2)).to_json()))
    path.write_text(json.dumps(gamma.to_json()))
    run = subprocess.run(
        [sys.executable, "-m", "nilwkb.cli", "period", str(family), str(path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(holonomy.__file__).parents[1])},
    )
    assert run.returncode == 0 and run.stderr == ""
    out = json.loads(run.stdout)
    exact = _power_period(gamma, 77, EigenvalueTrack(Phi, gamma).values(0.0)[0] / gamma.velocity(0.0))
    error = abs(complex(*out["Z"]) - exact)
    # quad reports roundoff: the estimate exceeds the tolerance asked for, and bounds the error
    assert 1e-10 < error <= out["est_error"] and out["est_error"] > 1e-9


def test_period_of_a_large_polynomial_entry_is_finite():
    # z^110 passes 1e14 in modulus on this segment; the pole test is relative
    # to the denominator (exactly 1 here), not to the numerator, so nothing raises
    Phi, gamma = _power_field(110), ParamPath.segment(0.142 + 0.943j, 0.121 + 1.392j)
    Z = period(Phi, gamma)
    exact = _power_period(gamma, 110, EigenvalueTrack(Phi, gamma).values(0.0)[0] / gamma.velocity(0.0))
    assert cmath.isfinite(Z) and abs(Z - exact) <= Z.est_error


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


def test_wkb_fit_of_samples_past_double_precision_raises_non_finite_sample():
    # finite samples whose fit leaves double precision: a subnormal eps
    # (eps^-p overflows) and a trace whose modulus is past a double; each
    # used to end in a numpy warning or an OverflowError traceback
    subnormal = _cosh_samples(1.0, np.geomspace(0.5, 0.05, 12))
    subnormal[-1] = HolonomySample(epsilon=1e-320, holonomy=None, trace=1e6, est_error=0.0)
    huge = _cosh_samples(1.0, np.geomspace(0.5, 0.05, 12))
    huge[-1] = HolonomySample(epsilon=0.04, holonomy=None, trace=complex(1.3e308, 1.3e308), est_error=0.0)
    for samples in (subnormal, huge):
        with pytest.raises(NonFiniteSample, match="double precision"):
            wkb_fit(samples)


def test_wkb_fit_takes_a_trace_whose_phase_underflows():
    # T = 2 cosh(1/eps) + 1e-320 i: cmath.phase raised OverflowError where its
    # atan2 underflowed; the fit takes the phase 0 and the same rate
    plain = _cosh_samples(1.0, np.geomspace(0.5, 0.05, 12))
    tilted = [HolonomySample(s.epsilon, s.holonomy, complex(s.trace.real, 1e-320), s.est_error) for s in plain]
    assert wkb_fit(tilted) == wkb_fit(plain)


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
