import cmath
import json
import math
import random

import pytest

from nilwkb.errors import (
    GluingLengthMismatch,
    NoRecurrenceWithinBudget,
    UnmatchedEdge,
)
from nilwkb.surface import (
    PolygonSurface,
    find_wkb_loop,
    flat_torus,
    lift_check,
    staircase,
    trace_flow,
    validate,
)


def test_flat_torus_report():
    rep = validate(flat_torus())
    assert (rep.V, rep.E, rep.F) == (1, 2, 1)
    assert rep.chi == 0 and rep.genus == 1
    assert rep.orders() == [0]


def test_left_staircase_six_faces():
    rep = validate(staircase(3, "left"))
    assert rep.F == 6 and rep.E == 12 and rep.V == 2
    assert rep.chi == -4 and rep.genus == 3


def test_staircase_genus_table():
    for n in range(1, 6):
        assert validate(staircase(n, "left")).genus == n
        assert validate(staircase(n, "right")).genus == n
        half_left = validate(staircase(n, "left", half=True))
        half_right = validate(staircase(n, "right", half=True))
        assert half_left.genus == n and half_left.simple_pole_count() == 2
        assert half_right.genus == n and half_right.simple_pole_count() == 2


def test_gauss_bonnet_randomized():
    # criterion: sum of orders = 4g - 4 over >= 20 randomized surfaces, exact
    rng = random.Random(71)
    count = 0
    while count < 24:
        n = rng.randint(1, 5)
        style = rng.choice(["left", "right"])
        half = rng.choice([True, False])
        rep = validate(staircase(n, style, half=half))
        assert sum(rep.orders()) == 4 * rep.genus - 4
        count += 1
    rep = validate(flat_torus())
    assert sum(rep.orders()) == 4 * rep.genus - 4


def test_validate_translation_invariant():
    # shifting one polygon re-derives offsets; the report is unchanged
    base = staircase(2, "left")
    shifted_polys = [list(p) for p in base.polygons]
    shifted_polys[1] = [v + (7 - 3j) for v in shifted_polys[1]]
    shifted = PolygonSurface(shifted_polys, base.pairs)
    r0, r1 = validate(base), validate(shifted)
    assert (r0.V, r0.E, r0.F, r0.genus) == (r1.V, r1.E, r1.F, r1.genus)
    assert sorted(r0.orders()) == sorted(r1.orders())


def test_gluing_validation_errors():
    square = [0j, 1 + 0j, 1 + 1j, 1j]
    with pytest.raises(UnmatchedEdge):
        PolygonSurface([square], [((0, 0), (0, 2), +1)])  # left/right unmatched
    long_rect = [0j, 2 + 0j, 2 + 1j, 1j]
    with pytest.raises(GluingLengthMismatch):
        PolygonSurface(
            [long_rect],
            [((0, 0), (0, 1), +1), ((0, 2), (0, 3), +1)],  # bottom vs right length
        )
    with pytest.raises(GluingLengthMismatch):
        # translation sign on edges matched by a half-translation
        PolygonSurface(
            [square],
            [((0, 0), (0, 1), +1), ((0, 2), (0, 3), +1)],
        )


def test_trace_flow_closes_on_torus():
    T = flat_torus()
    tr = trace_flow(T, (0, 0.5 + 0.3j), 0.0, 10.0)
    assert tr.terminated == "ClosedUp"
    assert tr.total_length == pytest.approx(1.0, abs=1e-9)

    theta = math.atan2(1, 2)
    tr2 = trace_flow(T, (0, 0.21 + 0.13j), theta, 10.0)
    assert tr2.terminated == "ClosedUp"
    assert tr2.total_length == pytest.approx(math.sqrt(5), abs=1e-9)


def test_trace_flow_hits_cone_point():
    S = staircase(2, "left")
    start = 0.5 + 0.5j
    aim = cmath.phase((1 + 1j) - start)
    tr = trace_flow(S, (0, start), aim, 10.0)
    assert tr.terminated == "ConePoint"


def test_trace_flow_max_length():
    T = flat_torus()
    tr = trace_flow(T, (0, 0.5 + 0.3j), 0.77, 2.5)
    assert tr.terminated == "MaxLength"
    assert tr.total_length == pytest.approx(2.5)
    assert sum(abs(b - a) for _p, a, b in tr.pieces) == pytest.approx(2.5)


@pytest.mark.parametrize(
    "theta, max_length",
    [(math.nan, 3.0), (math.inf, 3.0), (-math.inf, 3.0), (0.3, -1.0), (0.3, 0.0), (0.3, math.nan), (0.3, math.inf)],
)
def test_flow_rejects_bad_arguments(theta, max_length):
    # unchecked, a negative length emits a piece outside the polygon, a NaN
    # length runs the whole crossing budget and a NaN angle reports a
    # non-manifold corner
    with pytest.raises(ValueError):
        trace_flow(flat_torus(), (0, 0.5 + 0.5j), theta, max_length)
    with pytest.raises(ValueError):
        find_wkb_loop(flat_torus(), (0, 0.5 + 0.5j), theta, max_length=max_length)


@pytest.mark.parametrize(
    "start",
    [(1, 0.5 + 0.5j), (-1, 0.5 + 0.5j), (True, 0.5 + 0.5j), (0.0, 0.5 + 0.5j), (0, complex(math.nan, 0.5)), (0, complex(0.5, math.inf))],
)
def test_flow_rejects_a_start_off_the_surface(start):
    # polygon -1 used to index from the end and then fail on a missing gluing
    with pytest.raises(ValueError, match="start"):
        trace_flow(flat_torus(), start, 0.3, 3.0)
    with pytest.raises(ValueError, match="start"):
        find_wkb_loop(flat_torus(), start, 0.3, max_length=3.0)


def test_trace_flow_length_additivity():
    T = flat_torus()
    first = trace_flow(T, (0, 0.5 + 0.3j), 0.9, 0.7)
    st = first.state
    rest = trace_flow(T, (st.polygon, st.point), 0.9, 0.8)
    full = trace_flow(T, (0, 0.5 + 0.3j), 0.9, 1.5)
    assert abs(rest.state.point - full.state.point) < 1e-9
    assert first.total_length + rest.total_length == pytest.approx(full.total_length)


def test_wkb_loop_torus_horizontal():
    loop = find_wkb_loop(flat_torus(), (0, 0.5 + 0.3j), 0.0, convention="real-increasing")
    assert abs(loop.period_Z - 1.0) < 1e-9
    assert loop.is_wkb and loop.margin == pytest.approx(1.0)
    assert lift_check(flat_torus(), loop)


def test_wkb_loop_torus_slope():
    theta = math.atan2(1, 2)
    loop = find_wkb_loop(flat_torus(), (0, 0.21 + 0.13j), theta)
    assert abs(abs(loop.period_Z) - math.sqrt(5)) < 1e-6
    assert cmath.phase(loop.period_Z) == pytest.approx(theta, abs=1e-9)
    assert loop.is_wkb


def test_wkb_loop_vertical_on_half_staircase():
    for n in (1, 2, 3):
        S = staircase(n, "left", half=True)
        count = 2 * n + 1
        px, py = (count - 1) // 2, count // 2
        center = complex(px + 0.5, py + 0.5)
        loop = find_wkb_loop(S, (count - 1, center), math.pi / 2)
        assert loop.is_wkb and loop.margin == pytest.approx(1.0)
        assert abs(loop.period_Z) > 0
        assert lift_check(S, loop)


def test_lift_check_parity():
    # a horizontal leaf bouncing between the two folds crosses two
    # half-translation gluings: even parity lifts, but fails the predicate
    S = staircase(2, "left", half=True)
    loop = find_wkb_loop(S, (0, 0.5 + 0.25j), 0.0, convention="real-increasing")
    flips = sum(1 for _a, _b, s in loop.trajectory.crossings if s == -1)
    assert flips == 2
    assert lift_check(S, loop)
    assert not loop.is_wkb


def test_no_recurrence_budget():
    with pytest.raises(NoRecurrenceWithinBudget):
        # an angle whose orbit needs far more length than allowed
        find_wkb_loop(flat_torus(), (0, 0.5 + 0.3j), math.atan2(113, 355), max_length=5.0)


def test_surface_json_round_trip():
    S = staircase(2, "left", half=True)
    blob = json.dumps(S.to_json(), sort_keys=True)
    back = PolygonSurface.from_json(json.loads(blob))
    assert json.dumps(back.to_json(), sort_keys=True) == blob
    assert validate(back).genus == validate(S).genus
