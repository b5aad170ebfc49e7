"""Half-translation surfaces from glued polygons.

Polygons are counterclockwise vertex loops; every edge is identified with
exactly one partner edge by a map w -> sign*w + a (sign +1: translation,
-1: half-translation).  Validation walks corners around each vertex class to
accumulate cone angles, computes the Euler characteristic from the counts
after identification, and reports zero/pole orders.  Straight-line flow
continues across identifications, applying the gluing to position and
direction; loop search follows a leaf until it recurs near its start and
splices a chord connector.

Coordinates are doubles with a 1e-12 gluing tolerance; the built-in staircase
generators emit integer coordinates, for which the combinatorial outputs
(V, E, F, chi, genus, cone orders) are exact integers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    ConnectorNotTransverse,
    GluingLengthMismatch,
    NonManifoldCorner,
    NoRecurrenceWithinBudget,
    UnmatchedEdge,
)

EdgeRef = Tuple[int, int]  # (polygon index, edge index)

GLUE_TOL = 1e-12
VERTEX_TOL = 1e-9
# the flat-coordinate component a WKB loop must keep positive; the first is the default
CONVENTIONS = ("imaginary-increasing", "real-increasing")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Identification:
    """Directed gluing: w on edge a maps to sign*w + offset on edge b."""

    a: EdgeRef
    b: EdgeRef
    sign: int
    offset: complex

    def apply(self, w: complex) -> complex:
        return self.sign * w + self.offset


class PolygonSurface:
    """Polygons with pairwise edge identifications.

    ``identifications`` entries are ((p, e), (q, f), sign) with integer
    in-range edge references and sign the int +1 or -1 (or the string "+1" or
    "-1" that to_json writes); anything else is a ValueError.  The offset of
    the gluing map is derived from the edge endpoints.  Edge e of polygon p
    runs from vertex e to vertex e+1 (cyclically).
    """

    def __init__(self, polygons: Sequence[Sequence[complex]], identifications):
        self.polygons: List[List[complex]] = [
            [complex(v) for v in poly] for poly in polygons
        ]
        if any(len(p) < 3 for p in self.polygons):
            raise ValueError("polygons need at least 3 vertices")
        self.scale = max(
            1.0, max(abs(v) for poly in self.polygons for v in poly)
        )
        self.pairs: List[Tuple[EdgeRef, EdgeRef, int]] = []
        self.glue: Dict[EdgeRef, Identification] = {}
        seen = set()
        for a, b, sign in identifications:
            a, b = self._edge_ref(a), self._edge_ref(b)
            if not (sign in ("+1", "-1") or _is_int(sign) and sign in (1, -1)):
                raise ValueError(f"identification sign must be +1 or -1, got {sign!r}")
            sign = int(sign)
            for ref in {a, b}:
                if ref in seen:
                    raise UnmatchedEdge(f"edge {ref} appears in more than one identification")
                seen.add(ref)
            va, vb = self._edge_vector(a), self._edge_vector(b)
            if abs(abs(va) - abs(vb)) > GLUE_TOL * self.scale:
                raise GluingLengthMismatch(f"edges {a} and {b} have different lengths")
            if abs(vb + sign * va) > GLUE_TOL * self.scale:
                raise GluingLengthMismatch(
                    f"edges {a} and {b} are not matched by a sign-{sign:+d} gluing"
                )
            self.pairs.append((a, b, sign))
            offset_ab = self._edge_end(b) - sign * self._edge_start(a)
            self.glue[a] = Identification(a, b, sign, offset_ab)
            if b != a:
                offset_ba = self._edge_end(a) - sign * self._edge_start(b)
                self.glue[b] = Identification(b, a, sign, offset_ba)
        for p, poly in enumerate(self.polygons):
            for e in range(len(poly)):
                if (p, e) not in self.glue:
                    raise UnmatchedEdge(f"edge ({p}, {e}) has no identification")

    def _edge_ref(self, ref) -> EdgeRef:
        p, e = ref
        in_range = _is_int(p) and _is_int(e) and 0 <= p < len(self.polygons)
        if not (in_range and 0 <= e < len(self.polygons[p])):
            raise ValueError(f"edge reference {ref!r} is not a (polygon, edge) index pair")
        return p, e

    # -- geometry helpers ------------------------------------------------------

    def _edge_start(self, ref: EdgeRef) -> complex:
        p, e = ref
        return self.polygons[p][e]

    def _edge_end(self, ref: EdgeRef) -> complex:
        p, e = ref
        poly = self.polygons[p]
        return poly[(e + 1) % len(poly)]

    def _edge_vector(self, ref: EdgeRef) -> complex:
        return self._edge_end(ref) - self._edge_start(ref)

    def min_edge_length(self) -> float:
        return min(
            abs(self._edge_vector((p, e)))
            for p, poly in enumerate(self.polygons)
            for e in range(len(poly))
        )

    def interior_angle(self, p: int, v: int) -> float:
        poly = self.polygons[p]
        nv = len(poly)
        outgoing = poly[(v + 1) % nv] - poly[v]
        incoming = poly[(v - 1) % nv] - poly[v]
        ang = cmath.phase(incoming / outgoing) % (2 * math.pi)
        if ang == 0.0:
            ang = 2 * math.pi
        return ang

    def contains(self, p: int, z: complex) -> bool:
        """Whether z lies in polygon p, or outside it by at most GLUE_TOL * scale."""
        poly = self.polygons[p]
        nv = len(poly)
        for v in range(nv):
            edge = poly[(v + 1) % nv] - poly[v]
            rel = z - poly[v]
            if (edge.conjugate() * rel).imag < -GLUE_TOL * self.scale:
                return False
        return True

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "polygons": [[[v.real, v.imag] for v in poly] for poly in self.polygons],
            "identifications": [
                [[a[0], a[1]], [b[0], b[1]], f"{sign:+d}"] for a, b, sign in self.pairs
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PolygonSurface":
        return cls(
            [[complex(x, y) for x, y in poly] for poly in data["polygons"]],
            [(tuple(a), tuple(b), s) for a, b, s in data["identifications"]],
        )

    def __repr__(self):
        return f"PolygonSurface({len(self.polygons)} polygons, {len(self.pairs)} gluings)"


@dataclass(frozen=True)
class VertexClass:
    corners: Tuple[Tuple[int, int], ...]
    angle_over_pi: int
    order: int  # angle/pi - 2; -1 marks a simple pole


@dataclass(frozen=True)
class SingularityReport:
    vertex_classes: Tuple[VertexClass, ...]
    V: int
    E: int
    F: int
    chi: int
    genus: int

    def orders(self) -> List[int]:
        return [c.order for c in self.vertex_classes]

    def simple_pole_count(self) -> int:
        return sum(1 for c in self.vertex_classes if c.order == -1)

    def to_json(self) -> dict:
        return {
            "V": self.V,
            "E": self.E,
            "F": self.F,
            "chi": self.chi,
            "genus": self.genus,
            "vertex_classes": [
                {
                    "corners": [list(c) for c in vc.corners],
                    "angle_over_pi": vc.angle_over_pi,
                    "order": vc.order,
                }
                for vc in self.vertex_classes
            ],
        }


def validate(surface: PolygonSurface) -> SingularityReport:
    """Vertex classes, cone angles, Euler characteristic and genus.

    Corners are walked around each vertex: from the corner at the start of an
    edge, cross that edge's gluing and land on the corner at the image
    vertex; iterate until the walk closes.  Interior angles accumulated along
    the cycle give the total cone angle, which must be a multiple of pi.
    """
    corners = [
        (p, v) for p, poly in enumerate(surface.polygons) for v in range(len(poly))
    ]
    remaining = set(corners)
    classes = []
    while remaining:
        start = next(iter(sorted(remaining)))
        cycle = []
        angle = 0.0
        cur = start
        for _guard in range(len(corners) + 1):
            if cur not in remaining:
                raise NonManifoldCorner(f"corner walk revisited {cur} before closing")
            remaining.discard(cur)
            cycle.append(cur)
            angle += surface.interior_angle(*cur)
            p, v = cur
            ident = surface.glue[(p, v)]
            q, f = ident.b
            cur = (q, (f + 1) % len(surface.polygons[q]))
            if cur == start:
                break
        else:
            raise NonManifoldCorner("corner walk failed to close")
        multiple = angle / math.pi
        nearest = round(multiple)
        if nearest < 1 or abs(multiple - nearest) > 1e-6:
            raise NonManifoldCorner(
                f"cone angle {angle:.12f} at {cycle[0]} is not a multiple of pi"
            )
        classes.append(
            VertexClass(corners=tuple(cycle), angle_over_pi=int(nearest), order=int(nearest) - 2)
        )
    V = len(classes)
    E = len(surface.pairs)
    F = len(surface.polygons)
    chi = V - E + F
    if chi % 2 != 0:
        raise NonManifoldCorner(f"odd Euler characteristic {chi}")
    return SingularityReport(
        vertex_classes=tuple(classes), V=V, E=E, F=F, chi=chi, genus=(2 - chi) // 2
    )


# ---------------------------------------------------------------------------
# straight-line flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowState:
    polygon: int
    point: complex
    direction: complex


@dataclass(frozen=True)
class FlatTrajectory:
    theta: float
    pieces: Tuple[Tuple[int, complex, complex], ...]
    total_length: float
    terminated: str  # MaxLength | ConePoint | ClosedUp
    state: FlowState
    crossings: Tuple[Tuple[EdgeRef, EdgeRef, int], ...]

    def developed_displacement(self) -> complex:
        """Flat-coordinate displacement: parity-corrected local displacements."""
        total = 0j
        sign = 1
        for (poly, a, b), crossing in zip(self.pieces, list(self.crossings) + [None]):
            total += sign * (b - a)
            if crossing is not None and crossing[2] == -1:
                sign = -sign
        return total


def _ray_exit(surface: PolygonSurface, p: int, z: complex, d: complex):
    """First boundary hit of the ray z + s d inside polygon p.

    Returns (s, edge index, hit point); vertex hits are resolved by the
    caller through proximity.
    """
    poly = surface.polygons[p]
    nv = len(poly)
    best = None
    for e in range(nv):
        a = poly[e]
        b = poly[(e + 1) % nv]
        ev = b - a
        denom = (d.real * (-ev.imag)) - (d.imag * (-ev.real))
        if abs(denom) < 1e-15 * surface.scale:
            continue
        rx, ry = (a - z).real, (a - z).imag
        s = (rx * (-ev.imag) - ry * (-ev.real)) / denom
        u = (d.real * ry - d.imag * rx) / denom
        if s > 1e-9 and -1e-9 <= u <= 1 + 1e-9:
            if best is None or s < best[0]:
                best = (s, e, z + s * d)
    if best is None:
        raise NonManifoldCorner(
            f"flow ray from {z} in polygon {p} found no exit; point outside?"
        )
    return best


def trace_flow(
    surface: PolygonSurface,
    start: Tuple[int, complex],
    theta: float,
    max_length: float,
    close_tol: float = 1e-9,
) -> FlatTrajectory:
    """Straight-line continuation across identifications.

    Gluing maps act on position and direction.  Stops at max_length, within
    VERTEX_TOL of a cone point (status ConePoint, not an exception), or when
    the flow returns within close_tol of the start with matching direction
    (status ClosedUp).  start is (polygon, point): a polygon that is not an
    in-range int (bools refused), a point that is not finite or not inside
    that polygon, a non-finite theta, or a max_length that is not finite and
    positive raises ValueError.
    """
    if not math.isfinite(theta):
        raise ValueError(f"flow angle must be finite, got {theta!r}")
    if not (math.isfinite(max_length) and max_length > 0):
        raise ValueError(f"max_length must be finite and positive, got {max_length!r}")
    p0, z0 = start[0], complex(start[1])
    if not (_is_int(p0) and 0 <= p0 < len(surface.polygons)):
        raise ValueError(f"start polygon {p0!r} is not a polygon index")
    if not cmath.isfinite(z0):
        raise ValueError(f"start point {z0} is not finite")
    if not surface.contains(p0, z0):
        raise ValueError(f"start point {z0} is not inside polygon {p0}")
    origin = state = FlowState(p0, z0, cmath.exp(1j * theta))
    pieces: List[Tuple[int, complex, complex]] = []
    crossings: List[Tuple[EdgeRef, EdgeRef, int]] = []
    traveled = 0.0
    for _ in range(1_000_000):
        s, e, hit = _ray_exit(surface, state.polygon, state.point, state.direction)
        seg_len = s  # |direction| = 1

        # events on this piece, earliest along the ray wins
        events = []
        foot = _closure_foot(origin, state, hit, traveled, close_tol)
        if foot is not None:
            events.append((abs(foot - state.point), foot, "ClosedUp"))
        if traveled + seg_len >= max_length:
            cut = state.point + (max_length - traveled) * state.direction
            events.append((max_length - traveled, cut, "MaxLength"))
        if not events and any(abs(hit - v) < VERTEX_TOL for v in surface.polygons[state.polygon]):
            events.append((seg_len, hit, "ConePoint"))
        if events:
            dist, cut, status = min(events, key=lambda ev: ev[0])
            pieces.append((state.polygon, state.point, cut))
            return FlatTrajectory(
                theta=theta,
                pieces=tuple(pieces),
                total_length=traveled + dist,
                terminated=status,
                state=FlowState(state.polygon, cut, state.direction),
                crossings=tuple(crossings),
            )

        pieces.append((state.polygon, state.point, hit))
        traveled += seg_len
        ident = surface.glue[(state.polygon, e)]
        new_point = ident.apply(hit)
        new_dir = ident.sign * state.direction
        crossings.append((ident.a, ident.b, ident.sign))
        state = FlowState(ident.b[0], new_point, new_dir)
    raise NoRecurrenceWithinBudget("flow exceeded the crossing budget")


def _closure_foot(origin: FlowState, state: FlowState, hit: complex, traveled: float, close_tol: float):
    """The point where the piece from state.point to hit closes the flow
    started at origin, or None: it must pass within close_tol of the start
    point, heading in the start direction, after 10 * close_tol of travel.

    A gluing maps a direction d to exactly sign*d with sign = +1 or -1, so
    every piece heads in exactly plus or minus the start direction and the
    direction test is exact.
    """
    z0 = origin.point
    if state.polygon != origin.polygon or state.direction != origin.direction:
        return None
    seg = hit - state.point
    L2 = abs(seg) ** 2
    if L2 == 0:
        return None
    t = ((z0 - state.point) * seg.conjugate()).real / L2
    if t < 0 or t > 1:
        return None
    foot = state.point + t * seg
    if abs(foot - z0) > close_tol or traveled + abs(foot - state.point) < 10 * close_tol:
        return None
    return foot


# ---------------------------------------------------------------------------
# WKB loops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WkbLoop:
    """A recurrent leaf closed by a chord connector, with its exact period.

    period_Z sums the parity-corrected flat displacement of every piece plus
    the connector; nonzero period certifies the loop is homologically
    nontrivial.
    """

    trajectory: FlatTrajectory
    connector: Optional[Tuple[int, complex, complex]]
    period_Z: complex
    is_wkb: bool
    margin: float
    convention: str

    def to_json(self) -> dict:
        conn = None
        if self.connector is not None:
            p, a, b = self.connector
            conn = {"polygon": p, "from": [a.real, a.imag], "to": [b.real, b.imag]}
        return {
            "theta": self.trajectory.theta,
            "pieces": [
                {"polygon": p, "from": [a.real, a.imag], "to": [b.real, b.imag]}
                for p, a, b in self.trajectory.pieces
            ],
            "connector": conn,
            "period_Z": [self.period_Z.real, self.period_Z.imag],
            "is_wkb": self.is_wkb,
            "margin": self.margin,
            "convention": self.convention,
            "length": self.trajectory.total_length,
        }


def _axis_component(d: complex, convention: str) -> float:
    return d.imag if convention == CONVENTIONS[0] else d.real


def find_wkb_loop(
    surface: PolygonSurface,
    start: Tuple[int, complex],
    theta_seed: float,
    max_length: float = 400.0,
    convention: str = CONVENTIONS[0],
) -> WkbLoop:
    """Trace the leaf at theta_seed until it recurs near the start, then close it.

    Recurrence means returning into an eta-ball around the start, eta = 0.01
    times the shortest edge, with the direction matched on the sign double
    cover; the connector is a straight chord.  start is checked as
    :func:`trace_flow` checks it.  The predicate asks the chosen flat-coordinate component of every
    local piece direction (connector included) to be strictly positive; the
    margin is the worst such component per unit length.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention is {' or '.join(CONVENTIONS)}")
    p0, z0 = start[0], complex(start[1])
    traj = trace_flow(surface, start, theta_seed, max_length, close_tol=0.01 * surface.min_edge_length())
    if traj.terminated == "ConePoint":
        raise NoRecurrenceWithinBudget(
            "leaf ran into a cone point before recurring; change the angle"
        )
    if traj.terminated == "MaxLength":
        raise NoRecurrenceWithinBudget(
            f"no recurrence within length {max_length}; raise the budget or change theta"
        )

    endpoint = traj.state.point
    connector = None
    connector_len = abs(z0 - endpoint)
    if connector_len > 1e-12:
        connector = (p0, endpoint, z0)

    # predicate over pieces and connector
    margin = math.inf
    for _poly, a, b in traj.pieces:
        d_local = (b - a) / abs(b - a)
        margin = min(margin, _axis_component(d_local, convention))
    piece_margin = margin
    if connector is not None:
        d_conn = (z0 - endpoint) / connector_len
        conn_component = _axis_component(d_conn, convention)
        if conn_component <= 0 < piece_margin:
            raise ConnectorNotTransverse(
                "connector violates the monotonicity predicate; retry with a "
                "rotated connector or a longer trace"
            )
        margin = min(margin, conn_component)

    period = traj.developed_displacement()
    if connector is not None:
        period += z0 - endpoint
    is_wkb = margin > 1e-12
    return WkbLoop(
        trajectory=traj,
        connector=connector,
        period_Z=period,
        is_wkb=is_wkb,
        margin=margin,
        convention=convention,
    )


def lift_check(surface: PolygonSurface, loop: WkbLoop) -> bool:
    """True when the loop crosses an even number of half-translation gluings:
    its lift to the orientation double cover splits into two disjoint loops."""
    flips = sum(1 for _a, _b, sign in loop.trajectory.crossings if sign == -1)
    return flips % 2 == 0


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def flat_torus() -> PolygonSurface:
    """The unit square with opposite sides identified by translation."""
    return PolygonSurface([[0, 1, 1 + 1j, 1j]], [((0, 0), (0, 2), +1), ((0, 1), (0, 3), +1)])


def staircase(n: int, style: str = "left", half: bool = False) -> PolygonSurface:
    """Staircases of unit squares reproducing the reference gluing patterns.

    Translation surfaces: left style glues 2n squares, right style 2n-1;
    both have genus n.  Half-translation variants add one square (left: 2n+1,
    right: 2n) and fold the first square's outer sides, creating exactly two
    angle-pi cone points; the genus stays n.

    Square k = 0, 1, ... has its lower-left corner at (k//2, (k+1)//2): an
    even square carries square k+1 on its top, an odd one beside its right.
    Its edges are bottom 0, right 1, top 2, left 3; the folded first square
    splits both sides at mid-height (bottom 0, right 1 and 2, top 3, left 4
    and 5) and is alone in row 0.  Gluings come in this order: neighbours,
    then per column the lowest bottom to the highest top, then per row the
    leftmost left to the rightmost right, except that the folded square's
    row folds each of its two sides in half (sign -1) instead of wrapping.
    """
    if n < 1:
        raise ValueError("n >= 1")
    if style not in ("left", "right"):
        raise ValueError("style is left or right")
    count = 2 * n - (style == "right") + (1 if half else 0)
    unit = [0, 1, 1 + 1j, 1j]
    folded = [0, 1, 1 + 0.5j, 1 + 1j, 1j, 0.5j]
    polygons = [
        [complex(k // 2, (k + 1) // 2) + v for v in (folded if half and k == 0 else unit)]
        for k in range(count)
    ]

    def top(k: int) -> EdgeRef:
        return (k, 3 if half and k == 0 else 2)

    idents = [
        (top(k), (k + 1, 0), +1) if k % 2 == 0 else ((k, 1), (k + 1, 3), +1)
        for k in range(count - 1)
    ]
    idents += [((2 * x, 0), top(min(2 * x + 1, count - 1)), +1) for x in range((count + 1) // 2)]
    if half:
        idents += [((0, 1), (0, 2), -1), ((0, 4), (0, 5), -1)]
    idents += [
        ((max(2 * y - 1, 0), 3), (min(2 * y, count - 1), 1), +1)
        for y in range(1 if half else 0, count // 2 + 1)
    ]
    return PolygonSurface(polygons, idents)
