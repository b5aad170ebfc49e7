"""Parallel transport of parameter families, spectral periods, WKB rate fits.

Paths are piecewise lines/arcs parametrized proportionally to arc length.
Transport carries the flat-section system S'(t) = -M(t) S(t) for a whole eps
grid, a (B, n, n) stack, segment by segment; a single transport is the
one-member grid.  The K term matrices of M = sum_k eps^x_k M_k are pulled
back side by side, as one (n, K*n) block.  Whether a segment's block depends
on t is decided once: a z-independent family on a line segment has constant
M there, and S is multiplied by the closed form expm(-M dt) (scaling and
squaring, Higham 2005).  Any other segment is solved by an adaptive embedded
pair (DOP853) on the grid laid side by side, one (n, B*n) state, so that a
right-hand side is one 2-D product; all members share one step count, and
a solve that fails on an overflowed double raises HolonomyOverflow.
est_error compares a second run at a hundredfold tighter tolerance (only
where DOP853 runs: the exponentials do not depend on it), plus the roundoff
the steps and the exponentials can accumulate, so it bounds each reported
matrix.
Determinant fidelity of a sample is meaningful while eps_machine * ||H||^2
stays below est_error; beyond, the determinant of the stored double-precision
matrix is dominated by representation roundoff.

The eigenvalue track continues the sheets of Phi's spectral cover (eigvals
rows of its coefficient, matched node to node at every rank) and reports
them times gamma'(t).  Transport's M(t) and the track's rows are read by one
per-segment sampler, _pulled_back(forms, gamma, value): where the forms are
constant it evaluates value(z, v) once, elsewhere on Python scalars at each
t.  On a constant segment the track's ends are its only grid nodes and
the period adds mu (t_{k+1} - t_k) in closed form.  Elsewhere the track's
grid nodes are evaluated once, when it is built; the WKB predicate reads
them back, and the period's real and imaginary quadratures share their
evaluations.  A period (a complex) carries the WKB verdict of its path.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from .algebra import _Frozen
from .connection import ConnectionFamily, MatrixOneForm
from .errors import (
    BranchPointOnPath,
    ClearanceViolated,
    HolonomyOverflow,
    InsufficientSamples,
    NonDecayingSequence,
    NonFiniteSample,
    StiffnessBudgetExceeded,
    TieAtStart,
)

DEFAULT_CLEARANCE = 1e-6
# the largest rel_tol transport accepts; up to it est_error bounds the actual error of every closed-form test case
MAX_REL_TOL = 1e-2
STEP_BUDGET = 10_000_000
# roundoff of expm(X) in units of 2.3e-16 (1 + ||X||) ||expm(X)||, calibrated against mpmath.expm
EXPM_ROUNDOFF = 10


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def length(self) -> float:
        return abs(self.end - self.start)

    def point(self, s: float) -> complex:
        return self.start + s * (self.end - self.start)

    def velocity(self, s: float) -> complex:
        return self.end - self.start

    def reversed(self) -> "LineSegment":
        return LineSegment(self.end, self.start)

    def distance_to(self, q: complex) -> float:
        d = self.end - self.start
        s = max(0.0, min(1.0, ((q - self.start) * d.conjugate()).real / abs(d) ** 2))
        return abs(q - self.point(s))

    def to_json(self) -> dict:
        return {
            "type": "line",
            "from": [self.start.real, self.start.imag],
            "to": [self.end.real, self.end.imag],
        }


@dataclass(frozen=True)
class ArcSegment:
    center: complex
    radius: float
    angle0: float
    angle1: float

    def length(self) -> float:
        return abs(self.angle1 - self.angle0) * self.radius

    def point(self, s: float) -> complex:
        theta = self.angle0 + s * (self.angle1 - self.angle0)
        return self.center + self.radius * cmath.exp(1j * theta)

    def velocity(self, s: float) -> complex:
        theta = self.angle0 + s * (self.angle1 - self.angle0)
        return 1j * (self.angle1 - self.angle0) * self.radius * cmath.exp(1j * theta)

    def reversed(self) -> "ArcSegment":
        return ArcSegment(self.center, self.radius, self.angle1, self.angle0)

    def distance_to(self, q: complex) -> float:
        # radial where the ray through q meets the arc (the swept angle lies in [0, 2 pi]), else the nearer end
        rel = q - self.center
        span = self.angle1 - self.angle0
        if (cmath.phase(rel) - self.angle0) * math.copysign(1.0, span) % (2 * math.pi) <= abs(span):
            return abs(abs(rel) - self.radius)
        return min(abs(q - self.point(0.0)), abs(q - self.point(1.0)))

    def to_json(self) -> dict:
        return {
            "type": "arc",
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "angles": [self.angle0, self.angle1],
        }


Segment = LineSegment | ArcSegment


class ParamPath:
    """Piecewise path, parametrized over [0,1] proportionally to arc length.

    Every endpoint, centre, radius and angle must be finite.  Consecutive
    segments must share endpoints; a closed path returns to its start.
    ``orientation`` records whether the path is a reversal: the eigenvalue
    track's leading sheet follows it, making periods odd under reversal.
    """

    def __init__(self, segments: Sequence[Segment], closed: bool = False, orientation: int = 1):
        segments = tuple(segments)
        if not segments:
            raise ValueError("a path needs at least one segment")
        for s in segments:
            if not all(cmath.isfinite(x) for x in astuple(s)):
                raise ValueError(f"non-finite path coordinate in {s!r}")
        scale = max(1.0, max(abs(s.point(0.0)) + abs(s.point(1.0)) for s in segments))
        for a, b in zip(segments, segments[1:]):
            if abs(a.point(1.0) - b.point(0.0)) > 1e-12 * scale:
                raise ValueError("consecutive segments do not share endpoints")
        if closed and abs(segments[-1].point(1.0) - segments[0].point(0.0)) > 1e-12 * scale:
            raise ValueError("closed path must end where it starts")
        self.segments = segments
        self.closed = closed
        self.orientation = 1 if orientation >= 0 else -1
        lengths = [s.length() for s in segments]
        if any(L <= 0 for L in lengths):
            raise ValueError("zero-length path segment")
        total = sum(lengths)
        self.total_length = total
        breaks = [0.0]
        for L in lengths:
            breaks.append(breaks[-1] + L / total)
        breaks[-1] = 1.0
        self.breaks = breaks

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[complex], closed: bool = False) -> "ParamPath":
        pts = [complex(p) for p in points]
        if closed and pts[-1] != pts[0]:
            pts.append(pts[0])
        return cls(
            [LineSegment(a, b) for a, b in zip(pts, pts[1:])],
            closed=closed,
        )

    @classmethod
    def segment(cls, start: complex, end: complex) -> "ParamPath":
        return cls([LineSegment(complex(start), complex(end))])

    @classmethod
    def circle(cls, center: complex = 0j, radius: float = 1.0) -> "ParamPath":
        return cls([ArcSegment(complex(center), radius, 0.0, 2 * math.pi)], closed=True)

    def reversed(self) -> "ParamPath":
        return ParamPath(
            [s.reversed() for s in reversed(self.segments)],
            closed=self.closed,
            orientation=-self.orientation,
        )

    # -- evaluation ------------------------------------------------------------

    def _locate(self, t: float) -> Tuple[int, float, float]:
        t = min(1.0, max(0.0, t))
        k = min(bisect_right(self.breaks, t) - 1, len(self.segments) - 1)
        t0, t1 = self.breaks[k], self.breaks[k + 1]
        return k, (t - t0) / (t1 - t0), t1 - t0

    def point(self, t: float) -> complex:
        k, s, _dt = self._locate(t)
        return self.segments[k].point(s)

    def velocity(self, t: float) -> complex:
        k, s, dt = self._locate(t)
        return self.segments[k].velocity(s) / dt

    def check_clearance(self, punctures) -> None:
        """ClearanceViolated if the path passes within DEFAULT_CLEARANCE of a puncture."""
        for p in punctures:
            q = p.to_complex()
            d = min(seg.distance_to(q) for seg in self.segments)
            if d < DEFAULT_CLEARANCE:
                raise ClearanceViolated(
                    f"path passes within {d:.3e} of puncture {q} (clearance {DEFAULT_CLEARANCE:.1e})"
                )

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "segments": [s.to_json() for s in self.segments],
            "closed": self.closed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ParamPath":
        segs: List[Segment] = []
        for s in data["segments"]:
            if s["type"] == "line":
                segs.append(LineSegment(complex(*s["from"]), complex(*s["to"])))
            elif s["type"] == "arc":
                segs.append(
                    ArcSegment(complex(*s["center"]), float(s["radius"]), *map(float, s["angles"]))
                )
            else:
                raise ValueError(f"unknown segment type {s['type']!r}")
        closed = data.get("closed", False)
        if not isinstance(closed, bool):
            raise ValueError(f"closed must be true or false, got {closed!r}")
        return cls(segs, closed=closed)

    def __repr__(self):
        return f"ParamPath({len(self.segments)} segments, closed={self.closed})"


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolonomySample:
    """One transported family member: eps, fundamental matrix at t=1, trace.

    ``steps`` and ``rhs_evals`` are DOP853's accepted steps and RHS evaluations
    in the fine run, none on constant segments; one grid's members share them.
    """

    epsilon: float
    holonomy: np.ndarray
    trace: complex
    est_error: float
    steps: int = 0
    rhs_evals: int = 0


def _constant_segments(forms: Sequence[MatrixOneForm], gamma: ParamPath) -> List[bool]:
    """Per segment of gamma, whether the forms pull back to constants there:
    a line segment (constant velocity) on which every nonzero entry is
    constant in z (numerator and denominator of degree (0, 0))."""
    entries = (e for form in forms for _i, _j, *pair in form.nonzero_entries() for e in pair if e)
    flat = all(e.num.degree() == e.den.degree() == (0, 0) for e in entries)
    return [flat and isinstance(seg, LineSegment) for seg in gamma.segments]


def _term_matrices(forms: Sequence[MatrixOneForm], n: int) -> Callable[[complex, complex], np.ndarray]:
    """(z, v) -> the K term matrices P(z) v + Q(z) conj(v), one per form
    k = P dz + Q dzbar, side by side as one (n, K*n) row block: entry (i, j)
    of term k is at row i, column k*n + j.  Each nonzero entry is compiled
    once and evaluated on Python scalars."""
    K = len(forms)
    entries = [
        ((i * K + k) * n + j, dz_e.compiled() if dz_e else None, dzbar_e.compiled() if dzbar_e else None)
        for k, form in enumerate(forms)
        for i, j, dz_e, dzbar_e in form.nonzero_entries()
    ]
    shape = (n, K * n)

    def evaluate(z: complex, v: complex) -> np.ndarray:
        vv = v.conjugate()
        out = np.zeros(shape[0] * shape[1], dtype=complex)
        for idx, dz_fn, dzbar_fn in entries:
            acc = 0j
            if dz_fn is not None:
                acc += dz_fn(z) * v
            if dzbar_fn is not None:
                acc += dzbar_fn(z) * vv
            out[idx] = acc
        return out.reshape(shape)

    return evaluate


def _pulled_back(forms: Sequence[MatrixOneForm], gamma: ParamPath, value: Callable[[complex, complex], Any]) -> List[Any]:
    """Per segment of gamma, value(gamma(t), gamma'(t)) of a field built from forms.

    Whether the forms depend on t is decided once per segment, by
    :func:`_constant_segments`.  Where they do not, that segment's item is
    value evaluated once (read-only if it is an array).  Any other segment's
    item is a map t -> value at s = (t - t_k) / (t_{k+1} - t_k), clamped to
    [0, 1], on that segment alone.  Both evaluate on Python scalars.
    """

    def on_segment(seg: Segment, t0: float, t1: float, constant: bool):
        dt = t1 - t0
        if constant:
            P = value(seg.point(0.0), seg.velocity(0.0) / dt)
            if isinstance(P, np.ndarray):
                P.flags.writeable = False
            return P

        def P(t: float):
            s = min(1.0, max(0.0, (float(t) - t0) / dt))
            return value(seg.point(s), seg.velocity(s) / dt)

        return P

    constant = _constant_segments(forms, gamma)
    return [on_segment(*args) for args in zip(gamma.segments, gamma.breaks, gamma.breaks[1:], constant)]


def _on_path(pieces: Sequence[Any], gamma: ParamPath) -> Callable[[float], Any]:
    """t -> the value along the whole path, from the item of
    :func:`_pulled_back` for the segment that holds t."""

    def P(t: float):
        piece = pieces[gamma._locate(float(t))[0]]
        return piece(t) if callable(piece) else piece

    return P


def _term_weights(family: ConnectionFamily, epsilons: Sequence[float]) -> Tuple[List[MatrixOneForm], np.ndarray]:
    """The family's nonzero term forms and the (B, K) weights eps_b^exponent_k.

    Fractional term exponents become real powers of the (positive) parameter
    here and only here.
    """
    for e in epsilons:
        if not (math.isfinite(e) and e > 0):
            raise ValueError(f"epsilon must be finite and positive, got {e!r}")
    terms = [(float(x), form) for _name, x, form in family.terms() if not form.is_zero]
    weights = [[float(e) ** x for x, _form in terms] for e in epsilons]
    return [form for _x, form in terms], np.array(weights, dtype=complex).reshape(len(epsilons), len(terms))


def pullback(family: ConnectionFamily, gamma: ParamPath, epsilon: float) -> Callable[[float], np.ndarray]:
    """t -> sum over terms of eps^exponent (P(gamma(t)) gamma'(t) + Q(gamma(t)) conj(gamma'(t))).

    The path must keep DEFAULT_CLEARANCE from every declared puncture."""
    n = family.n
    forms, weights = _term_weights(family, [epsilon])
    gamma.check_clearance(family.punctures)
    P = _on_path(_pulled_back(forms, gamma, _term_matrices(forms, n)), gamma)
    # (K,) @ (n, K, n): one matmul per row, summing the side-by-side terms
    return lambda t: weights[0] @ P(t).reshape(n, len(forms), n)


def _frobenius(a: np.ndarray):
    """Frobenius norm of a, per member if a is (B, n, n); where the plain sum of squares
    overflows (entries past about 1e154) on a finite matrix, it is taken on a / max|a_ij|."""
    if a.ndim == 3:
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(a, axis=(1, 2))
        for b in np.flatnonzero(np.isinf(norms)):
            norms[b] = _frobenius(a[b])
        return norms
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if math.isinf(norm) and np.isfinite(a).all():
        top = float(np.abs(a).max())
        norm = top * float(np.linalg.norm(a / top))
    return norm


def _integrate(pieces, neg_weights, y, breaks, rtol) -> Tuple[np.ndarray, int, int, np.ndarray]:
    """The stacked (B, n, n) state y carried across the path one segment at a
    time: a constant segment (an array item P of :func:`_pulled_back`) by its
    closed form expm(X_b), X_b = -M_b (t_{k+1} - t_k), any other by DOP853.

    A constant segment reads its (n, K*n) term block back as (K, n*n) rows,
    one transpose per segment, and combines them with the (B, K) weights.
    On a DOP853 segment the grid is one (n, B*n) state Y, whose column
    b*n + j is column j of member b, and each right-hand side is one 2-D
    product P(t) @ (Y * C).reshape(K*n, B*n): C, (K, 1, B*n), scales member
    b's columns by its weight -w_bk in term k's row block.  Y is transposed
    in from y and out to it once per segment.

    Returns the final state, DOP853's accepted steps and RHS evaluations, and
    per member the exponentials' roundoff bound: EXPM_ROUNDOFF 2.3e-16
    (1 + ||X_b||) ||y_b|| each, times the norms of this and later propagators.
    After an exponential, DOP853 solves for its segment's propagator from the
    identity, which carries that bound; its steps and the product with y add
    2.3e-16 ||y_b|| each.

    A DOP853 solve that fails with a floating-point overflow or invalid
    operation after its last RHS evaluation began raises HolonomyOverflow
    naming the segment; one that fails otherwise raises
    StiffnessBudgetExceeded.  Overflows in steps DOP853 rejects and retries
    change nothing, and none of them warns.
    """
    (B, K), n = neg_weights.shape, y.shape[-1]
    steps = rhs_evals = 0
    roundoff = np.zeros(B)
    for k, (P, t0, t1) in enumerate(zip(pieces, breaks, breaks[1:])):
        if not callable(P):
            terms = P.reshape(n, K, n).transpose(1, 0, 2).reshape(K, n * n)
            X = (neg_weights @ terms).reshape(y.shape) * (t1 - t0)
            with np.errstate(over="ignore", invalid="ignore"):
                E = expm(X)
                roundoff = _frobenius(E) * (roundoff + EXPM_ROUNDOFF * 2.3e-16 * (1.0 + _frobenius(X)) * _frobenius(y))
                y = E @ y
            continue
        overflows = []  # floating-point errors since the latest RHS call began
        C = np.repeat(neg_weights.T, n, axis=1).reshape(K, 1, B * n)

        def rhs(t, s):
            overflows.clear()
            return (P(t) @ (s.reshape(n, B * n) * C).reshape(K * n, B * n)).reshape(-1)

        start = np.tile(np.eye(n, dtype=complex), (1, B)) if roundoff.any() else y.transpose(1, 0, 2).reshape(n, B * n)
        with np.errstate(over="call", invalid="call", call=lambda err, flag: overflows.append(err)):
            sol = solve_ivp(rhs, (t0, t1), start.reshape(-1), method="DOP853", rtol=rtol, atol=rtol * 1e-3)
        if sol.status != 0 and overflows:
            raise HolonomyOverflow(f"DOP853 overflowed a double on segment {k} [{t0}, {t1}] after t = {sol.t[-1]:.6g}")
        if sol.status != 0:
            raise StiffnessBudgetExceeded(f"integrator failed on [{t0}, {t1}]: {sol.message}")
        steps += len(sol.t) - 1
        rhs_evals += sol.nfev
        if steps > STEP_BUDGET:
            raise StiffnessBudgetExceeded(f"step budget {STEP_BUDGET} exceeded")
        # a copy: a view keeps the whole solution history alive
        end = sol.y[:, -1].reshape(n, B, n).transpose(1, 0, 2).copy()
        if roundoff.any():
            roundoff, end = _frobenius(end) * (roundoff + 2.3e-16 * len(sol.t) * _frobenius(y)), end @ y
        y = end
    return y, steps, rhs_evals, roundoff


def transport(
    family: ConnectionFamily,
    gamma: ParamPath,
    epsilon: float,
    rel_tol: float = 1e-10,
) -> HolonomySample:
    """Fundamental matrix S(1) of s' = -M(t)s, S(0) = 1, along the path.

    The one-member grid of :func:`transport_grid`.
    """
    return transport_grid(family, gamma, [epsilon], rel_tol)[0]


def transport_grid(
    family: ConnectionFamily,
    gamma: ParamPath,
    epsilons: Sequence[float],
    rel_tol: float = 1e-10,
) -> List[HolonomySample]:
    """Fundamental matrices S_b(1) of S_b' = -M_b(t) S_b, S_b(0) = 1, in input order.

    The whole grid, a (B, n, n) stack, is carried across the path together
    by :func:`_integrate` at the requested tolerance and again a hundredfold
    tighter; the tighter run is reported.  A path with no DOP853 segment is
    carried once: its coarse run would be the same bits.  A member's
    est_error is the Frobenius distance between its two runs, but at least
    2.3e-16 (1 + ||S_b||) steps (a member far less stiff than the stiffest
    one ends both runs at roundoff), plus the exponentials' roundoff bound,
    which both runs share.
    A member whose holonomy or est_error is not finite raises HolonomyOverflow.
    rel_tol must be finite and in (0, MAX_REL_TOL] (ValueError otherwise).
    """
    if not (math.isfinite(rel_tol) and 0 < rel_tol <= MAX_REL_TOL):
        raise ValueError(f"rel_tol must be finite and in (0, {MAX_REL_TOL:g}], got {rel_tol!r}")
    eps = [float(e) for e in epsilons]
    if not eps:
        return []
    forms, weights = _term_weights(family, eps)
    gamma.check_clearance(family.punctures)
    pieces = _pulled_back(forms, gamma, _term_matrices(forms, family.n))
    y0 = np.tile(np.eye(family.n, dtype=complex), (len(eps), 1, 1))
    coarse = _integrate(pieces, -weights, y0, gamma.breaks, max(rel_tol, 3e-14))[0] if any(map(callable, pieces)) else None
    fine, steps, rhs_evals, roundoff = _integrate(pieces, -weights, y0, gamma.breaks, max(rel_tol * 1e-2, 3e-14))
    samples = []
    for e, c, f, r in zip(eps, fine if coarse is None else coarse, fine, roundoff):
        if not np.isfinite(f).all():
            raise HolonomyOverflow(f"holonomy at eps={e!r} exceeds double precision")
        est = float(max(_frobenius(c - f), 2.3e-16 * (1.0 + _frobenius(f)) * steps) + r)
        if not math.isfinite(est):
            raise HolonomyOverflow(f"est_error at eps={e!r} exceeds double precision")
        samples.append(HolonomySample(e, f, complex(np.trace(f)), est, steps=steps, rhs_evals=rhs_evals))
    return samples


# ---------------------------------------------------------------------------
# spectral tracking
# ---------------------------------------------------------------------------


def _matched(prev: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """lam reordered by the one-to-one match nearest to prev.  Where each
    entry of prev has a different nearest entry of lam, that map is the
    match: its cost bounds every assignment's from below."""
    dist = np.abs(lam[None, :] - prev[:, None])
    nearest = dist.argmin(axis=1)
    if len(set(nearest.tolist())) == len(nearest):
        return lam[nearest]
    from scipy.optimize import linear_sum_assignment

    return lam[linear_sum_assignment(dist)[1]]


def _closest_pair(row: np.ndarray) -> float:
    """The smallest distance between two entries of row."""
    return min(abs(a - b) for a, b in combinations(row.tolist(), 2))


class EigenvalueTrack:
    """The sheets of Phi's spectral cover, continued along a path.

    Phi = phi(z) dz must be a (1,0)-form (ValueError otherwise).  At gamma(t)
    the sheet row is eigvals(phi(gamma(t))), and the track reports it times
    the velocity gamma'(t): the eigenvalues of the pulled-back field.  Each
    grid node keeps its sheet row and its velocity apart, so a corner of the
    path, where gamma' jumps, moves no sheet.  A row at t is continued from
    the node before t: the sheet row there is matched to the node's
    (:func:`_matched`).

    The first row is sorted by orientation * Re(lam gamma'(0)), largest
    first (TieAtStart if the leading two tie).  Reversing a path negates
    gamma' and flips the orientation, so the same sheet leads and periods
    are odd under reversal; exactly so on a constant segment, whose sheets
    are the same bits both ways.

    The field is read through :func:`_pulled_back`, as transport reads M:
    on a segment where it is constant it is evaluated once, and the
    segment's ends are its only grid nodes.  Other segments take an even
    grid of GRID_SIZE points over [0, 1], plus a midpoint wherever a step
    moves a sheet by more than a quarter of the closest pair of sheets at
    either end.  BranchPointOnPath if two sheets at a node are closer than
    BRANCH_TOL times the largest, or if following them takes a step below
    1e-9 or more than MAX_NODES nodes.
    """

    BRANCH_TOL = 1e-12
    GRID_SIZE = 257
    MAX_NODES = 2**16

    def __init__(self, Phi: MatrixOneForm, gamma: ParamPath):
        self.gamma = gamma
        if not Phi.dzbar_part.is_zero:
            raise ValueError("eigenvalue tracking expects a (1,0)-form field")
        term = _term_matrices([Phi], Phi.n)
        pieces = _pulled_back([Phi], gamma, lambda z, v: (np.linalg.eigvals(term(z, 1.0)), v))
        self._at = _on_path(pieces, gamma)
        self._constant = [not callable(p) for p in pieces]
        self._build()

    def constant_at(self, t: float) -> bool:
        """Whether the field is constant on the segment that holds t (a break
        belongs to the segment it starts, t = 1 to the last)."""
        return self._constant[self.gamma._locate(t)[0]]

    def _start_grid(self) -> List[float]:
        """Every break, and the points of an even grid of GRID_SIZE over
        [0, 1] that do not lie inside a segment where the field is constant."""
        breaks = self.gamma.breaks
        even = np.linspace(0.0, 1.0, self.GRID_SIZE)
        for t0, t1, constant in zip(breaks, breaks[1:], self._constant):
            if constant:
                even = even[(even <= t0) | (even >= t1)]
        return sorted(set(even) | set(breaks))

    def _build(self):
        todo = self._start_grid()[::-1]  # a stack: the next node is last
        t = todo.pop()
        sheets, v = self._at(t)
        lead = self.gamma.orientation * (sheets * v).real
        order = np.argsort(-lead, kind="stable")
        ts, rows, velocities, gaps = [t], [sheets[order]], [v], [_closest_pair(sheets)]
        while todo:
            t = todo[-1]
            sheets, v = self._at(t)
            sheets = _matched(rows[-1], sheets)
            gap = _closest_pair(sheets)
            if np.abs(sheets - rows[-1]).max() > 0.25 * min(gap, gaps[-1]):
                if t - ts[-1] <= 1e-9 or len(ts) + len(todo) > self.MAX_NODES:
                    raise BranchPointOnPath("two sheets of Phi come too close to follow on the path")
                todo.append(0.5 * (ts[-1] + t))
                continue
            todo.pop()
            ts.append(t)
            rows.append(sheets)
            velocities.append(v)
            gaps.append(gap)
        if not min(gaps) > self.BRANCH_TOL * max(np.abs(row).max() for row in rows):
            raise BranchPointOnPath("two sheets of Phi collide on the path")
        if lead[order[0]] - lead[order[1]] <= self.BRANCH_TOL * np.abs(rows[0] * velocities[0]).max():
            raise TieAtStart("the leading two Re(lam gamma'(0)) tie within tolerance; cannot order the sheets")
        self._ts, self._sheets, self._velocities = ts, rows, velocities

    # -- public surface ----------------------------------------------------------------

    def _continued(self, t: float) -> np.ndarray:
        """The eigenvalue row at t, its sheets continued from the grid node before it."""
        sheets, v = self._at(t)
        return _matched(self._sheets[min(bisect_right(self._ts, t) - 1, len(self._ts) - 2)], sheets) * v

    def __call__(self, t: float) -> complex:
        return complex(self._continued(t)[0])

    def values(self, t: float) -> np.ndarray:
        return self._continued(t)

    def grid(self) -> List[float]:
        return list(self._ts)

    def node_values(self) -> List[np.ndarray]:
        """values(t) at every node of grid(), from the rows stored when the
        track was built: matched against itself, a row of distinct sheets
        comes back unchanged."""
        return [row * v for row, v in zip(self._sheets, self._velocities)]


@dataclass(frozen=True)
class WkbCurveCheck:
    is_wkb: bool
    margin: float


def is_wkb_curve(Phi: MatrixOneForm, gamma: ParamPath, track: Optional[EigenvalueTrack] = None) -> WkbCurveCheck:
    """Strict positivity of every gap Re(lam_k - lam_{k+1}) between
    consecutive eigenvalues in the tracked order, times the path's
    orientation, with refinement near minima.  Two tracked real parts that
    cross make a gap negative.  A reversed path keeps its verdict.

    Margins and the scale of the tolerance come from the track's stored
    node values; only the (at most 16) refinement midpoints are evaluated.
    No midpoint falls inside a segment where the field is constant: the
    margin there is the node value at the segment's start.

    A tie at the start (TieAtStart: the leading two Re(lam gamma'(0)) are
    equal) already decides the answer: the path is not a WKB curve, margin zero.
    """
    if track is None:
        try:
            track = EigenvalueTrack(Phi, gamma)
        except TieAtStart:
            return WkbCurveCheck(is_wkb=False, margin=0.0)

    margin_of = lambda vals: float((gamma.orientation * (vals.real[:-1] - vals.real[1:])).min())
    nodes = track.node_values()
    ts = track.grid()
    vals = [margin_of(v) for v in nodes]
    for _ in range(16):
        k = vals.index(min(vals))
        for lo, hi in ((max(k - 1, 0), k), (k, min(k + 1, len(ts) - 1))):
            if hi > lo and ts[hi] - ts[lo] > 1e-10 and not track.constant_at(0.5 * (ts[lo] + ts[hi])):
                tm = 0.5 * (ts[lo] + ts[hi])
                ts.insert(lo + 1, tm)
                vals.insert(lo + 1, margin_of(track.values(tm)))
                break
        else:
            break
    margin = float(min(vals))
    tol = 1e-12 * float(np.abs(np.array(nodes)).max())
    return WkbCurveCheck(is_wkb=margin > tol, margin=margin)


class Period(_Frozen, complex):
    """A complex period with is_wkb_curve's is_wkb and margin on its track; arithmetic gives a plain complex."""

    __slots__ = ("is_wkb", "margin")

    def __new__(cls, value: complex, is_wkb: bool, margin: float):
        self = complex.__new__(cls, value)
        object.__setattr__(self, "is_wkb", is_wkb)
        object.__setattr__(self, "margin", margin)
        return self

    def __reduce__(self):
        return Period, (complex(self), self.is_wkb, self.margin)


def period(Phi: MatrixOneForm, gamma: ParamPath) -> Period:
    """Integral of the leading tracked eigenvalue mu = lam gamma' over the path, with its WKB verdict.

    On a segment where the field is constant, mu is constant and the
    segment adds mu(t_k) (t_{k+1} - t_k), read from the track's node at its
    start.  Any other segment is integrated by adaptive quadrature of the
    real and imaginary parts, which share their evaluations, to absolute
    error 1e-12 and relative error 1e-12.
    """
    track = EigenvalueTrack(Phi, gamma)
    check = is_wkb_curve(Phi, gamma, track)
    memo = {}  # the real and imaginary quadratures share many nodes

    def mu(t: float) -> complex:
        if t not in memo:
            memo[t] = track(t)
        return memo[t]

    total = 0j
    for t0, t1 in zip(gamma.breaks, gamma.breaks[1:]):
        if track.constant_at(t0):
            total += track(t0) * (t1 - t0)
            continue
        total += quad(mu, t0, t1, complex_func=True, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    return Period(total, check.is_wkb, check.margin)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WkbFit:
    """Asymptotic rate fit: log trace = Z * eps^-p + offset, anchored on the tail.

    ``residual`` is the RMS of the complex log-trace misfit over the whole
    sample set; candidates are compared by that number.  free_fit_exponent is
    the log-log slope of log|trace| against 1/eps: an exponent estimate that
    assumes no candidate list.
    """

    exponent_p: Fraction
    Z: complex
    offset: complex
    residual: float
    free_fit_exponent: float
    candidates: Tuple[Tuple[Fraction, float], ...]

    def to_json(self) -> dict:
        return {
            "exponent": str(self.exponent_p),
            "Z": [self.Z.real, self.Z.imag],
            "offset": [self.offset.real, self.offset.imag],
            "residual": self.residual,
            "free_fit_exponent": self.free_fit_exponent,
            "candidates": [[str(p), r] for p, r in self.candidates],
        }


def _unwound_log(traces: Sequence[complex]) -> np.ndarray:
    """Complex log along the sample sequence, phase unwound continuously."""
    out = []
    prev_arg = None
    for T in traces:
        mag = math.log(abs(T))
        a = cmath.phase(T)
        if prev_arg is None:
            arg = a
        else:
            arg = prev_arg + (a - prev_arg + math.pi) % (2 * math.pi) - math.pi
        out.append(mag + 1j * arg)
        prev_arg = arg
    return np.array(out)


def _tail_linear_fit(u: np.ndarray, y: np.ndarray, tail: int) -> Tuple[complex, complex, float]:
    order = np.argsort(u)
    uu, yy = u[order], y[order]
    ut, yt = uu[-tail:], yy[-tail:]
    A = np.vstack([ut, np.ones_like(ut)]).T.astype(complex)
    coef, *_ = np.linalg.lstsq(A, yt, rcond=None)
    Z, c = complex(coef[0]), complex(coef[1])
    resid = float(np.sqrt(np.mean(np.abs(yy - (Z * uu + c)) ** 2)))
    return Z, c, resid


def _free_fit_exponent(eps: np.ndarray, traces: Sequence[complex]) -> float:
    """Least-squares log-log slope of log|T| against 1/eps over the samples with log|T| > median / 10.

    A shift d of log|T| moves log log|T| by d / log|T|: the cut drops samples near |T| = 1, where
    that is unbounded.  No other trim: where the trace changes sign its dips are one-sided, and
    trimming those at the large-eps end tilts the slope.  Fewer than 3 samples past the cut raise InsufficientSamples."""
    logmag = np.array([math.log(abs(T)) if T != 0 else -math.inf for T in traces])
    cut = 0.1 * np.median(np.maximum(logmag, 0.0))
    good = logmag > cut
    if good.sum() < 3:
        raise InsufficientSamples(
            f"the free-fit exponent needs 3 samples with log|T| > {cut:.3g}, a tenth of the median; {good.sum()} have it"
        )
    x = np.log(1.0 / eps[good])
    y = np.log(logmag[good])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


def wkb_fit(samples: Sequence[HolonomySample], candidate_exponents: Optional[Sequence[Fraction]] = None) -> WkbFit:
    """Select the growth exponent and rate constant from transported samples.

    For each candidate p the model log T = Z eps^-p + c is fitted by least
    squares on the asymptotic tail, the max(3, len(samples) // 4) samples of
    largest eps^-p (the limit statement is exact only there), and candidates are ranked by the RMS misfit over
    the whole sample set.  The complex log is unwound along the
    decreasing-eps sequence.
    """
    for s in samples:
        if not (math.isfinite(s.epsilon) and s.epsilon > 0 and cmath.isfinite(s.trace)):
            raise NonFiniteSample(f"need finite eps > 0 and a finite trace; got eps={s.epsilon!r}, trace={s.trace!r}")
    samples = sorted(samples, key=lambda s: -s.epsilon)
    eps = np.array([s.epsilon for s in samples], dtype=float)
    if len(samples) < 6:
        raise InsufficientSamples("need at least 6 samples")
    if len(set(eps)) != len(eps):
        raise InsufficientSamples("epsilon values must be strictly decreasing")
    if eps[0] / eps[-1] < 8.0:
        raise InsufficientSamples("epsilon range must span at least a factor 8")
    traces = [s.trace for s in samples]
    if any(T == 0 for T in traces):
        raise NonDecayingSequence("zero trace in the sample set")
    if abs(traces[-1]) <= abs(traces[0]):
        raise NonDecayingSequence("traces do not grow as epsilon decreases")

    n = samples[0].holonomy.shape[0] if samples[0].holonomy is not None else 2
    if candidate_exponents is None:
        candidate_exponents = [Fraction(1, k) for k in range(1, max(2, n) + 1)]
    tail = max(3, len(samples) // 4)

    y = _unwound_log(traces)
    results = []
    for p in candidate_exponents:
        u = eps ** (-float(p))
        Z, c, resid = _tail_linear_fit(u, y, tail)
        results.append((Fraction(p), Z, c, resid))
    results.sort(key=lambda r: r[3])
    best_p, best_Z, best_c, best_resid = results[0]
    return WkbFit(
        exponent_p=best_p,
        Z=best_Z,
        offset=best_c,
        residual=best_resid,
        free_fit_exponent=_free_fit_exponent(eps, traces),
        candidates=tuple((p, r) for p, _z, _c, r in results),
    )
