"""Parallel transport of parameter families, spectral periods, WKB rate fits.

Paths are piecewise lines/arcs parametrized proportionally to arc length.
Transport carries the flat-section system S'(t) = -M(t) S(t) for a whole eps
grid, a (B, n, n) stack, segment by segment; a single transport is the
one-member grid.  The K term matrices of M = sum_k eps^x_k M_k are pulled
back side by side, as one (n, K*n) block.  One walk over the forms' entries
compiles them, drops the zero forms and decides whether the family is
z-independent, and the block is kept for the latest few tuples of forms,
so repeated calls on one family compile it once.  A z-independent family
has constant M on a line segment, and there S is multiplied by the closed
form expm(-M dt): the grid's exponentials are one batched Pade [13/13]
scaling and squaring (Higham 2005), in which each member is scaled and
squared on its own (a squaring takes only the members that still need
it), as E - I while exp stays near I and as E once it decays, and so gets
the same bits in any grid.  Any other segment is solved by an adaptive embedded pair (DOP853) on the grid laid
side by side, one (n, B*n) state, so that a right-hand side is one 2-D
product into a buffer kept for the segment; all members share one step
count.  A solve that fails on an overflowed double raises HolonomyOverflow;
one that, at its progress in t so far, would take more than RHS_BUDGET
right-hand sides raises StiffnessBudgetExceeded.
est_error compares a second run at a hundredfold tighter tolerance (only
where DOP853 runs: the exponentials do not depend on it), plus the roundoff
the steps and the exponentials can accumulate, so it bounds each reported
matrix.  Finiteness, norms and traces are taken on the whole stack at once.
Determinant fidelity of a sample is meaningful while eps_machine * ||H||^2
stays below est_error; beyond, the determinant of the stored double-precision
matrix is dominated by representation roundoff.

The eigenvalue track continues the sheets of Phi's spectral cover (eigvals
rows of its coefficient, each sheet matched to its nearest in the row
before, at every rank) and reports them times gamma'(t).  Transport's M(t)
and the track's rows are read by one per-segment sampler,
_pulled_back(gamma, value, flat): where the field is constant it
evaluates value(z, v) once, elsewhere on Python scalars at each t, from
the segment's point_and_velocity (one exp on an arc), which its point and
velocity read too.  Each t becomes a Python float once, since DOP853
passes numpy float64 stage times and numpy's complex powers and
quotients do not round as Python's do.  On a
constant segment the track's ends are its only grid nodes and the period
adds mu (t_{k+1} - t_k) in closed form.  Elsewhere the track's grid nodes
are evaluated once, when it is built; the WKB predicate reads them back,
and off the nodes it and the period read one method, values(t), whose
evaluations the period's real and imaginary quadratures share.  A period
(a complex) carries its est_error, from quad's full output, and the WKB
verdict of its path.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad, solve_ivp

from .algebra import _Frozen, exact_fraction
from .connection import TERM_NAMES, ConnectionFamily, MatrixOneForm
from .errors import (
    BranchPointOnPath,
    ClearanceViolated,
    EvaluationOverflow,
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
# right-hand sides one DOP853 solve may take: 10^7 steps of DOP853's 12.  From RHS_PROBE evaluations on, a solve
# stops as soon as its average progress in t so far projects more than that for its segment, so one whose steps
# shrink toward the roundoff of t (about 6e-14 per evaluation on an arc of radius 2^70) ends at RHS_PROBE, in
# about 1 s on a 2 GHz Xeon, while an oscillatory solve needs as many as its integral of |eigenvalue| dt asks for
RHS_BUDGET = 120_000_000
RHS_PROBE = 100_000
# roundoff of expm(X) in units of 2.3e-16 (1 + ||X||) ||expm(X)||, calibrated against mpmath.expm
EXPM_ROUNDOFF = 10
# how many tuples of term forms keep their compiled block (holonomy._term_matrices)
TERM_BLOCKS_KEPT = 16
# the 1-norm up to which the Pade [13/13] approximant of exp has backward error below 2^-53 (Higham 2005, Table 2.3)
THETA13 = 5.371920351148152
# its coefficients b_0..b_13, as the rows that combine (1, A^2, A^4, A^6) into W_U = b13 A^6 + b11 A^4 + b9 A^2,
# W_V = b12 A^6 + b10 A^4 + b8 A^2, Z_U = b7 A^6 + b5 A^4 + b3 A^2 + b1 and Z_V = b6 A^6 + b4 A^4 + b2 A^2 + b0
PADE13 = np.array(
    [
        [0.0, 40840800.0, 16380.0, 1.0],
        [0.0, 1323241920.0, 960960.0, 182.0],
        [32382376266240000.0, 1187353796428800.0, 10559470521600.0, 33522128640.0],
        [64764752532480000.0, 7771770303897600.0, 129060195264000.0, 670442572800.0],
    ],
    dtype=complex,
)
# backward error of eigvals(A) in units of n 2.3e-16 ||A||_F; against mpmath.eig, times the
# condition bound, the largest error seen was 0.9 units
EIGVALS_ROUNDOFF = 10
# the absolute and relative tolerance of the period's quadrature
QUAD_TOL = 1e-12


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


class _Segment:
    """A segment's point and velocity at s in [0, 1], each read from its one point_and_velocity(s)."""

    def point(self, s: float) -> complex:
        return self.point_and_velocity(s)[0]

    def velocity(self, s: float) -> complex:
        return self.point_and_velocity(s)[1]


@dataclass(frozen=True)
class LineSegment(_Segment):
    start: complex
    end: complex

    def length(self) -> float:
        return abs(self.end - self.start)

    def point_and_velocity(self, s: float) -> Tuple[complex, complex]:
        chord = self.end - self.start
        return self.start + s * chord, chord

    def reversed(self) -> "LineSegment":
        return LineSegment(self.end, self.start)

    def distance_to(self, q: complex) -> float:
        # the projection's parameter Re((q - start) / d), which no |d|^2 can overflow
        s = max(0.0, min(1.0, ((q - self.start) / (self.end - self.start)).real))
        return abs(q - self.point(s))

    def to_json(self) -> dict:
        return {
            "type": "line",
            "from": [self.start.real, self.start.imag],
            "to": [self.end.real, self.end.imag],
        }


@dataclass(frozen=True)
class ArcSegment(_Segment):
    center: complex
    radius: float
    angle0: float
    angle1: float

    def length(self) -> float:
        return abs(self.angle1 - self.angle0) * self.radius

    def point_and_velocity(self, s: float) -> Tuple[complex, complex]:
        span = self.angle1 - self.angle0
        e = cmath.exp(1j * (self.angle0 + s * span))
        return self.center + self.radius * e, 1j * span * self.radius * e

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


def _clamped(s: float) -> float:
    """A path parameter clamped to [0, 1]; a NaN and -0.0 become 0.0."""
    return 0.0 if not s > 0.0 else (s if s < 1.0 else 1.0)


class ParamPath:
    """Piecewise path, parametrized over [0,1] proportionally to arc length.

    Every endpoint, centre, radius and angle must be finite, and every arc's
    radius positive.  Consecutive segments must share endpoints; a closed
    path returns to its start.
    ``orientation`` records whether the path is a reversal: the eigenvalue
    track's leading sheet follows it, making periods odd under reversal.
    """

    def __init__(self, segments: Sequence[Segment], closed: bool = False, orientation: int = 1):
        segments = tuple(segments)
        if not segments:
            raise ValueError("a path needs at least one segment")
        for s in segments:
            # the fields read one by one: astuple copies them, and vars() slows every later read of them
            if not all(cmath.isfinite(getattr(s, name)) for name in s.__dataclass_fields__):
                raise ValueError(f"non-finite path coordinate in {s!r}")
            if isinstance(s, ArcSegment) and not s.radius > 0:
                raise ValueError(f"arc radius must be positive, got {s.radius!r}")
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
        breaks = [0.0]
        for L in lengths:
            breaks.append(breaks[-1] + L / total)
        breaks[-1] = 1.0
        for k, (t0, t1) in enumerate(zip(breaks, breaks[1:])):
            if t1 - t0 < sys.float_info.min:  # a zero or subnormal share: no velocity or step is finite on it
                raise ValueError(f"segment {k} takes a share {t1 - t0!r} of the parameter range [0, 1], below the least normal double")
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
        t = _clamped(t)
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
        """ClearanceViolated if the path passes within DEFAULT_CLEARANCE of a
        puncture; EvaluationOverflow naming a puncture, by its index, that is
        past a double."""
        for index, p in enumerate(punctures):
            try:
                q = p.to_complex()
            except EvaluationOverflow as err:
                raise EvaluationOverflow(f"puncture {index}: {err}") from None
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


# (id(form) for each form) -> (forms, their compiled block), oldest first
_TERM_BLOCKS: dict = {}


def _term_matrices(forms: Sequence[MatrixOneForm], n: int, names: Sequence[str]) -> Tuple[Callable[[complex, complex], np.ndarray], bool, Tuple[int, ...]]:
    """:func:`_compiled_terms` of the forms, kept for the latest
    TERM_BLOCKS_KEPT tuples of forms.  The forms are immutable, so a block
    never goes stale; an entry holds its forms, so no id in its key is
    reused while it is kept.  The names only label errors, and a block that
    raises is not kept."""
    key = tuple(map(id, forms))
    hit = _TERM_BLOCKS.get(key)
    if hit is None:
        if len(_TERM_BLOCKS) >= TERM_BLOCKS_KEPT:
            del _TERM_BLOCKS[next(iter(_TERM_BLOCKS))]
        hit = _TERM_BLOCKS[key] = (tuple(forms), _compiled_terms(forms, n, names))
    return hit[1]


def _compiled_terms(forms: Sequence[MatrixOneForm], n: int, names: Sequence[str]) -> Tuple[Callable[[complex, complex], np.ndarray], bool, Tuple[int, ...]]:
    """(z, v) -> the term matrices P(z) v + Q(z) conj(v) of the nonzero forms
    k = P dz + Q dzbar, in the order given, side by side as one (n, K*n) row
    block: entry (i, j) of the k-th nonzero term is at row i, column k*n + j;
    whether the forms are constant in z (every nonzero entry's numerator and
    denominator has no term but z^0 zbar^0); and the indices in forms of the
    K nonzero ones.  One walk lists each form's nonzero entries, and one
    loop over them compiles and places each and decides flatness; a constant
    part is evaluated there, once, since its compiled form gives the same
    value at every z (z^0 is exactly 1).
    The block is evaluated on Python scalars, its entries grouped by the
    parts they have, so that evaluating it tests no entry for a missing
    part and takes conj(v) only where some entry has a dzbar part.  An
    EvaluationOverflow, in compiling or in evaluating, names the entry
    (i, j) of form f as names[f], and in compiling its dz or dzbar part."""
    walks = [list(form.nonzero_entries()) for form in forms]
    kept = tuple(f for f, entries in enumerate(walks) if entries)
    K, flat = len(kept), True
    dz_only, dzbar_only, both, labels = [], [], [], {}
    for k, f in enumerate(kept):
        for i, j, dz_e, dzbar_e in walks[f]:
            where = f"{names[f]} entry ({i}, {j})"
            fns = []
            for part, e in (("dz", dz_e), ("dzbar", dzbar_e)):
                if not e:
                    fns.append(None)
                    continue
                try:
                    fn = e.compiled()
                except EvaluationOverflow as err:
                    raise EvaluationOverflow(f"{where}, {part} part: {err}") from None
                if e.num.terms.keys() | e.den.terms.keys() <= {(0, 0)}:
                    fn = _returning(fn(0j))
                else:
                    flat = False
                fns.append(fn)
            idx, (dz_fn, dzbar_fn) = (i * K + k) * n + j, fns
            if dzbar_fn is None:
                dz_only.append((idx, dz_fn))
            elif dz_fn is None:
                dzbar_only.append((idx, dzbar_fn))
            else:
                both.append((idx, dz_fn, dzbar_fn))
            labels[idx] = where
    shape, conjugated = (n, K * n), bool(dzbar_only or both)

    # 0j + keeps the signed zeros of a sum begun at 0j
    def evaluate(z: complex, v: complex) -> np.ndarray:
        out = np.zeros(shape[0] * shape[1], dtype=complex)
        try:
            for idx, fn in dz_only:
                out[idx] = 0j + fn(z) * v
            if conjugated:
                vv = v.conjugate()
                for idx, fn in dzbar_only:
                    out[idx] = 0j + fn(z) * vv
                for idx, dz_fn, dzbar_fn in both:
                    out[idx] = 0j + dz_fn(z) * v + dzbar_fn(z) * vv
        except EvaluationOverflow as err:
            raise EvaluationOverflow(f"{labels[idx]}: {err}") from None
        return out.reshape(shape)

    return evaluate, flat, kept


def _returning(value: complex) -> Callable[[complex], complex]:
    """The compiled form of a constant: z -> value."""
    return lambda z: value


def _pulled_back(gamma: ParamPath, value: Callable[[complex, complex], Any], flat: bool) -> List[Any]:
    """Per segment of gamma, value(gamma(t), gamma'(t)) of a field that is
    constant in z if flat (the flag of :func:`_term_matrices`).

    Each segment's map takes t to value at seg.point_and_velocity(s), the
    velocity divided by dt = t_{k+1} - t_k, where s = (t - t_k) / dt is
    clamped to [0, 1] (a NaN t to 0): the bits of value(seg.point(s),
    seg.velocity(s) / dt), on Python scalars.  A flat field on a line
    segment (constant velocity) does not depend on t, and that segment's
    item is its map evaluated once, at t_k (read-only if it is an array);
    any other segment's item is the map.
    """

    def on_segment(at: Callable[[float], Tuple[complex, complex]], t0: float, dt: float):
        def P(t: float):
            z, v = at(_clamped((float(t) - t0) / dt))
            return value(z, v / dt)

        return P

    pieces = []
    for seg, t0, t1 in zip(gamma.segments, gamma.breaks, gamma.breaks[1:]):
        P = on_segment(seg.point_and_velocity, t0, t1 - t0)
        if flat and isinstance(seg, LineSegment):
            P = P(t0)
            if isinstance(P, np.ndarray):
                P.flags.writeable = False
        pieces.append(P)
    return pieces


def _on_path(pieces: Sequence[Any], gamma: ParamPath) -> Callable[[float], Any]:
    """t -> the value along the whole path, from the item of
    :func:`_pulled_back` for the segment that holds t."""

    def P(t: float):
        piece = pieces[gamma._locate(float(t))[0]]
        return piece(t) if callable(piece) else piece

    return P


def _family_terms(family: ConnectionFamily, epsilons: Sequence[float]) -> Tuple[Callable[[complex, complex], np.ndarray], bool, np.ndarray]:
    """The family's term block (the evaluate and flat flag of
    :func:`_term_matrices`, its nonzero terms only) and the (B, K) weights
    eps_b^exponent_k of those terms.

    Each eps must be finite and positive (ValueError otherwise).  Fractional
    term exponents become real powers of the parameter here and only here; a
    weight past double precision raises HolonomyOverflow naming its eps.  An
    EvaluationOverflow names the term (phi, conn or psi) and its entry.
    """
    for e in epsilons:
        if not (math.isfinite(e) and e > 0):
            raise ValueError(f"epsilon must be finite and positive, got {e!r}")
    evaluate, flat, kept = _term_matrices((family.phi, family.conn, family.psi), family.n, TERM_NAMES)
    exponents = [float(family.exponents[k]) for k in kept]
    weights = []
    for e in epsilons:
        try:
            weights.append([float(e) ** x for x in exponents])
        except OverflowError:
            raise HolonomyOverflow(f"a term weight eps^x at eps={e!r} exceeds double precision") from None
    return evaluate, flat, np.array(weights, dtype=complex).reshape(len(epsilons), len(kept))


def pullback(family: ConnectionFamily, gamma: ParamPath, epsilon: float) -> Callable[[float], np.ndarray]:
    """t -> sum over terms of eps^exponent (P(gamma(t)) gamma'(t) + Q(gamma(t)) conj(gamma'(t))).

    The path must keep DEFAULT_CLEARANCE from every declared puncture."""
    n = family.n
    evaluate, flat, weights = _family_terms(family, [epsilon])
    gamma.check_clearance(family.punctures)
    P = _on_path(_pulled_back(gamma, evaluate, flat), gamma)
    # (K,) @ (n, K, n): one matmul per row, summing the side-by-side terms
    return lambda t: weights[0] @ P(t).reshape(n, weights.shape[1], n)


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a (B, n, n) stack.  Where a finite member's plain
    sum of squares overflows (entries past about 1e154), the norm is taken on
    a_b / max|a_ij| and scaled back; a member with an inf or NaN entry keeps its inf or NaN."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.add.reduce((a.conj() * a).real, axis=(1, 2)))  # np.linalg.norm's sum, without its checks
        if not math.isfinite(np.add.reduce(norms)):
            for b in np.flatnonzero(np.isinf(norms)):
                if np.isfinite(a[b]).all():
                    top = float(np.abs(a[b]).max())
                    norms[b] = top * float(np.linalg.norm(a[b] / top))
    return norms


def _expm(X: np.ndarray) -> np.ndarray:
    """expm(X_b) for every member of a (B, n, n) stack at once, by Pade [13/13]
    scaling and squaring (Higham 2005).

    Member b is scaled by 2^-s_b, the least power of 2 that takes its 1-norm
    below THETA13; the stack's powers A^2, A^4, A^6 are one product each, and
    one batched solve gives both Y = r(A) - I = 2 (V - U)^-1 U and
    E = r(A) = (V - U)^-1 (V + U).  Member b is squared exactly s_b times:
    the members are put in order of s_b (a stack already in that order, as
    a grid of falling eps usually is, is not copied), so that squaring i
    is one product over the suffix of members with s_b > i.  While every
    diagonal entry of E has real part at
    least 1/2, a member is held and squared as Y <- Y (Y + 2I): the part of
    exp that differs from I keeps its relative accuracy, so a member scaled
    far below its size is not rounded to I and then squared toward 0.  Once
    a diagonal entry's real part is below 1/2, the member is held and squared
    as E <- E E, so an exp that decays keeps its relative accuracy too: I + Y
    puts an absolute roundoff of about 2^-53 on each diagonal entry (and,
    through the products, on the rows and columns it meets), which only
    entries of modulus 1/2 or more can take.  The switch is tested after a
    squaring only while some member held as Y is to be squared again, and
    only on those members.  Each member goes through the same elementwise
    and per-member numpy calls and switches on its own entries, so it gets
    the same bits in any stack and in any order.  Floating-point errors
    are left to the caller's errstate: a member past double precision
    overflows in its squarings, and one whose 1-norm is not finite (frexp
    gives it s = 0) in its powers; either comes back non-finite, and the
    batched solve passes NaN through without raising.
    """
    B, n, _ = X.shape
    s = np.maximum(np.frexp(np.maximum.reduce(np.add.reduce(np.abs(X), axis=1), axis=1) / THETA13)[1], 0)
    counts = s.tolist()
    order = None
    if counts != sorted(counts):
        order = np.argsort(s, kind="stable")
        X, s = X[order], s[order]
        counts.sort()
    eye = np.eye(n)
    A = X * (0.5**s)[:, None, None]
    powers = np.empty((B, 4, n, n), dtype=complex)
    powers[:, 0] = eye
    A2 = np.matmul(A, A, out=powers[:, 1])
    A4 = np.matmul(A2, A2, out=powers[:, 2])
    A6 = np.matmul(A4, A2, out=powers[:, 3])
    C = (PADE13 @ powers.reshape(B, 4, n * n)).reshape(B, 4, n, n)
    UV = A6[:, None] @ C[:, :2]
    UV += C[:, 2:]  # A^6 W_U + Z_U and V = A^6 W_V + Z_V
    U, V = A @ UV[:, 0], UV[:, 1]
    YE = np.empty((B, n, 2 * n), dtype=complex)
    np.add(U, U, out=YE[..., :n])
    np.add(V, U, out=YE[..., n:])
    YE = np.linalg.solve(V - U, YE)
    # the members held as Y = E - I rather than as E
    near = np.minimum.reduce(YE[..., n:].diagonal(axis1=1, axis2=2).real, axis=1) >= 0.5
    held = near.tolist()
    F = YE[..., :n].copy()
    for b in [b for b, h in enumerate(held) if not h]:
        F[b] = YE[b, :, n:]
    shift = 2 * eye * near[:, None, None] if counts[-1] else None
    for i in range(counts[-1]):
        first = bisect_right(counts, i)  # the members with s_b > i
        G = F[first:]
        np.matmul(G, G + shift[first:], out=G)
        # the members squared again; one squared for the last time converts alike now or on return
        again = bisect_right(counts, i + 1)
        if any(held[again:]):
            diagonals = F[again:].diagonal(axis1=1, axis2=2).real
            if np.fmin.reduce(diagonals, axis=None) < -0.5:  # some member may switch
                for b in (np.fmin.reduce(diagonals, axis=1) < -0.5).nonzero()[0].tolist():
                    b += again
                    if held[b]:
                        F[b] += eye
                        held[b] = False
                        shift[b] = 0.0
    np.add(F, eye, out=F, where=np.array(held)[:, None, None])
    if order is None:
        return F
    out = np.empty_like(F)
    out[order] = F
    return out


def _integrate(pieces, neg_weights, n, breaks, rtol) -> Tuple[np.ndarray, int, int, np.ndarray]:
    """The stacked (B, n, n) state y, from the identity, carried across the
    path one segment at a time: a constant segment (an array item P of
    :func:`_pulled_back`) by its closed form expm(X_b), X_b = -M_b (t_{k+1} -
    t_k), any other by DOP853.  Until the first segment y is the identity,
    and it is not stored: that segment takes ||I||_F = sqrt(n), and its
    product with I only settles the signs of the exponentials' zero entries.

    A constant segment reads its (n, K*n) term block back as (K, n*n) rows,
    one transpose per segment, combines them with the (B, K) weights, and
    takes the stack's exponentials in one :func:`_expm` call and the norms
    of its bound (below) in one pass over E, X and y stacked.
    On a DOP853 segment the grid is one (n, B*n) state Y, whose column
    b*n + j is column j of member b, and each right-hand side is one 2-D
    product P(t) @ (Y * C).reshape(K*n, B*n): C, (K, 1, B*n), scales member
    b's columns by its weight -w_bk in term k's row block, and Y * C is
    written into a buffer allocated once per segment.  Y is transposed in
    from y and out to it once per segment.

    Returns the final state, DOP853's accepted steps and RHS evaluations, and
    per member the exponentials' roundoff bound: EXPM_ROUNDOFF 2.3e-16
    (1 + ||X_b||) ||y_b|| each, times the norms of this and later propagators.
    After an exponential, DOP853 solves for its segment's propagator from the
    identity, which carries that bound; its steps and the product with y add
    2.3e-16 ||y_b|| each.

    A DOP853 solve that fails with a floating-point overflow or invalid
    operation after its last RHS evaluation began raises HolonomyOverflow
    naming the segment; one that fails otherwise raises
    StiffnessBudgetExceeded, and so does one that has taken RHS_PROBE
    right-hand sides and, at its average progress in t so far, would need
    more than RHS_BUDGET for the segment (counted as they are asked for, so
    a solve whose steps shrink toward roundoff ends in bounded time).  A
    right-hand side asked for at a NaN t raises HolonomyOverflow naming the
    segment at once.
    Overflows in steps DOP853 rejects and retries change nothing, and none
    of them warns.  Every other floating-point error is left to the
    caller's errstate: it comes back as a non-finite state or bound.
    """
    B, K = neg_weights.shape
    steps = rhs_evals = 0
    y, roundoff = None, np.zeros(B)
    for k, (P, t0, t1) in enumerate(zip(pieces, breaks, breaks[1:])):
        if not callable(P):
            terms = P.reshape(n, K, n).transpose(1, 0, 2).reshape(K, n * n)
            X = (neg_weights @ terms).reshape(B, n, n) * (t1 - t0)
            E = _expm(X)
            if y is None:  # no bound yet, and ||I||_F = sqrt(n)
                norm_E, norm_X = _frobenius(np.concatenate((E, X))).reshape(2, B)
                roundoff = norm_E * (EXPM_ROUNDOFF * 2.3e-16 * (1.0 + norm_X) * math.sqrt(n))
                y = E @ np.eye(n)
            else:
                norm_E, norm_X, norm_y = _frobenius(np.concatenate((E, X, y))).reshape(3, B)
                roundoff = norm_E * (roundoff + EXPM_ROUNDOFF * 2.3e-16 * (1.0 + norm_X) * norm_y)
                y = E @ y
            continue
        overflows = []  # floating-point errors since the latest RHS call began
        C = np.repeat(neg_weights.T, n, axis=1).reshape(K, 1, B * n)
        stacked = np.empty((K * n, B * n), dtype=complex)  # (Y * C).reshape(K*n, B*n), rewritten by every RHS
        weighted = stacked.reshape(K, n, B * n)
        evals = 0

        def rhs(t, s):
            nonlocal evals
            evals += 1
            t = float(t)
            if t != t:  # a value past a double made a step NaN, and DOP853 does not stop on it
                raise HolonomyOverflow(f"DOP853's t is NaN on segment {k} [{t0}, {t1}]: a value overflowed a double")
            if evals >= RHS_PROBE and not evals * (t1 - t0) <= RHS_BUDGET * (t - t0):
                raise StiffnessBudgetExceeded(
                    f"DOP853 reached t = {t:.6g} on segment {k} [{t0}, {t1}] after {evals} right-hand sides:"
                    f" at that rate it would need more than {RHS_BUDGET}"
                )
            overflows.clear()
            np.multiply(s.reshape(n, B * n), C, out=weighted)
            # a fresh array: DOP853 keeps the last one returned
            return np.dot(P(t), stacked).ravel()

        start = np.tile(np.eye(n, dtype=complex), (1, B)) if y is None or roundoff.any() else y.transpose(1, 0, 2).reshape(n, B * n)
        with np.errstate(over="call", invalid="call", call=lambda err, flag: overflows.append(err)):
            sol = solve_ivp(rhs, (t0, t1), start.reshape(-1), method="DOP853", rtol=rtol, atol=rtol * 1e-3)
        if sol.status != 0 and overflows:
            raise HolonomyOverflow(f"DOP853 overflowed a double on segment {k} [{t0}, {t1}] after t = {sol.t[-1]:.6g}")
        if sol.status != 0:
            raise StiffnessBudgetExceeded(f"integrator failed on [{t0}, {t1}]: {sol.message}")
        steps += len(sol.t) - 1
        rhs_evals += sol.nfev
        # a copy: a view keeps the whole solution history alive
        end = sol.y[:, -1].reshape(n, B, n).transpose(1, 0, 2).copy()
        if roundoff.any():
            norm_end, norm_y = _frobenius(np.concatenate((end, y))).reshape(2, B)
            roundoff, end = norm_end * (roundoff + 2.3e-16 * len(sol.t) * norm_y), end @ y
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
    which both runs share; with no DOP853 segment it is that bound alone.
    Norms, finiteness and traces are taken on the whole stack at once, and
    the fields are Python floats and complexes.  A floating-point overflow
    or invalid operation warns nowhere: it ends as a non-finite value.
    The first member in input order whose holonomy or est_error is not
    finite raises HolonomyOverflow naming its eps, and so does a term weight
    eps^x past a double.
    rel_tol must be finite and in (0, MAX_REL_TOL] (ValueError otherwise).
    """
    if not (math.isfinite(rel_tol) and 0 < rel_tol <= MAX_REL_TOL):
        raise ValueError(f"rel_tol must be finite and in (0, {MAX_REL_TOL:g}], got {rel_tol!r}")
    eps = [float(e) for e in epsilons]
    if not eps:
        return []
    evaluate, flat, weights = _family_terms(family, eps)
    gamma.check_clearance(family.punctures)
    pieces = _pulled_back(gamma, evaluate, flat)
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = _integrate(pieces, -weights, family.n, gamma.breaks, max(rel_tol, 3e-14))[0] if any(map(callable, pieces)) else None
        fine, steps, rhs_evals, roundoff = _integrate(pieces, -weights, family.n, gamma.breaks, max(rel_tol * 1e-2, 3e-14))
        est = roundoff  # no DOP853 segment: no spread, and the step floor is 0
        if coarse is not None:
            est = np.maximum(_frobenius(coarse - fine), 2.3e-16 * (1.0 + _frobenius(fine)) * steps) + roundoff
    finite = (np.logical_and.reduce(np.isfinite(fine), axis=(1, 2)) & np.isfinite(est)).tolist()
    if not all(finite):
        b = finite.index(False)
        what = "est_error" if np.isfinite(fine[b]).all() else "holonomy"
        raise HolonomyOverflow(f"{what} at eps={eps[b]!r} exceeds double precision")
    traces = fine.trace(axis1=1, axis2=2).tolist()
    return [HolonomySample(*fields, steps=steps, rhs_evals=rhs_evals) for fields in zip(eps, fine, traces, est.tolist())]


# ---------------------------------------------------------------------------
# spectral tracking
# ---------------------------------------------------------------------------


def _matched(prev: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """lam reordered so that each entry of prev is followed by its nearest
    entry of lam.  The map need not be one-to-one; a repeated sheet makes
    the row's closest pair 0, so the track refines that step and a WKB
    margin read off it is at most 0."""
    return lam[np.abs(lam[None, :] - prev[:, None]).argmin(axis=1)]


def _closest_pair(row: np.ndarray) -> float:
    """The smallest distance between two entries of row."""
    return min(abs(a - b) for a, b in combinations(row.tolist(), 2))


class EigenvalueTrack:
    """The sheets of Phi's spectral cover, continued along a path.

    Phi = phi(z) dz must be a (1,0)-form (ValueError otherwise).  At gamma(t)
    the sheet row is eigvals(phi(gamma(t))), and the track reports it times
    the velocity gamma'(t): the eigenvalues of the pulled-back field.  Each
    grid node keeps its sheet row and its velocity apart, so a corner of the
    path, where gamma' jumps, moves no sheet.  values(t), the one read off
    the nodes, continues the row from the node before t: each of the node's
    sheets takes its nearest in the sheet row at t (:func:`_matched`).

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
    1e-9 or more than MAX_NODES nodes; EvaluationOverflow naming an entry of
    Phi that is past a double, exactly or at a point.
    """

    BRANCH_TOL = 1e-12
    GRID_SIZE = 257
    MAX_NODES = 2**16

    def __init__(self, Phi: MatrixOneForm, gamma: ParamPath):
        self.gamma = gamma
        if not Phi.dzbar_part.is_zero:
            raise ValueError("eigenvalue tracking expects a (1,0)-form field")
        term, flat, kept = _term_matrices([Phi], Phi.n, ["Phi"])

        def sheets(z, v):
            a = term(z, 1.0) if kept else np.zeros((Phi.n, Phi.n))  # a zero Phi's block has no columns
            try:
                return np.linalg.eigvals(a), v, a
            except np.linalg.LinAlgError:
                if np.isfinite(a).all():
                    raise
                i, j = np.argwhere(~np.isfinite(a))[0]
                raise EvaluationOverflow(f"Phi entry ({i}, {j}) at z={z!r} is not finite in doubles") from None

        pieces = _pulled_back(gamma, sheets, flat)
        self._at = _on_path(pieces, gamma)
        self._constant = [not callable(p) for p in pieces]
        self._build()

    def constant_at(self, t: float) -> bool:
        """Whether the field is constant on the segment that holds t (a break
        belongs to the segment it starts, t = 1 to the last)."""
        return self._constant[self.gamma._locate(t)[0]]

    def coefficient(self, t: float) -> np.ndarray:
        """Phi's coefficient at gamma(t), the matrix whose eigenvalues are the
        sheets at t; on a constant segment the one evaluated for its nodes."""
        return self._at(t)[2].copy()

    def _start_grid(self) -> List[float]:
        """Every break, and the points of an even grid of GRID_SIZE over
        [0, 1] that do not lie inside a segment where the field is constant
        (no grid at all where it is constant on every segment)."""
        breaks = self.gamma.breaks
        if all(self._constant):
            return sorted(set(breaks))
        even = np.linspace(0.0, 1.0, self.GRID_SIZE)
        for t0, t1, constant in zip(breaks, breaks[1:], self._constant):
            if constant:
                even = even[(even <= t0) | (even >= t1)]
        return sorted(set(even) | set(breaks))

    def _build(self):
        todo = self._start_grid()[::-1]  # a stack: the next node is last
        t = todo.pop()
        last, v, _a = self._at(t)
        lead = self.gamma.orientation * (last * v).real
        order = np.argsort(-lead, kind="stable")
        ts, rows, velocities, gaps = [t], [last[order]], [v], [_closest_pair(last)]
        while todo:
            t = todo[-1]
            sheets, v, _a = self._at(t)
            if sheets is last:  # the constant segment's one evaluation again: its row matches itself unmoved
                sheets, gap = rows[-1], gaps[-1]
            else:
                last, sheets = sheets, _matched(rows[-1], sheets)
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
        if not min(gaps) > self.BRANCH_TOL * np.abs(np.array(rows)).max():
            raise BranchPointOnPath("two sheets of Phi collide on the path")
        values = [row * v for row, v in zip(rows, velocities)]
        if lead[order[0]] - lead[order[1]] <= self.BRANCH_TOL * np.abs(values[0]).max():
            raise TieAtStart("the leading two Re(lam gamma'(0)) tie within tolerance; cannot order the sheets")
        self._ts, self._sheets, self._values = ts, rows, values

    # -- public surface ----------------------------------------------------------------

    def values(self, t: float) -> np.ndarray:
        """The eigenvalue row at t, its sheets continued from the grid node before t."""
        sheets, v, _a = self._at(t)
        return _matched(self._sheets[min(bisect_right(self._ts, t) - 1, len(self._ts) - 2)], sheets) * v

    def grid(self) -> List[float]:
        return list(self._ts)

    def node_values(self) -> List[np.ndarray]:
        """values(t) at every node of grid(), taken once when the track was
        built from its stored rows: matched against itself, a row of
        distinct sheets comes back unchanged."""
        return list(self._values)


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
    node values; only the (at most 16) refinement midpoints are evaluated,
    by track.values.  Where a midpoint's nearest map repeats a sheet, its
    real parts cannot strictly decrease, so its margin is at most 0: the
    conservative verdict.
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

    # the least gap of a row, or of each row of a stack of rows
    margin_of = lambda vals: (gamma.orientation * (vals.real[..., :-1] - vals.real[..., 1:])).min(axis=-1)
    nodes = np.array(track.node_values())
    ts = track.grid()
    vals = margin_of(nodes).tolist()
    for _ in range(16):
        k = vals.index(min(vals))
        for lo, hi in ((max(k - 1, 0), k), (k, min(k + 1, len(ts) - 1))):
            if hi > lo and ts[hi] - ts[lo] > 1e-10 and not track.constant_at(0.5 * (ts[lo] + ts[hi])):
                tm = 0.5 * (ts[lo] + ts[hi])
                ts.insert(lo + 1, tm)
                vals.insert(lo + 1, float(margin_of(track.values(tm))))
                break
        else:
            break
    margin = float(min(vals))
    tol = 1e-12 * float(np.abs(nodes).max())
    return WkbCurveCheck(is_wkb=margin > tol, margin=margin)


def _eigvals_error(row: np.ndarray, norm: float) -> float:
    """Bound, to first order in roundoff, on the error of each entry of
    row = eigvals(A), where norm = ||A||_F: EIGVALS_ROUNDOFF n 2.3e-16 ||A||_F,
    the QR algorithm's backward error, times Smith's (1967) bound on the
    condition number of an eigenvalue, (1 + (||A||_F^2 - sum |lam|^2) /
    ((n - 1) gap^2))^((n - 1) / 2), with gap the closest pair of row.  The
    ratio is taken on row / norm, so no square of A's scale is formed, and
    the factor as hypot(1, sqrt(departure / (n - 1)) / gap)^(n - 1), so no
    square of the gap is formed either (the gap of a field far from normal
    can be near 1e-160, whose square underflows).  inf where the bound is
    past a double."""
    n, unit = len(row), row / norm
    departure = max(1.0 - float(np.sum(np.abs(unit) ** 2)), 0.0)
    spread, gap = math.sqrt(departure / (n - 1)), _closest_pair(unit)
    try:
        return EIGVALS_ROUNDOFF * n * 2.3e-16 * norm * math.hypot(1.0, spread / gap if gap else math.inf) ** (n - 1)
    except OverflowError:
        return math.inf


class Period(_Frozen, complex):
    """A complex period with its est_error and is_wkb_curve's is_wkb and margin on its track; arithmetic gives a plain complex."""

    __slots__ = ("est_error", "is_wkb", "margin")

    def __new__(cls, value: complex, est_error: float, is_wkb: bool, margin: float):
        self = complex.__new__(cls, value)
        object.__setattr__(self, "est_error", est_error)
        object.__setattr__(self, "is_wkb", is_wkb)
        object.__setattr__(self, "margin", margin)
        return self


def period(Phi: MatrixOneForm, gamma: ParamPath) -> Period:
    """Integral of the leading tracked eigenvalue mu = lam gamma' over the path, with its est_error and WKB verdict.

    On a segment where the field is constant, mu is constant and the
    segment adds mu(t_k) (t_{k+1} - t_k), read from the track's node at its
    start; its est_error is that eigenvalue's roundoff (:func:`_eigvals_error`
    of the coefficient the track evaluated, each entry its exact constant
    rounded once to doubles) times the segment's length.  Any other segment
    is integrated by adaptive quadrature (QUADPACK, Piessens et al. 1983,
    through scipy's quad) of mu = track.values(t)[0], whose real and
    imaginary parts share their evaluations, each to absolute or relative
    error QUAD_TOL.  Its est_error is the modulus of quad's error estimate,
    but no less than the tolerance, sqrt(2) QUAD_TOL max(1, |value|), since
    that heuristic estimate can fall short of an error below it (z^109 dz on
    an arc: 5.3e-17 for an error of 6.1e-17).  quad returns its full output,
    so a tolerance it cannot reach shows in est_error, not as a warning.
    """
    track = EigenvalueTrack(Phi, gamma)
    check = is_wkb_curve(Phi, gamma, track)
    ts, nodes = track.grid(), track.node_values()
    memo = {}  # the real and imaginary quadratures share many nodes

    def mu(t: float) -> complex:
        if t not in memo:
            memo[t] = track.values(t)[0]
        return memo[t]

    total, est_error, lam_error = 0j, 0.0, None
    for t0, t1 in zip(gamma.breaks, gamma.breaks[1:]):
        if track.constant_at(t0):
            row, v = nodes[bisect_left(ts, t0)], gamma.velocity(t0)
            total += row[0] * (t1 - t0)
            if lam_error is None:  # constant in z, Phi has one coefficient on every constant segment
                lam_error = _eigvals_error(row / v, math.hypot(*map(abs, track.coefficient(t0).ravel().tolist())))
            est_error += lam_error * abs(v) * (t1 - t0)
            continue
        value, abserr, _info = quad(mu, t0, t1, complex_func=True, full_output=1, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
        total += value
        est_error += max(abs(abserr), math.sqrt(2) * QUAD_TOL * max(1.0, abs(value)))
    if not math.isfinite(est_error):
        raise HolonomyOverflow("the period's est_error exceeds double precision")
    return Period(total, est_error, check.is_wkb, check.margin)


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
        a = math.atan2(T.imag, T.real)  # cmath.phase's value; cmath.phase raises where it underflows
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
    decreasing-eps sequence.  Finite samples whose fit leaves double
    precision (a subnormal eps whose eps^-p overflows, a trace whose modulus
    is past a double) raise NonFiniteSample, not a numpy warning.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _wkb_fit(samples, candidate_exponents)
    except (FloatingPointError, OverflowError) as exc:
        raise NonFiniteSample(f"the fit of these samples leaves double precision ({exc})") from None


def _wkb_fit(samples: Sequence[HolonomySample], candidate_exponents: Optional[Sequence[Fraction]]) -> WkbFit:
    for s in samples:
        if not (math.isfinite(s.epsilon) and s.epsilon > 0 and cmath.isfinite(s.trace)):
            raise NonFiniteSample(f"need finite eps > 0 and a finite trace; got eps={s.epsilon!r}, trace={s.trace!r}")
    samples = sorted(samples, key=lambda s: -s.epsilon)
    eps = np.array([s.epsilon for s in samples], dtype=float)
    if len(samples) < 6:
        raise InsufficientSamples("need at least 6 samples")
    if len(set(eps)) != len(eps):
        raise InsufficientSamples("epsilon values must be strictly decreasing")
    if float(samples[0].epsilon) / float(samples[-1].epsilon) < 8.0:  # in Python floats a ratio past a double is inf
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
        results.append((exact_fraction(p), Z, c, resid))
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
