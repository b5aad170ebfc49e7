"""Spans and boundary counters for the traced benchmark run.

All measurement happens from outside the package: the tracer wraps the
public functions of each ``nilwkb`` module and the two library boundaries
where the work is done (``scipy.integrate.solve_ivp`` for the ODE solve,
``sympy.Poly.gcd`` for exact normalisation).  Nothing under ``src/`` is
changed.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# Public functions wrapped per module.  The layer of a span is the part of
# its name before the first dot.
LAYER_API = {
    "catalog": ("catalog",),
    "connection": ("check_flatness", "scale_orbit"),
    "gauge": (
        "secondary_higgs",
        "undo_gauge",
        "gauge_conjugate",
        "k_differentials",
        "is_m_cyclic",
        "jordan_type",
    ),
    "toymodel": (
        "build_toy_higgs",
        "residues",
        "pdeg",
        "pdeg_table",
        "check_weight_inequalities",
        "nilpotent_cone_graph",
    ),
    "holonomy": ("pullback", "transport", "transport_grid", "period", "is_wkb_curve", "wkb_fit"),
    "surface": ("validate", "find_wkb_loop", "trace_flow", "lift_check", "staircase"),
}

# Counter slots: solve_ivp calls, accepted steps, RHS evaluations, gcd calls.
IVP_CALLS, STEPS, NFEV, GCD_CALLS = range(4)


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    op: Optional[int]
    kind: Optional[str]
    name: str
    start: float
    end: float = 0.0
    c0: Tuple[int, ...] = ()
    c1: Tuple[int, ...] = ()
    work: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def delta(self, slot: int) -> int:
        return self.c1[slot] - self.c0[slot]


@dataclass
class Tracer:
    """In-memory span recorder; ``active`` switches recording per operation."""

    counts: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    spans: List[Span] = field(default_factory=list)
    active: bool = False
    op: Optional[int] = None
    kind: Optional[str] = None
    _stack: List[int] = field(default_factory=list)

    # -- recording ------------------------------------------------------------

    def _call(self, name: str, fn: Callable, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span = Span(
            sid=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            op=self.op,
            kind=self.kind,
            name=name,
            start=time.perf_counter(),
            c0=tuple(self.counts),
        )
        self.spans.append(span)
        self._stack.append(span.sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.c1 = tuple(self.counts)
            self._stack.pop()
        if name == "surface.trace_flow":
            span.work = len(result.crossings)
        return result

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def begin_op(self, op: int, kind: str, active: bool) -> None:
        self.op, self.kind, self.active = op, kind, active

    def end_op(self) -> None:
        self.op, self.kind, self.active = None, None, False

    # -- installation ---------------------------------------------------------

    def install_boundaries(self) -> None:
        """Count and time solve_ivp and Poly.gcd; must run before nilwkb is imported."""
        if "nilwkb" in sys.modules:
            raise RuntimeError("boundary counters must be installed before nilwkb is imported")
        import scipy.integrate
        import sympy

        counts = self.counts
        solve_ivp = scipy.integrate.solve_ivp

        def counted_solve_ivp(*args, **kwargs):
            sol = self._call("holonomy.solve_ivp", solve_ivp, args, kwargs)
            counts[IVP_CALLS] += 1
            counts[STEPS] += len(sol.t) - 1
            counts[NFEV] += int(sol.nfev)
            return sol

        scipy.integrate.solve_ivp = counted_solve_ivp

        gcd = sympy.Poly.gcd

        def counted_gcd(a, b):
            counts[GCD_CALLS] += 1
            return self._call("algebra.gcd", gcd, (a, b), {})

        sympy.Poly.gcd = counted_gcd

    def install_api(self) -> None:
        """Replace every reference to a wrapped public function inside nilwkb."""
        modules = [m for name, m in sys.modules.items() if name == "nilwkb" or name.startswith("nilwkb.")]
        for mod_name, names in LAYER_API.items():
            home = importlib.import_module(f"nilwkb.{mod_name}")
            for fname in names:
                orig = getattr(home, fname)
                traced = self.wrap(orig, f"{mod_name}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, traced)
        track = importlib.import_module("nilwkb.holonomy").EigenvalueTrack
        track.__init__ = self.wrap(track.__init__, "holonomy.EigenvalueTrack")

    # -- reporting ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "op": s.op,
                            "kind": s.kind,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "counts": [b - a for a, b in zip(s.c0, s.c1)],
                            "work": s.work,
                        }
                    )
                    + "\n"
                )


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span duration minus the time covered by its direct children, by span name."""
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(s.sid, 0.0)
    return out
