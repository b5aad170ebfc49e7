"""Fixed layer probes for the traced run.

A traced run reports every per-layer metric.  Where the workload's own
operations never call a layer (``exact_suite`` runs no ODE, ``wkb_grid``
makes no gcd call after set-up), the metric comes from a probe: a call
into that layer on canonical inputs, identical in every workload.  The
report names the source of each metric.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Dict

import numpy as np

import speed
import workloads as wl
from env import clean_env
from nilwkb import catalog as catalog_mod
from nilwkb import connection, gauge, holonomy, surface, toymodel

PROBE_OP = 10**6


def _exact():
    families = catalog_mod.catalog()
    for family in families.values():
        connection.check_flatness(family)
    for family, blocks in ((families["nilpotent_sl2"], [1, 1]), (families["nilpotent_sl3"], [1, 1, 1])):
        data = gauge.secondary_higgs(family, blocks)
        gauge.undo_gauge(data)
        back = gauge.gauge_conjugate(data.Phi, data.profile)
        gauge.gauge_conjugate(back, data.profile.negated())
    for which in ("phi_p", "phi_0", "phi_1", "phi_inf"):
        toymodel.residues(toymodel.build_toy_higgs(which, 2))
    return {}


def _grid(family: str):
    fam = getattr(catalog_mod, family)()
    if family == "nilpotent_sl2":
        samples = holonomy.transport_grid(fam, wl.SEG, np.geomspace(0.25, 5e-4, 12), rel_tol=1e-11)
        holonomy.wkb_fit(samples, wl.CANDIDATES)
        return {"trace_rel_err": wl.max_rel_err(samples, wl.sl2_trace)}
    if family == "regular_diagonal":
        samples = holonomy.transport_grid(fam, wl.CIRCLE, np.geomspace(0.5, 0.05, 12), rel_tol=1e-11)
        holonomy.wkb_fit(samples, wl.CANDIDATES)
        return {"trace_rel_err": wl.max_rel_err(samples, wl.diagonal_trace)}
    samples = holonomy.transport_grid(fam, wl.SEG, np.geomspace(0.1, 1e-3, 32), rel_tol=1e-10)
    holonomy.wkb_fit(samples)
    return {}


def _single():
    fam = catalog_mod.nilpotent_sl2()
    holonomy.transport(fam, wl.SEG, 0.01)
    Phi = gauge.secondary_higgs(fam, [1, 1]).Phi
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        holonomy.period(Phi, wl.SEG)
    return {}


def _surface():
    surface.validate(surface.staircase(3, "left"))
    surface.find_wkb_loop(surface.flat_torus(), (0, 0.21 + 0.13j), np.arctan2(1, 2))
    return {}


def _cli(root: Path):
    obs = wl.run_cli(root, ["toy", "pdeg", "--rho", wl.RHO], importtime=True)
    return {"imports": obs["imports"], "cli_wall_ms": obs["wall_ms"]}


# (kind, metrics it yields, function)
SEGMENTS = [
    (
        "exact",
        {
            "algebra.gcd_calls",
            "algebra.gcd_s",
            "catalog.build_s",
            "connection.check_flatness_ms",
            "gauge.secondary_higgs_ms",
            "gauge.undo_gauge_ms",
            "gauge.gauge_conjugate_ms",
            "toymodel.build_toy_higgs_ms",
            "toymodel.residues_ms",
        },
        lambda root: _exact(),
    ),
]
for _family in ("nilpotent_sl2", "regular_diagonal", "nilpotent_sl3"):
    SEGMENTS.append(
        (
            _family,
            {
                f"holonomy.transport_grid_s.{_family}",
                f"holonomy.solver_steps.{_family}",
                f"holonomy.rhs_evals.{_family}",
                "holonomy.rhs_evals_per_step",
                "holonomy.wkb_fit_ms",
                "holonomy.trace_rel_err_max",
            },
            lambda root, f=_family: _grid(f),
        )
    )
SEGMENTS += [
    (
        "single",
        {"holonomy.transport_ms", "holonomy.period_ms", "holonomy.is_wkb_curve_ms", "holonomy.track_build_ms"},
        lambda root: _single(),
    ),
    ("surface", {"surface.validate_ms", "surface.find_wkb_loop_ms", "surface.flow_crossings_per_s"}, lambda root: _surface()),
    ("cli", {"cli.import_ms", "cli.import.sympy_ms", "cli.import.scipy_integrate_ms"}, _cli),
]
PROBED = set().union(*(names for _kind, names, _fn in SEGMENTS))


def run_missing(root: Path, tracer, missing) -> Dict:
    """Run, traced, each probe segment that yields a missing metric.

    Returns operation id -> (kind, seconds, observations, start, reference seconds).
    """
    runs = {}
    for kind, names, fn in SEGMENTS:
        if not names & missing:
            continue
        op = PROBE_OP + len(runs)
        ref_before = speed.reference_s()
        tracer.begin_op(op, kind, True)
        t0 = time.perf_counter()
        try:
            obs = fn(root)
        finally:
            tracer.end_op()
        seconds = time.perf_counter() - t0
        runs[op] = (kind, seconds, obs, t0, (ref_before + speed.reference_s()) / 2)
    return runs


def _pullback_us(family, rng: random.Random) -> float:
    M = holonomy.pullback(family, wl.SEG, 0.01)
    ts = [rng.random() for _ in range(2000)]
    runs = []
    for _ in range(5):
        ref_before = speed.reference_s()
        t0 = time.perf_counter()
        for t in ts:
            M(t)
        raw = (time.perf_counter() - t0) / len(ts)
        runs.append(raw * speed.NOMINAL_S / ((ref_before + speed.reference_s()) / 2) * 1e6)
    return statistics.median(runs)


def always(root: Path) -> Dict:
    """Figures every traced run measures directly, at reference speed: M(t) cost and a bare interpreter."""
    rng = random.Random(0)
    out = {
        "holonomy.pullback_eval_us.rank2": {"value": _pullback_us(catalog_mod.nilpotent_sl2(), rng), "unit": "us"},
        "holonomy.pullback_eval_us.rank3": {"value": _pullback_us(catalog_mod.nilpotent_sl3(), rng), "unit": "us"},
    }
    walls = []
    for _ in range(5):
        ref_before = speed.reference_s()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=clean_env(root), check=True, timeout=60)
        raw = time.perf_counter() - t0
        walls.append(raw * speed.NOMINAL_S / ((ref_before + speed.reference_s()) / 2) * 1000)
    out["cli.interpreter_ms"] = {"value": statistics.median(walls), "unit": "ms"}
    return out
