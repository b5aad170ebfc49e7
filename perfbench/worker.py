"""One benchmark process: set up a workload, run its closed loop, report.

Started by ``run.py``; prints ``READY`` when set-up ends (the launcher
times set-up up to that line), then one JSON line with the results.  With ``--setup-only`` it exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from tracing import NFEV, STEPS, Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Operation time between two reference samples taken between operations.
REF_EVERY_S = 0.05
# A cli_cold cycle (ten commands) takes about as long as a whole run; two
# cycles halve the run-to-run spread of its median.
MIN_CYCLES = 2


@dataclass
class Record:
    kind: str
    seconds: float
    error: Optional[str]
    obs: Dict
    traced: bool
    start: float = 0.0
    # Mean reference time over the operation and its neighbouring samples.
    ref: float = 0.0

    @property
    def norm(self) -> float:
        """Seconds at reference speed."""
        return self.seconds * speed.NOMINAL_S / self.ref


@dataclass
class LoopResult:
    records: List[Record] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)

    def ok(self, traced: Optional[bool] = None) -> List[Record]:
        return [r for r in self.records if r.error is None and (traced is None or r.traced == traced)]


def run_loop(workload, seconds: float, tracer: Optional[Tracer], check_failed) -> LoopResult:
    """Whole cycles, one caller, until ``seconds`` have passed and at least
    ``MIN_CYCLES`` have run.

    A traced run alternates untraced and traced cycles, so that both halves
    exist for the overhead comparison.  The reference
    kernel runs between operations, at least every ``REF_EVERY_S`` of
    operation time, and, in untraced runs, also inside long operations (see
    ``speed.Sampler``); its time is taken out of theirs.
    """
    result = LoopResult()
    sampler = speed.Sampler(timer=tracer is None)
    sampler.sample()
    since = 0.0
    t0 = time.perf_counter()
    cycle = 0
    try:
        while cycle < MIN_CYCLES or time.perf_counter() - t0 < seconds:
            traced = tracer is not None and cycle % 2 == 1
            for kind in workload.kinds:
                op = workload.make_op(kind, workload.rng)
                workload.traced = traced
                if tracer is not None:
                    tracer.begin_op(len(result.records), kind, traced)
                t1 = time.perf_counter()
                error = None
                obs: Dict = {}
                try:
                    obs = op() or {}
                except check_failed as exc:
                    error = f"check failed: {exc}"
                except Exception as exc:  # every unexpected error is a failed operation, not a crash
                    error = f"{type(exc).__name__}: {exc}"
                    traceback.print_exc(file=sys.stderr)
                dt = time.perf_counter() - t1
                if tracer is not None:
                    tracer.end_op()
                result.records.append(Record(kind, dt, error, obs, traced, start=t1))
                since += dt
                if since >= REF_EVERY_S:
                    sampler.sample()
                    since = 0.0
            cycle += 1
        sampler.sample()
    finally:
        sampler.stop()
    for rec in result.records:
        rec.ref, stolen = sampler.around(rec.start, rec.start + rec.seconds)
        rec.seconds -= stolen
    result.refs = [r for _t, r, _d in sampler.samples]
    return result


def tail(latencies: List[float]) -> Optional[Dict]:
    """The highest percentile with at least ten samples beyond it; none below the median."""
    n = len(latencies)
    if n < 21:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n, "beyond": 10}


def end_to_end(workload, loop: LoopResult) -> Dict:
    """Every end-to-end figure this workload defines, with units (set-up is added by the launcher).

    Times are at reference speed; the same figure in raw wall time carries
    the suffix ``.wall``.  Rates count verified operations over the time
    spent in operations, which leaves out the reference measurements.
    """
    ok = loop.ok()
    if not ok:
        raise RuntimeError("no operation passed its checks")
    attempted = len(loop.records)
    metrics = {
        "failed_frac": {"value": (attempted - len(ok)) / attempted, "unit": "ratio"},
        "peak_rss_mb": {
            "value": resource.getrusage(
                resource.RUSAGE_CHILDREN if workload.runs_children else resource.RUSAGE_SELF
            ).ru_maxrss
            / 1024.0,
            "unit": "MB",
        },
    }
    for suffix, secs in (("", lambda r: r.norm), (".wall", lambda r: r.seconds)):
        lat_ms = [secs(r) * 1000 for r in ok]
        busy = sum(secs(r) for r in loop.records)
        metrics["op_p50_ms" + suffix] = {"value": statistics.median(lat_ms), "unit": "ms"}
        metrics["ops_per_s" + suffix] = {"value": len(ok) / busy, "unit": "op/s"}
        t = tail(lat_ms)
        if t is not None:
            metrics["op_tail_ms" + suffix] = {"unit": "ms", **t}
        if workload.name == "wkb_grid":
            samples = sum(r.obs["eps_samples"] for r in ok)
            metrics["eps_samples_per_s" + suffix] = {"value": samples / busy, "unit": "sample/s"}
            for kind in workload.kinds:
                times = [secs(r) for r in ok if r.kind == kind]
                if times:
                    metrics[f"fit_s.{kind}" + suffix] = {"value": statistics.median(times), "unit": "s"}
    metrics["reference_ms"] = {"value": statistics.median(loop.refs) * 1000, "unit": "ms"}
    return metrics


# -- per-layer metrics -----------------------------------------------------------

SPAN_MS = {
    "connection.check_flatness_ms": "connection.check_flatness",
    "gauge.secondary_higgs_ms": "gauge.secondary_higgs",
    "gauge.undo_gauge_ms": "gauge.undo_gauge",
    "gauge.gauge_conjugate_ms": "gauge.gauge_conjugate",
    "toymodel.build_toy_higgs_ms": "toymodel.build_toy_higgs",
    "toymodel.residues_ms": "toymodel.residues",
    "holonomy.transport_ms": "holonomy.transport",
    "holonomy.period_ms": "holonomy.period",
    "holonomy.is_wkb_curve_ms": "holonomy.is_wkb_curve",
    "holonomy.track_build_ms": "holonomy.EigenvalueTrack",
    "holonomy.wkb_fit_ms": "holonomy.wkb_fit",
    "surface.validate_ms": "surface.validate",
    "surface.find_wkb_loop_ms": "surface.find_wkb_loop",
}
GRID_FAMILIES = ("nilpotent_sl2", "regular_diagonal", "nilpotent_sl3")


def span_metrics(spans, records: Dict[int, Record]) -> Dict:
    """Per-layer figures from the spans of traced operations; absent where no span exists.

    ``records`` maps operation ids to their records; every span time is
    scaled to reference speed by the reference around its own operation.
    """
    out: Dict[str, Dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def scale(op) -> float:
        return speed.NOMINAL_S / records[op].ref

    def secs(span) -> float:
        return span.duration * scale(span.op)

    by_name: Dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    for metric, name in SPAN_MS.items():
        if by_name.get(name):
            put(metric, statistics.median(secs(s) for s in by_name[name]) * 1000, "ms")
    if by_name.get("catalog.catalog"):
        put("catalog.build_s", statistics.median(secs(s) for s in by_name["catalog.catalog"]), "s")

    gcd = by_name.get("algebra.gcd", [])
    if gcd:
        # Over the first traced cycle, so that the count repeats exactly for a seed.
        first_ops = {}
        for s in spans:
            first_ops.setdefault(s.kind, s.op)
        first = [s for s in gcd if first_ops.get(s.kind) == s.op]
        put("algebra.gcd_calls", len(first), "count")
        put("algebra.gcd_s", sum(secs(s) for s in first), "s")

    grids = by_name.get("holonomy.transport_grid", [])
    for family in GRID_FAMILIES:
        mine = [s for s in grids if s.kind == family]
        if mine:
            put(f"holonomy.transport_grid_s.{family}", statistics.median(secs(s) for s in mine), "s")
            put(f"holonomy.solver_steps.{family}", mine[0].delta(STEPS), "count")
            put(f"holonomy.rhs_evals.{family}", mine[0].delta(NFEV), "count")

    if by_name.get("holonomy.solve_ivp"):
        # The boundary counters are bumped after the solve_ivp span closes; the op totals carry them.
        steps = sum(s.delta(STEPS) for s in spans if s.parent is None)
        nfev = sum(s.delta(NFEV) for s in spans if s.parent is None)
        if steps:
            put("holonomy.rhs_evals_per_step", nfev / steps, "ratio")

    flows = by_name.get("surface.trace_flow", [])
    flow_time = sum(secs(s) for s in flows)
    if flows and flow_time > 0:
        put("surface.flow_crossings_per_s", sum(s.work for s in flows) / flow_time, "1/s")

    errs = [r.obs["trace_rel_err"] for r in records.values() if "trace_rel_err" in r.obs]
    if errs:
        put("holonomy.trace_rel_err_max", max(errs), "ratio")

    # Child interpreters ran on the same pinned CPU, between the same reference samples.
    cli = [(op, r.obs) for op, r in records.items() if "imports" in r.obs]
    if cli:
        for key, metric in (
            ("import_ms", "cli.import_ms"),
            ("sympy_ms", "cli.import.sympy_ms"),
            ("scipy_integrate_ms", "cli.import.scipy_integrate_ms"),
        ):
            vals = [o["imports"][key] * scale(op) for op, o in cli if key in o["imports"]]
            if vals:
                put(metric, statistics.median(vals), "ms")
        out["_cli_wall_import_ms"] = [
            (o["cli_wall_ms"] * scale(op), o["imports"]["import_ms"] * scale(op)) for op, o in cli
        ]
    return out


def layer_metrics(workload, tracer: Tracer, loop: LoopResult) -> Dict:
    import probes

    traced = {i: r for i, r in enumerate(loop.records) if r.traced}
    spans = [s for s in tracer.spans if s.op in traced]
    metrics = span_metrics(spans, traced)
    sources = {name: "workload" for name in metrics}

    # Layers this workload does not call are measured by a fixed probe.
    runs = probes.run_missing(ROOT, tracer, probes.PROBED - set(metrics))
    probe_records = {
        op: Record(kind, secs, None, obs, True, start=start, ref=ref)
        for op, (kind, secs, obs, start, ref) in runs.items()
    }
    probe_spans = [s for s in tracer.spans if s.op in probe_records]
    for name, value in span_metrics(probe_spans, probe_records).items():
        if name not in metrics:
            metrics[name] = value
            sources[name] = "probe"
    for name, value in probes.always(ROOT).items():
        metrics[name] = value
        sources[name] = "probe"
    pairs = metrics.pop("_cli_wall_import_ms")
    sources["cli.command_self_ms"] = sources.pop("_cli_wall_import_ms")
    interp = metrics["cli.interpreter_ms"]["value"]
    metrics["cli.command_self_ms"] = {
        "value": statistics.median(w - i - interp for w, i in pairs),
        "unit": "ms",
    }

    # Traced operations against untraced ones of the same kind, in this run.
    ratios = []
    for kind in workload.kinds:
        on = [r.norm for r in loop.ok(traced=True) if r.kind == kind]
        off = [r.norm for r in loop.ok(traced=False) if r.kind == kind]
        if on and off:
            ratios.append(statistics.median(on) / statistics.median(off))
    metrics["bench.trace_overhead_frac"] = {"value": statistics.median(ratios) - 1.0, "unit": "ratio"}
    sources["bench.trace_overhead_frac"] = "workload"

    # Self time in raw seconds, for the shares in the report.
    by_span = self_times(spans)
    op_time = sum(r.seconds for r in traced.values())
    by_layer: Dict[str, float] = {}
    for name, secs in by_span.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + secs
    by_layer["bench"] = op_time - sum(s.duration for s in spans if s.parent is None)
    return {
        "metrics": metrics,
        "sources": sources,
        "self_s": {"by_layer": by_layer, "by_span": by_span, "traced_op_s": op_time},
    }


def machine_facts(seed: int) -> Dict:
    import os
    import platform

    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install_boundaries()
    import workloads  # imports nilwkb

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if tracer is not None:
            tracer.install_api()
            # A CLI command is one span: the child's own layers are out of reach.
            workloads.run_cli = tracer.wrap(workloads.run_cli, "cli.command")
        loop = run_loop(workload, args.seconds, tracer, workloads.CheckFailed)
        failures = [f"{r.kind}: {r.error}" for r in loop.records if r.error is not None]
        result = {
            "attempted": len(loop.records),
            "failed": len(failures),
            "failures": failures[:20],
            "facts": machine_facts(args.seed),
        }
        if tracer is None:
            result["metrics"] = end_to_end(workload, loop)
        else:
            result.update(layer_metrics(workload, tracer, loop))
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
            result["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
