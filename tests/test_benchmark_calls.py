"""The benchmark's workloads run against this package, one short loop each.

``perfbench/workloads.py`` calls the package's public functions with their
keyword arguments, and the traced run (``perfbench/tracing.py``) wraps every
function its ``LAYER_API`` names.  A parameter or function removed or renamed
here that the benchmark still uses would otherwise show only in a benchmark
run, as failed operations or an AttributeError.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import ROOT, run_loop  # noqa: E402


@pytest.mark.parametrize("name", ["ExactSuite", "WkbGrid", "InvariantChecks"])
def test_shortest_benchmark_loop_has_no_failed_operation(name):
    workload = getattr(workloads, name)(1, ROOT)
    loop = run_loop(workload, 0.0, None, workloads.CheckFailed)
    assert loop.records
    assert all(r.error is None for r in loop.records), [(r.kind, r.error) for r in loop.records]


@pytest.mark.parametrize("module", sorted(tracing.LAYER_API))
def test_traced_names_resolve_on_the_package(module):
    home = importlib.import_module(f"nilwkb.{module}")
    missing = [name for name in tracing.LAYER_API[module] if not callable(getattr(home, name, None))]
    assert not missing, f"nilwkb.{module} lacks {missing}"
    assert callable(importlib.import_module("nilwkb.holonomy").EigenvalueTrack.__init__)


@pytest.mark.parametrize("workload", ["exact_suite", "wkb_grid"])
def test_traced_benchmark_reports_every_layer_metric(workload):
    # the traced run reads each per-layer figure from what the package does
    # (a sympy gcd, a DOP853 step, an import); one the package stops producing
    # must show here, not first in a benchmark run
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert not missing, missing
