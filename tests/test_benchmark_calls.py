"""The benchmark's workloads run against this package, one short loop each.

``perfbench/workloads.py`` calls the package's public functions with their
keyword arguments, and the traced run (``perfbench/tracing.py``) wraps every
function its ``LAYER_API`` names.  A parameter or function removed or renamed
here that the benchmark still uses would otherwise show only in a benchmark
run, as failed operations or an AttributeError.
"""

import importlib
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
