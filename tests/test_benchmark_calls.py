"""The benchmark's workloads run against this package, one short loop each.

``perfbench/workloads.py`` calls the package's public functions with their
keyword arguments.  A parameter removed or renamed here that the benchmark
still passes would otherwise show only as failed benchmark operations.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from worker import ROOT, run_loop  # noqa: E402


@pytest.mark.parametrize("name", ["ExactSuite", "WkbGrid", "InvariantChecks"])
def test_shortest_benchmark_loop_has_no_failed_operation(name):
    workload = getattr(workloads, name)(1, ROOT)
    loop = run_loop(workload, 0.0, None, workloads.CheckFailed)
    assert loop.records
    assert all(r.error is None for r in loop.records), [(r.kind, r.error) for r in loop.records]
