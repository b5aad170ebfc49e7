"""Self-test of the benchmark's checks and bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import random

import pytest

import workloads
from tracing import STEPS, Tracer, self_times
from worker import ROOT, run_loop, tail


def shortest_run(workload):
    return run_loop(workload, 0.0, None, workloads.CheckFailed)


def test_invariant_checks_pass():
    loop = shortest_run(workloads.InvariantChecks(1, ROOT))
    assert [r.kind for r in loop.records] == list(workloads.InvariantChecks.kinds) * 2
    assert all(r.error is None for r in loop.records), [r.error for r in loop.records]


def test_corrupted_expected_value_is_a_failure(monkeypatch):
    closed_form = workloads.diagonal_trace
    monkeypatch.setattr(workloads, "diagonal_trace", lambda eps: closed_form(eps) * (1 + 1e-6))
    loop = shortest_run(workloads.InvariantChecks(1, ROOT))
    failed = [r for r in loop.records if r.error is not None]
    assert [r.kind for r in failed] == ["circle", "circle"]
    assert failed[0].error.startswith("check failed: trace off 2cosh(1/eps)")


def test_corrupted_exact_table_is_a_failure(monkeypatch):
    table = dict(workloads.PDEG_TABLE)
    key = next(iter(table))
    table[key] += 1
    monkeypatch.setattr(workloads, "PDEG_TABLE", table)
    workload = workloads.ExactSuite(1, ROOT)
    op = workload.check_toy_model(random.Random(0))
    with pytest.raises(workloads.CheckFailed):
        op()


def test_unexpected_exception_is_a_failure_not_a_crash(monkeypatch):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(workloads.holonomy, "period", broken)
    loop = shortest_run(workloads.InvariantChecks(1, ROOT))
    errors = {r.kind: r.error for r in loop.records}
    assert errors["antisymmetry"] == "ZeroDivisionError: boom"
    assert errors["multiplicativity"] is None and errors["circle"] is None


def test_same_seed_same_inputs():
    a = workloads.WkbGrid(7, ROOT)
    b = workloads.WkbGrid(7, ROOT)
    c = workloads.WkbGrid(8, ROOT)
    draws = [w.rng.random() for w in (a, b, c)]
    assert draws[0] == draws[1] != draws[2]


def test_tail_has_ten_samples_beyond():
    assert tail([float(i) for i in range(20)]) is None
    t = tail([float(i) for i in range(100)])
    assert t["value"] == 89.0 and t["percentile"] == 90.0 and t["samples"] == 100
    assert sum(1 for x in range(100) if x > t["value"]) == 10


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1092 |       2337 | encodings",
            "import time:      2000 |     400000 |     sympy",
            "import time:      3000 |     700000 |       scipy.integrate",
            "import time:      5000 |    1100000 |   nilwkb.holonomy",
            "import time:       911 |    1174425 | nilwkb",
            "import time:       100 |       5000 | argparse",
        ]
    )
    got = workloads.parse_importtime(stderr)
    assert got == {"import_ms": 1179.425, "sympy_ms": 400.0, "scipy_integrate_ms": 700.0}


def test_span_counts_attach_to_enclosing_span():
    tracer = Tracer()
    inner = tracer.wrap(lambda: tracer.counts.__setitem__(STEPS, tracer.counts[STEPS] + 5), "holonomy.inner")
    outer = tracer.wrap(lambda: inner(), "holonomy.outer")
    tracer.begin_op(0, "k", True)
    outer()
    tracer.end_op()
    spans = {s.name: s for s in tracer.spans}
    assert spans["holonomy.inner"].parent == spans["holonomy.outer"].sid
    assert spans["holonomy.outer"].delta(STEPS) == 5
    selfs = self_times(tracer.spans)
    assert selfs["holonomy.outer"] <= spans["holonomy.outer"].duration
