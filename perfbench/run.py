"""nilwkb benchmark: one named workload, seeded, timed, every result checked.

    python3 perfbench/run.py --workload wkb_grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The launcher pins itself to one CPU and
starts fresh worker processes against the checkout's ``src/``:
``SETUP_RUNS - 1`` that only set up, then one that sets up and measures.
``setup_s`` is the median time from starting a worker to its ``READY``
line.  Times are at reference speed (see ``speed.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Lines before it give every
end-to-end figure of the workload by name and unit, the machine facts, and,
for a traced run, self time by layer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from env import clean_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wkb_grid", "invariant_checks", "exact_suite", "cli_cold")
SETUP_RUNS = 3
# Headroom over --seconds for set-up, the last cycle and the traced-run probes.
WORKER_GRACE_S = 120


def start_worker(args, env, setup_only: bool):
    """Run one worker; returns ((set-up seconds at reference speed, raw), its standard output)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # Reference samples before and during set-up; the timer stops at READY,
    # so that it takes nothing from the measured loop.
    sampler = speed.Sampler(timer=True)
    sampler.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(args.seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        wall_s = time.perf_counter() - t0
        sampler.stop()
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready (got {line!r})")
        ref, stolen = sampler.around(t0, t0 + wall_s)
        setup = ((wall_s - stolen) * speed.NOMINAL_S / ref, wall_s)
        out, _ = proc.communicate()
    finally:
        sampler.stop()
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return setup, out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def src_digest() -> str:
    """Identifies the measured sources where the checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nilwkb" / "__init__.py").is_file():
        print(f"perfbench: no nilwkb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    env = clean_env(ROOT)
    speed.pin_cpu()

    # A traced run reports no set-up time, so it sets up only once.
    setups = [start_worker(args, env, setup_only=True)[0] for _ in range(0 if args.trace else SETUP_RUNS - 1)]
    setup, out = start_worker(args, env, setup_only=False)
    setups.append(setup)
    result = json.loads(out.strip().splitlines()[-1])

    facts = dict(result["facts"], commit=git_commit(), src_sha256=src_digest(), workload=args.workload, trace=args.trace)
    print("facts " + json.dumps(facts, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED {failure}")

    figures = dict(result["metrics"])
    if not args.trace:
        figures["setup_s"] = {"value": statistics.median(s for s, _ in setups), "unit": "s"}
        walls = [w for _, w in setups]
        figures["setup_s.wall"] = {"value": statistics.median(walls), "unit": "s", "samples": walls}
    for name in sorted(figures):
        fig = figures[name]
        extra = {k: v for k, v in fig.items() if k not in ("value", "unit")}
        source = result.get("sources", {}).get(name)
        line = f"{name:40s} {fig['value']:.6g} {fig['unit']}"
        if extra:
            line += " " + json.dumps(extra)
        if source:
            line += f" [{source}]"
        print(line)
    if args.trace:
        selfs = result["self_s"]
        total = selfs["traced_op_s"]
        print(f"self time of traced operations ({total:.3f} s), by layer:")
        for layer, secs in sorted(selfs["by_layer"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:12s} {secs:9.4f} s {secs / total:7.1%}")
        print("by span (top 10):")
        for name, secs in sorted(selfs["by_span"].items(), key=lambda kv: -kv[1])[:10]:
            print(f"  {name:32s} {secs:9.4f} s {secs / total:7.1%}")
        print(f"spans written to {result['trace_file']}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        fig = figures[entry["name"]]
        if fig["unit"] != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {fig['unit']} != {entry['unit']}")
        metrics[entry["name"]] = {"value": fig["value"], "unit": fig["unit"]}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
