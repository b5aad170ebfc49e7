"""Machine-speed reference for the benchmark's times.

A shared 2-vCPU virtual machine (Intel Xeon, 2.0 GHz) runs the same
code up to 1.5x slower for stretches of seconds to minutes, with the process
on-CPU the whole time; raw medians of 15-second runs spread by up to 44%
between runs. A short fixed kernel, timed next to the measured work on the
same pinned CPU, tracks that factor: in the same runs the median operation
time divided by the adjacent kernel time spread by 3%.

Every time in the benchmark's JSON result is therefore given at reference
speed: ``raw_seconds * NOMINAL_S / reference_seconds``, the time the work
would take on a machine where the kernel takes ``NOMINAL_S``. The report
lines print the raw wall times next to them.
"""

from __future__ import annotations

import os
import signal
import time
from bisect import bisect_left, bisect_right
from typing import List, Tuple

import numpy as np

NOMINAL_S = 1e-3
_A = np.eye(3, dtype=complex) * 0.5


def _kernel() -> None:
    # Interpreted complex arithmetic plus small numpy products: the mix the
    # package's numeric layer runs.
    z = 0.3 + 0.1j
    s = 0.0
    for _ in range(3000):
        z = z * z * 0.5 + 0.1j
        s += abs(z)
    for _ in range(200):
        _A @ _A + _A


def reference_s() -> float:
    """Seconds for one kernel run, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def pin_cpu() -> None:
    """Keep this process (and the children it starts) on one CPU, so that
    the reference and the work it scales share that CPU's speed."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Sampler:
    """Reference samples over a run, as (start time, reference seconds, time taken).

    With ``timer`` set, a SIGALRM handler also samples every ``interval``
    seconds inside long operations, including while this process waits for
    a child on the same pinned CPU; the caller subtracts the handler's time
    from the operation it interrupted (``around``).  Samples taken only
    between operations do not track a speed change inside a 1.5 s command:
    normalised by them, per-command times varied by 10%, as much as raw;
    with the timer, by 4%.
    """

    def __init__(self, timer: bool, interval: float = 0.1):
        self.samples: List[Tuple[float, float, float]] = []
        self._busy = False
        self._timer = timer
        if timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.sample()

    def sample(self) -> None:
        self._busy = True
        t0 = time.perf_counter()
        ref = reference_s()
        self.samples.append((t0, ref, time.perf_counter() - t0))
        self._busy = False

    def stop(self) -> None:
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._timer = False

    def around(self, start: float, end: float) -> Tuple[float, float]:
        """(mean reference over the interval and its two neighbours, sampling time inside it)."""
        times = [t for t, _r, _d in self.samples]
        lo, hi = bisect_left(times, start), bisect_right(times, end)
        inside = self.samples[lo:hi]
        refs = [r for _t, r, _d in inside]
        if lo > 0:
            refs.append(self.samples[lo - 1][1])
        if hi < len(self.samples):
            refs.append(self.samples[hi][1])
        return sum(refs) / len(refs), sum(d for _t, _r, d in inside)
