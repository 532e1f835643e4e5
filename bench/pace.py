"""Machine-speed reference for the benchmark's timings.

The 2-vCPU VM this benchmark was built on shares its physical cores with
other tenants, and the guest cannot see it: steal time stays near zero and
CPU time equals wall time.  Its speed flips between two states about 1.5
times apart, in spells from a tenth of a second to many minutes.  Ten
wall-clock runs of one workload, half a minute each, read rates up to 0.26
apart between their quartiles, and two sets of ten runs of the same code
could differ by more than any useful bound.

A `Pace` times a fixed pure-Python kernel, which calls no `dicuts` code,
every `EVERY_S` seconds while it is running: a SIGALRM interval timer runs
the kernel from a signal handler, between two bytecodes of whatever the
process is doing, also in the middle of a long op.  It runs in the
benchmark's own process and thread, so no load runs beside the program.
Between two samples the machine's speed is taken as REF_S over the mean of
their kernel times, and `seconds` integrates it over an interval: the
interval's length in reference seconds, i.e. seconds on a machine where the
kernel takes exactly REF_S (about the VM's faster state).  The kernel's own
runs are left out of every interval, in wall and in reference seconds.  The
program cannot change the kernel's time, so a scaled figure moves with the
program and not with the machine.  Sampling every 25 ms follows the short
spells; at 100 ms the scaled figures of five seeds of sparse-d11 still
spread 0.07 to 0.09 between their quartiles, at 25 ms 0.015 to 0.05.  The
kernel takes 2 to 3 % of a run.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter

EVERY_S = 0.025
REF_S = 0.0004

_N = 800
# a fixed sparse digraph with out-degree 3
_SUCC = tuple(tuple((7 * v + 13 * d + 1) % _N for d in range(3)) for v in range(_N))


def kernel() -> int:
    """Breadth-first search over `_SUCC` plus a set of pairs: the dict, set,
    list and tuple traffic of the program's graph code, without its code."""
    dist = {0: 0}
    queue = [0]
    for v in queue:
        for w in _SUCC[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    pairs = {(v, d) for v, d in dist.items() if d % 2}
    return len(pairs) + len(queue)


class Pace:
    """Kernel samples: when each started and ended.  Use it as a context
    manager to sample every EVERY_S seconds while the block runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._old_handler = None

    def sample(self) -> None:
        """Time the kernel once, with the cyclic collector off so a
        collection the program's heap triggered does not land in it."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        kernel()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "Pace":
        self.sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        # stop the timer before the handler goes, so no alarm finds the
        # default action (which ends the process)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()

    def kernel_ms(self) -> list[float]:
        return [1000 * (e - s) for s, e in zip(self.starts, self.ends)]

    def _rate(self, gap: int) -> float:
        """Reference seconds per wall second between samples gap - 1 and
        gap (the first or last sample alone outside them)."""
        lo, hi = max(gap - 1, 0), min(gap, len(self.starts) - 1)
        took = (self.ends[lo] - self.starts[lo] + self.ends[hi] - self.starts[hi]) / 2
        return REF_S / took

    def seconds(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, reference) seconds of [t0, t1] without the kernel's runs.

        Gap i is the time between the end of sample i - 1 and the start of
        sample i; the kernel's runs lie between the gaps."""
        wall = ref = 0.0
        gap = bisect.bisect_right(self.ends, t0)
        while True:
            lo = max(t0, self.ends[gap - 1]) if gap else t0
            hi = min(t1, self.starts[gap]) if gap < len(self.starts) else t1
            if hi > lo:
                wall += hi - lo
                ref += (hi - lo) * self._rate(gap)
            if gap >= len(self.starts) or self.starts[gap] >= t1:
                return wall, ref
            gap += 1
