"""Host-speed calibration: a fixed loop, timed between ops.

A benchmark on a shared host runs as fast as its neighbours let it.
On the 2-vCPU machine this benchmark was written on, the same op ran
1.4–2.2× slower for minutes at a time, on both vCPUs at once and in CPU
time as in wall time.  A run (under a minute) lands in such a phase or
not, so raw times spread between runs by more than any useful bound.

So between ops, at most every ``PROBE_EVERY_S`` seconds, the run times
a fixed calibration loop that does not touch the library: pure-Python
integer arithmetic and numpy boolean mask ANDs, the two kinds of work
the library's ops mix.  Each part's time over its reference (its time
on an idle vCPU of that machine) is the host's slowdown for that kind
of work, and a probe's slowdown is their mean.  An op's time at
reference speed is its wall time over the median slowdown of the
``SIDE_PROBES`` probes just before it and those just after it.  The
program cannot change the loop, so a change to the program moves the
scaled times as it moves the raw ones.

The probes run in the benchmark's own process, between ops: a probe
running beside the workload, on the other vCPU, read the workload's own
load (2–3× slowdowns while the workload ran), not the neighbours'.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Times of the two calibration parts on an idle vCPU of the reference
#: host (Intel Xeon, 2.1 GHz, 2 vCPUs): the 2nd percentile of 1,100
#: probes over a minute.
PY_REF_S = 2.10e-3
NP_REF_S = 0.66e-3
#: Before an op, probe if the last probe is at least this old.
PROBE_EVERY_S = 0.5
#: Probes taken on each side of an op to scale it.
SIDE_PROBES = 3

_MASKS = np.random.default_rng(0).random((40_000, 8)) < 0.1


def calibrate() -> tuple[float, float]:
    """Seconds of the pure-Python part and of the numpy part."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    middle = time.perf_counter()
    for j in range(12):
        int(np.logical_and(_MASKS[:, j % 8], _MASKS[:, (j + 3) % 8]).sum())
    return middle - start, time.perf_counter() - middle


def slowdown() -> float:
    py_s, np_s = calibrate()
    return 0.5 * (py_s / PY_REF_S + np_s / NP_REF_S)


class HostSpeed:
    """The probes of one run, and the slowdown around an op."""

    def __init__(self) -> None:
        #: ``(perf_counter, slowdown)`` per probe, in time order.
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        value = slowdown()
        self.probes.append((time.perf_counter(), value))

    def maybe_probe(self) -> None:
        """Probe unless the last probe is less than ``PROBE_EVERY_S`` old."""
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Median slowdown of the ``SIDE_PROBES`` probes before *start*
        and the ``SIDE_PROBES`` probes after *end*."""
        times = [t for t, _ in self.probes]
        first = bisect.bisect_right(times, start)
        last = bisect.bisect_left(times, end)
        near = self.probes[max(0, first - SIDE_PROBES):first] + self.probes[last:last + SIDE_PROBES]
        if not near:
            raise RuntimeError("no host-speed probe around the op")
        return statistics.median(s for _, s in near)
