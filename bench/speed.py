"""How fast the machine ran while each task ran.

The benchmark shares a few CPUs of a host with other tenants.  On such a
host the same code runs at full speed in some phases and up to about
twice as slowly in others, which last from a second to minutes, in CPU
time as much as in wall time (a busy neighbour on the same core, not the
scheduler).  The share of a run that falls into slow phases changes from
run to run, and with it every time measured over the run.

A fixed reference kernel, the probe, is timed before the first task and
after every task.  It is benchmark code only (numpy and a pure Python
loop, no library call), so no change to the library makes it faster or
slower, and its time tells how fast the machine is at that moment.  A
task's slowdown is the probe time around it (the running median of the
nearby probes) over ``REFERENCE_PROBE_MS``, the probe's time at full
speed on the host the benchmark was written on.  The task-time metrics
divide each measured time by its slowdown: they are task times in units
of the probe's time, expressed in ms of a machine on which the probe
takes ``REFERENCE_PROBE_MS``.  The reference is a constant rather than
the fastest probe of each run because a run that spends all of its time
in slow phases never shows the full speed.  The measured times, the
mean slowdown and the fastest probe are printed beside the metrics.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: probe time at full speed on the host the benchmark was written on (a
#: shared 2-CPU Xeon VM): the fastest probes of its runs read 0.152-0.170 ms
REFERENCE_PROBE_MS = 0.16
#: probes on each side in the running median that gives the speed at a moment
SMOOTH = 3

_X = np.linspace(0.0, 1.0, 2048)


def probe_ms() -> float:
    """Fastest of three timings of the reference kernel (about 0.16 ms each
    at full speed); the minimum sheds an interrupt that hits one of them."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        z = np.exp(2j * np.pi * _X) * (1.0 + 0.5 * _X)
        np.abs(np.log(1.0 + 0.9 * z)).sum()
        s = 0
        for i in range(330):
            s += i * i % 7
        best = min(best, (time.perf_counter_ns() - t0) / 1e6)
    return best


def slowdowns(probes: Sequence[float]) -> list[float]:
    """Slowdown of each interval between consecutive probes (one per task).

    ``probes[i]`` and ``probes[i + 1]`` bracket task ``i``; a lone slow or
    fast probe does not move the running median.
    """
    n = len(probes)
    state = [statistics.median(probes[max(0, i - SMOOTH):i + SMOOTH + 1]) for i in range(n)]
    return [(state[i] + state[i + 1]) / (2.0 * REFERENCE_PROBE_MS) for i in range(n - 1)]
