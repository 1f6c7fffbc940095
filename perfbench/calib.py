"""Host-speed calibration: every timing is scaled to a nominal host speed.

The benchmark shares a few CPUs of a host with other tenants, and the
speed the program gets drifts by 25-45% over tens of seconds, far more
than between two runs of the same code on a quiet host.  The drift moves
interpreter-bound code most; the program's steps and requests move with
it, while NumPy's vectorised loops barely do.  So a fixed pure-Python
loop, timed by the CPU time of its thread right next to each measured
operation, tracks the speed the operation ran at.  Each operation's wall
time is multiplied by ``NOMINAL_S / reference_s()``: the time it would
have taken on the host at its nominal speed, the median of
``reference_s()`` on the 2-vCPU host the benchmark was tuned on.

The loop is part of the benchmark, not of the program, so no change to
the program moves it; it runs on the calling thread and is timed by that
thread's CPU time, so threads or processes the program starts do not
slow it down.  Raw wall-clock figures are recorded next to every result.
"""

from __future__ import annotations

import statistics
import time

#: iterations of the reference loop (about 3.5 ms on the nominal host)
LOOP = 40_000
#: typical ``reference_s(1)`` on the nominal host: 2 vCPUs of a shared
#: Intel Xeon host (2.9-3.8 ms as its speed drifted), CPython 3.11
NOMINAL_S = 0.0035
#: reference-loop runs per timing before and after a set-up
SETUP_REPS = 15


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def reference_s(reps: int = 1) -> float:
    """Median CPU time of ``reps`` runs of the reference loop."""
    times = []
    for _ in range(reps):
        t = time.thread_time()
        _loop(LOOP)
        times.append(time.thread_time() - t)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall time to nominal-host time for an operation
    bracketed by two reference timings."""
    return NOMINAL_S / ((before + after) / 2.0)
