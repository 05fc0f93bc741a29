"""A reference loop that measures the CPU's current speed during a timed pass.

On a small shared VM the speed of one vCPU changes by up to 1.7x over
seconds to minutes, while the pass time of the program changes with it.
Raw seconds then say more about the host than about the program.  So during
every end-to-end pass a timer signal (``SIGALRM``, every ``PERIOD_S``) runs a
short fixed pure-Python loop in the benchmark process, on the same CPU and
interleaved with the program.  A pass is then reported in reference loops:

    cost = (pass wall time - time spent in the loop) / median loop time

The loop never calls the package, so a faster program lowers the cost and a
faster host does not.  Its time during the pass is subtracted; the signal
handler runs between bytecodes of the main thread, as any Python handler
does, and takes about 1.5% of a pass.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025
LOOP_N = 1500
MIN_RUNS = 5  # a pass too short for this many ticks is topped up after it


def reference_loop(n: int = LOOP_N) -> int:
    """Fixed interpreter work: dict stores and loads, integer arithmetic."""
    acc = 0
    table = dict.fromkeys(range(256), 0)
    for i in range(n):
        table[i & 255] = i * 3 + (acc >> 3)
        acc += table[(i * 7) & 255] & 1023
    return acc


class SpeedReference:
    """Context manager: runs the reference loop every ``period_s`` seconds of
    wall time while active, recording ``(start, duration)`` of each run.  On
    exit the loop runs again, outside the pass, until ``MIN_RUNS`` runs exist."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.runs: list = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.runs.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self.runs = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.runs) < MIN_RUNS:
            self._tick(None, None)
        return False

    def busy_s(self, t0: float, t1: float) -> float:
        """Seconds the loop ran from within ``[t0, t1)``."""
        return sum(d for start, d in self.runs if t0 <= start < t1)

    def loop_s(self) -> float:
        """Median duration of one loop run."""
        return statistics.median(d for _, d in self.runs)

    def cost(self, t0: float, seconds: float) -> float:
        """Reference loops' worth of program time in ``[t0, t0 + seconds)``."""
        return (seconds - self.busy_s(t0, t0 + seconds)) / self.loop_s()
