"""The machine's speed during a run, from a fixed pure-Python loop.

On a shared host the same Python code runs up to 1.5 times faster or slower
from one stretch of seconds to the next: a fixed dict loop was seen taking
25 to 79 ms. Wall times of the simulated open/close loops then spread up to
40% between 25-second runs. A run of such a workload therefore also times
this loop between operations, and reports its times scaled by REFERENCE_S
over the loop's median time in that run. The loop runs the same code on every commit,
so a change to the program still moves the scaled times in full.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.004       # the loop's time at speed factor 1
INTERVAL_S = 0.2          # least wall time between two samples
LOOP_N = 10_000


def _loop() -> float:
    start = perf_counter()
    counts: dict[str, int] = {}
    for i in range(LOOP_N):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + 1
    return perf_counter() - start


class SpeedMeter:
    """Times the loop at most every INTERVAL_S, between operations."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(_loop())
            self._last = perf_counter()

    def factor(self) -> float:
        """Multiply a wall time of this run by this to get it at
        reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
