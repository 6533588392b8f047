"""The shared host's speed during a run, sampled with a fixed reference block.

The benchmark's host is a few vCPUs of a machine shared with other tenants.
Their load slows every pure-Python loop by the same factor at once, by up to
1.7x for seconds to minutes: all the figures of one run move together, and
so does the time of a fixed block of Python.  ``HostSpeed`` runs such a
block (``reference``: ``Fraction`` and ``dict`` arithmetic, with the garbage
collector off, so a heap left by the code under test does not change its
cost) between the ops of the timed loop, about every ``every_s`` seconds.
The median block time over the run, divided by ``NOMINAL_S``, is the run's
slowdown.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.003  # the reference block's median time on the 2-vCPU host of README.md (fixed)


def reference() -> int:
    x = Fraction(1, 3)
    acc: dict[int, int] = {}
    for i in range(1, 330):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        acc[i % 17] = acc.get(i % 17, 0) + x.numerator % 1009
    return sum(acc.values())


class HostSpeed:
    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples: list[float] = []
        self.spent_s = 0.0  # loop time taken by the blocks themselves
        self._next = 0.0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent_s += t1 - t0
        self._next = t1 + self.every_s

    def tick(self) -> None:
        """Sample if ``every_s`` has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def as_dict(self) -> dict:
        return {"samples": len(self.samples), "spent_s": self.spent_s,
                "median_s": statistics.median(self.samples) if self.samples else 0.0}
