"""The machine's speed, read from fixed loops, and times scaled by it.

Shared virtual machines change speed as other tenants come and go.  Here a
pure Python loop ran either at about 2.9 ms or at about 4.4 ms, in regimes
that last from a second to minutes, and a numpy pass over 32 MB slowed as
well, though not in step with it.  Whole runs of the benchmark fell into
one regime or another, so medians of clock times moved by 20% to 30% from
run to run with the code unchanged.

The measured process therefore takes *readings*: it times loops of the
benchmark's own, which no change to pibounds can touch, before every pass,
between operations every ``EVERY_S`` seconds, and after every pass.  A
reading is the machine's slowness: the weighted sum, over the loops a
workload names, of each loop's time over its time in ``REFERENCE_S``.  A
stretch of time between two readings counts divided by their mean, so every
time the benchmark reports reads as seconds on a machine where each loop
takes its ``REFERENCE_S``, about this machine's speed when the host is
quiet.  The time spent in the readings counts nowhere.

Each workload weighs the loops like its own work: the CLI mix runs in the
interpreter and reads the Python loop alone; verify_full spends its time in
numpy kernels over arrays of megabytes and reads both loops.  With those
weights, in two sets of ten runs of each, every timing but the set-up's
spread by at most 0.074 of its median (the warm pass by 0.018 to 0.033),
against up to 0.28 for the warm pass on the clock.
"""

from __future__ import annotations

import bisect
import statistics
import time

CLOCK = time.perf_counter

#: each loop's time at reference speed, in seconds
REFERENCE_S = {"python": 0.003, "numpy": 0.003}
#: the repeats whose fastest is one loop's time in a reading
REPS = 3
#: take a reading between operations once this much time has passed
EVERY_S = 0.1

_LOOP = 40_000
_ARRAYS: list = []


def _python() -> None:
    total = 0
    for i in range(_LOOP):
        total += i * i % 7


def _numpy() -> None:
    # numpy is imported on first use, so that timing `import pibounds`
    # after a Python-only reading finds it not yet loaded
    import numpy as np

    if not _ARRAYS:
        _ARRAYS.append(np.arange(2_000_000, dtype=np.float64))
        _ARRAYS.append(np.empty_like(_ARRAYS[0]))
    np.multiply(_ARRAYS[0], 1.5, out=_ARRAYS[1])


LOOPS = {"python": _python, "numpy": _numpy}


def reading(weights: dict[str, float]) -> float:
    """The machine's slowness: 1.0 at reference speed, 1.5 when the loops take half as long again."""
    total = 0.0
    for name, weight in weights.items():
        best = float("inf")
        for _ in range(REPS):
            start = CLOCK()
            LOOPS[name]()
            best = min(best, CLOCK() - start)
        total += weight * best / REFERENCE_S[name]
    return total


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` of the clock, timed between readings `before` and `after`."""
    return seconds * 2 / (before + after)


class SpeedLog:
    """Readings along one process's timeline.

    ``weights`` names the loops of a reading and their weights, summing to
    1.  ``every`` is the least time between the readings that
    ``maybe_sample`` takes; the traced run passes ``float("inf")`` so that
    no reading falls inside a traced span.
    """

    def __init__(self, weights: dict[str, float], every: float = EVERY_S):
        self.weights = weights
        self.every = every
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        start = CLOCK()
        value = reading(self.weights)
        self.starts.append(start)
        self.ends.append(CLOCK())
        self.values.append(value)

    def maybe_sample(self) -> None:
        if CLOCK() - self.ends[-1] >= self.every:
            self.sample()

    def scaled(self, a: float, b: float, *, at_reference: bool = True) -> float:
        """Seconds of [a, b] at reference speed, leaving out the readings in it.

        Every stretch between two readings counts divided by their mean, or
        as it is with ``at_reference=False``.  [a, b] must lie after a
        reading's end and before another's start.
        """
        k = bisect.bisect_right(self.ends, a) - 1
        if k < 0 or self.starts[-1] < b:
            raise ValueError("the interval is not between two readings")
        total = 0.0
        for j in range(k, len(self.starts) - 1):
            lo, hi = max(a, self.ends[j]), min(b, self.starts[j + 1])
            if hi > lo:
                seconds = hi - lo
                total += scale(seconds, self.values[j], self.values[j + 1]) if at_reference else seconds
            if self.starts[j + 1] >= b:
                break
        return total

    def summary(self) -> dict:
        return dict(weights=self.weights, readings=len(self.values),
                    median=statistics.median(self.values),
                    min=min(self.values), max=max(self.values))
