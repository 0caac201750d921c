"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few virtual cores of a shared host. There the
speed of the same pure-Python work drifts by up to 1.6x for stretches of
seconds to minutes, while the speed ratio of two pieces of work timed
back to back stays within a few percent. So every timed call is bracketed
by a fixed loop that touches no comptest code: the call's time is divided
by the mean of the loop's time just before and just after it and
multiplied by ``REFERENCE_S``. The result is the call's time in seconds at
the speed at which the loop takes ``REFERENCE_S``. A change to comptest
moves it in proportion to the raw time; a change in host speed does not.
"""

from __future__ import annotations

import time
from decimal import Decimal

#: The scale of every normalised time: about the loop's time on a calm
#: 2-vCPU Intel Xeon virtual machine, so values stay close to real seconds.
REFERENCE_S = 0.005


def loop() -> int:
    """Fixed interpreter work of the kinds comptest does: strings, dicts,
    lists, tuples, ``Decimal`` arithmetic, sorting and joining."""
    table = {}
    total = Decimal(0)
    for i in range(3000):
        key = f"k{i};{i * 7 % 13}"
        table[key] = (Decimal(i) / 7, key.split(";"), [i, key])
        total += table[key][0]
    ranked = sorted(table, key=lambda k: -table[k][0])
    return len(",".join(ranked[:300]) + str(total))


def sample() -> float:
    """Seconds of the fastest of three loops."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """Turns raw seconds into seconds at the reference speed.

    Sample before the timed call (the constructor takes the first sample,
    each ``scale`` takes the next one) and call ``scale`` right after it.
    """

    def __init__(self, warmup: int = 5):
        for _ in range(warmup):
            sample()
        self.last = sample()

    def scale(self, seconds: float) -> float:
        before, self.last = self.last, sample()
        return seconds * REFERENCE_S / ((before + self.last) / 2)
