"""Machine-speed reference, so that timings compare across machine states.

On a shared virtual machine the speed of one CPU-bound thread can change by
1.5x or more within seconds, because of work outside this process: the
process's CPU time slows as much as its wall time.  A run falls into
whichever states the machine happens to be in, so raw item times of two runs
of the same code can differ by more than any useful regression bound.

The benchmark therefore times a fixed pure-Python reference loop, which uses
no library code, every ``INTERVAL_S`` seconds between items, and scales each
item's wall time by ``REFERENCE_S / r``: ``r`` is the mean of the reference
samples taken just before and just after the item.  The result is the time
the item would take on a machine on which the reference loop takes exactly
``REFERENCE_S`` seconds.  A change in the library moves it in full; a change
in the machine's state moves the reference and the item alike and cancels.
Raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the reference loop's median time on the baseline machine (a 2-vCPU
# Intel Xeon VM at 2.1 GHz, Python 3.11.7), where single samples ranged from
# 0.49 to 1.05 ms.  It only sets the scale.
REFERENCE_S = 0.75e-3
INTERVAL_S = 0.1


def _reference_loop():
    # Integer arithmetic, tuple building, list indexing and dict stores: the
    # interpreter work that the library's exact arithmetic is made of.
    acc = 0
    row = list(range(64))
    seen = {}
    for k in range(3000):
        t = (k, k * k, k ^ 0x5555)
        acc += t[1] % 7 + row[k & 63]
        seen[k & 31] = t
    return acc


def reference_time():
    """Median of three timings of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Speedometer:
    """Reference samples taken between pieces of timed work."""

    def __init__(self):
        self.samples = [reference_time()]
        self._last = perf_counter()

    def mark(self):
        """Sample now if ``INTERVAL_S`` has passed since the last sample.

        Returns the index of the latest sample, taken before the work that
        follows; ``scale`` pairs it with the next one."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        return len(self.samples) - 1

    def sample(self):
        self.samples.append(reference_time())
        self._last = perf_counter()
        return len(self.samples) - 1

    def scale(self, seconds, before):
        """``seconds`` of work done after sample ``before`` and before the
        next sample, in reference seconds."""
        r = (self.samples[before] + self.samples[before + 1]) / 2
        return seconds * REFERENCE_S / r
