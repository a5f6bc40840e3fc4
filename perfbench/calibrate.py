"""Machine-speed calibration for the verifier benchmark.

On a shared VM the whole machine can run 1.3-1.6x slower for minutes at a
time, longer than one run, so a run's timings are scaled to the speed of a
reference machine. The calibration loop is fixed benchmark code built from
the same operations as the verifier (Fraction arithmetic through dict
lookups), so no change to slicekernels moves it.
"""

import time
from fractions import Fraction

# calibration_s() on the baseline machine (x86_64, 2 usable cores,
# Python 3.11.7): the median over forty runs of the lower quartile in each.
REFERENCE_S = 4.8e-3


def calibration_s(rounds: int = 5) -> float:
    """Seconds of the fastest of `rounds` runs of the fixed calibration loop."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc: dict = {}
        for i in range(1, 2001):
            k = i % 97
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i, 7 + k)
        best = min(best, time.perf_counter() - start)
    return best
