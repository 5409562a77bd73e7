"""Fixed reference work: how fast this machine runs at the moment.

On a shared host the speed of a core drifts by up to 1.8x for minutes at a
time, user and system time alike, so the medians of two runs of the same
code can differ by more than a regression worth catching. run.py starts this
script in a fresh interpreter before the first unit and after every unit,
for a fifth of the unit's time (a short reference would see one speed state
where a long unit averages many), and scales a unit's times by REFERENCE_S /
the mean block time of the runs just before and after it: the times it
reports are seconds at the speed this machine has when it is idle. The work
is the benchmark's own and shaped like the program's: Poisson pmf sums over
fresh arrays of up to 26k elements (so it faults in pages as the Szasz sums
do), a Python binary search and a Python loop. A change to the program moves
the units, never this.

Usage: python reference.py SECONDS  (runs whole blocks for at least SECONDS
and prints {"block_s": mean seconds per block} as one JSON line)
"""

import json
import math
import sys
import time

import numpy as np

BLOCK = 100  # rounds; one block is about 40 ms
# About the fastest time of one block on a 2-core Xeon (Sapphire Rapids, KVM
# guest), Python 3.11, numpy 2.4. Fixed: it only sets the scale.
REFERENCE_S = 0.04


def reference_work(seconds: float) -> float:
    """Mean seconds per block over whole blocks run for at least `seconds`.

    Raises if the rounds compute a wrong sum.
    """
    t0 = time.perf_counter()
    acc = 0.0
    i = 0
    while i % BLOCK or i == 0 or time.perf_counter() - t0 < seconds:
        mu = 500.0 + 25000.0 * (i % 16) / 16.0
        k = np.arange(int(mu + 10.0 * math.sqrt(mu) + 10.0))
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
        pmf = np.exp(k * math.log(mu) - mu - log_fact)
        acc += float(np.sum(pmf * np.exp(-k / 4096.0)))
        lo, hi = 0, 1 << 20
        while lo < hi:
            mid = (lo + hi) // 2
            if mid * math.log1p(mid / mu) >= mu:
                hi = mid
            else:
                lo = mid + 1
        acc += lo
        for j in range(400):
            acc += math.sqrt(j + i)
        i += 1
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc) or acc <= 0.0:
        raise ValueError(f"reference rounds computed {acc!r}")
    return elapsed / (i // BLOCK)


if __name__ == "__main__":
    print(json.dumps({"block_s": reference_work(float(sys.argv[1]))}))
