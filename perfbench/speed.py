"""The machine's speed, measured next to each op.

On the shared 2-vCPU KVM guest the benchmark was built on, the same CPU
work took up to 1.8x longer from one few-second spell to the next, and
the typical speed drifted by up to 2x over an hour, with the load of the
host's other guests.  No run is long enough to wait that out: the fastest
or median repeat of an op within a 40-second run still spread 8-30% from
run to run.  So the benchmark times a fixed calibration loop, which does
not touch hetnoma, right before and right after every op, and reports
the op's time divided by the calibration's slowdown against a reference
speed.  Medians of that ratio over 20-second windows spread 2-5% where
those of the measured times spread 8-22%.  A change to hetnoma's own
speed moves the reported time by the same factor, since the loop does
not depend on hetnoma.

The loop mixes the kinds of work hetnoma does: interpreted Python,
numpy calls on small arrays (the quadrature and the per-cell path) and
numpy sorts of a 1.6 MB array (association on many users).
"""

from __future__ import annotations

import time

import numpy as np

_LARGE = np.random.default_rng(0).random(200_000)


def _interpreter():
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def _small_arrays():
    a = np.arange(64.0)
    for _ in range(1500):
        a = np.sqrt(a * a + 1.0) - 1.0
    return a


def _large_array():
    for _ in range(3):
        np.sort(_LARGE * 1.0001)


# Each part with its time in seconds at the reference speed: the fast
# state of the machine above (the 10th percentile of 300 timings).
REFERENCE = ((_interpreter, 8.0e-3), (_small_arrays, 5.5e-3), (_large_array, 11.3e-3))


def slowdown():
    """Time of the calibration loop now over its time at the reference speed."""
    ratio = 0.0
    for part, reference_s in REFERENCE:
        start = time.perf_counter()
        part()
        ratio += (time.perf_counter() - start) / reference_s
    return ratio / len(REFERENCE)
