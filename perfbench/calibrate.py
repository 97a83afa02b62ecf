"""Host-speed calibration.

The CPUs this benchmark was tuned on are shared, and their speed flips
between states from one few-second window to the next: a fixed
pure-Python loop took 12 to 20 ms per 5-second window, and raw per-run
medians of werner_certify ranged from 64 to 105 ms over ten runs.  So
each timing is taken between two timings of a fixed kernel, and reported
for a host on which that kernel takes its reference time:

    reported = measured * reference / (mean kernel time before and after)

Two kernels, because in-process work and process start-up did not speed
up and slow down together:

  kernel()        complex arithmetic in the interpreter plus small numpy
                  eigensolves, the two kinds of work cohdist does in
                  process; reference REFERENCE_S.
  spawn_kernel()  a fresh interpreter that imports numpy, like the start
                  of every CLI command and every set-up; reference
                  SPAWN_REFERENCE_S.

Neither kernel runs cohdist code.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 1e-3
SPAWN_REFERENCE_S = 0.15
_MATRIX = np.eye(4) + 0.1


def kernel(repeat: int = 3) -> float:
    """Median seconds of `repeat` runs of the fixed kernel."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        z = 0j
        for i in range(2000):
            z = z * 0.5 + complex(i, -i) * 1e-3
        for _ in range(10):
            np.linalg.eigvalsh(_MATRIX)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn_kernel() -> float:
    """Wall seconds to start a fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float, reference: float) -> float:
    """A time measured between two kernel timings, at reference host speed."""
    return seconds * 2.0 * reference / (before + after)
