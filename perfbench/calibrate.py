"""Machine-speed calibration for the reported times.

On the 2-core virtual machine where this benchmark was written, the speed
of all work drifted together by up to 30% within a minute and by 2x
between minutes (other tenants of the host): the coupled sweep at degree
1 (Python-bound) and at degree 3 (numpy-bound) and this module's loop
slowed and sped up in step.  In four osc-kernel runs timed both ways, the
quartile spread of kernels_per_s over the runs was 36% in seconds and 10%
in reference seconds.

A reported time is in reference seconds: the measured time multiplied by
REFERENCE_S over the loop's time measured around it.  The loop uses no
code of the package, so a change to the package moves reference seconds
as it moves seconds.
"""

import time

import numpy as np

# The loop's time on that machine in a quiet phase; it sets the unit only.
REFERENCE_S = 0.025
_MATRIX = np.linspace(-1.0, 1.0, 1600).reshape(40, 40) / 40.0


def _loop() -> float:
    v = np.ones(40)
    total = 0.0
    for i in range(8000):
        v = _MATRIX @ v + 1.0
        total += float(v[i % 40]) * 0.5
    return total


def loop_seconds() -> float:
    """Best of three timings of a fixed loop of small matrix-vector
    products and Python float arithmetic, the mix of the package's sweeps."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best
