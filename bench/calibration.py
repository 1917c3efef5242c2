"""The calibration kernel that normalises the benchmark's times.

The reference host is shared, and its speed drifts by 10-40 % over
seconds.  A time is therefore reported as ``measured * K_REF / kernel``:
the time on a host where this kernel takes ``K_REF``.
"""

import cmath
import time

# nominal kernel time (s); near its time on an idle 2-core x86_64 host, so
# that normalised times read like wall times there
K_REF = 8e-5


def kernel_seconds() -> float:
    """Time one run of fixed pure-Python work: complex arithmetic and calls,
    like qwim's hot loops."""
    t0 = time.perf_counter()
    z, w, acc = 0.3 + 0.1j, 0.99 + 0.01j, 0.0
    for _ in range(300):
        z = cmath.tanh(z * w + 0.1)
        acc += abs(z)
    return time.perf_counter() - t0
