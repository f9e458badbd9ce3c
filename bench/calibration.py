"""Machine-speed calibration for the end-to-end times.

The machines this benchmark runs on are shared, and their speed drifts by
20-50% over minutes.  A worker therefore times a fixed calibration kernel
between operations and reports its times rescaled to the kernel's
reference time: `reference_s = raw_s * KERNEL_REF_S / median(kernel times)`.
The kernel uses no framelab code, so a change to framelab cannot move it;
the raw seconds are kept in the results file next to the rescaled ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm, schur

#: median kernel time on a 2-core x86-64 VM (Python 3.11, numpy 2.4) in a
#: quiet period; it only sets the scale of the reported seconds
KERNEL_REF_S = 0.033


_SKEW = np.array([[0.0, -0.3, 0.1, 0.2], [0.3, 0.0, -0.2, 0.1],
                  [-0.1, 0.2, 0.0, -0.4], [-0.2, -0.1, 0.4, 0.0]])


def kernel_s():
    """Seconds for a fixed mix of the kinds of work in framelab's hot paths:
    pure-Python arithmetic, small-matrix numpy and scipy.linalg calls, and
    an adaptive RK45 integration."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += math.sin(i * 1e-3) * (i % 7)
    a = np.eye(4) + 0.01 * np.arange(16.0).reshape(4, 4)
    for _ in range(500):
        a = np.linalg.solve(a + np.eye(4), a.T) + np.eye(4)
        acc += float(np.einsum("ij,ji->", a, a))
    for k in range(180):
        t, z = schur(expm(_SKEW * (1.0 + 0.01 * k)), output="real")
        acc += float(t[0, 0]) + float(np.einsum("ij,ij->", z, z))
    for _ in range(3):
        sol = solve_ivp(lambda _t, y: _SKEW @ y, (0.0, 3.0), np.ones(4),
                        rtol=1e-10, atol=1e-10)
        acc += float(sol.y[0, -1])
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


def slowdown(samples):
    """Machine slowdown against the reference, from kernel time samples."""
    return statistics.median(samples) / KERNEL_REF_S
