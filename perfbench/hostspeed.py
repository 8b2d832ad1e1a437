"""How fast the host runs right now, from fixed reference kernels that do not call besselwave.

On a shared host the guest's speed drifts: a pure-Python loop that takes
0.6 ms in one minute takes 0.95 ms a few minutes later, and every timing of
the program moves with it.  The benchmark therefore times fixed kernels
between operations and reports each time scaled to a host on which the
kernels take their reference times:

    scaled = measured * geometric mean over kernels of (reference / median kernel time around it)

The drift is not the same for all kinds of work: it slows interpreter
dispatch far more than large BLAS calls.  So each workload is gauged by
kernels of the kinds of work it does (workloads.GAUGES): the dense
workload by a 320x320 eigensolve and matrix products, the others by one
kernel each of bytecode with small Fractions, long-integer Fractions, short
numpy arrays and a small eigensolve.  On rounds recorded across such
drifts, these gauges cut the quartile spread of single round times from
11-19% to 3-10%, better than any one kernel did on all workloads.  The
kernels never touch besselwave, so a change to the program moves the scaled
times and a change of host speed does not.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

_LARGE = np.random.default_rng(20240611).standard_normal((320, 320))
_LARGE = _LARGE + _LARGE.T
_SMALL_DENSE = _LARGE[:160, :160].copy()
_SMALL = np.linspace(0.1, 1.0, 64)


def interpreter_kernel() -> float:
    """Python bytecode, int, float and small-Fraction arithmetic, dicts."""
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    x = 0.0
    for i in range(400):
        x += math.sin(i * 0.1) * math.exp(-i * 1e-3)
    f = Fraction(1, 3)
    terms: dict = {}
    for i in range(40):
        f = f * Fraction(i + 2, i + 1) - Fraction(1, i + 3)
        terms[(i % 5, i % 3)] = terms.get((i % 5, i % 3), 0) + f
    v = _SMALL
    for _ in range(20):
        v = np.sin(v) * 0.5 + v * 0.5
    return acc + x + float(v[0]) + len(terms)


def bigint_kernel() -> float:
    """An alternating power series summed in exact Fractions, whose terms grow to long integers."""
    x = Fraction(3141592653589793, 100000000000000)  # r ~ 31.4, a float's worth of digits
    w = x * x / 4
    term = Fraction(1)
    total = term
    for k in range(1, 36):
        term = -term * w / (k * k)
        total += term
    return float(total)


def array_kernel() -> float:
    """Short numpy arrays pushed through many ufunc calls, as an RK stepper on 64 angles does."""
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    state = np.stack([np.cos(theta), np.sin(theta), -np.sin(theta), np.cos(theta)])
    h = 0.01
    for _ in range(12):
        k1 = np.stack([state[2], state[3], -state[0] * state[3] ** 2, np.sin(state[1]) * state[2]])
        k2 = np.stack([state[2] + h * k1[2], state[3] + h * k1[3], -state[0], np.cos(state[1])])
        state = state + (h / 2.0) * (k1 + k2)
    return float(state[0, 0])


def eigh_small_kernel() -> float:
    """A 160x160 symmetric eigendecomposition: LAPACK with much call overhead."""
    return float(np.linalg.eigh(_SMALL_DENSE)[0][0])


def eigh_large_kernel() -> float:
    """A 320x320 symmetric eigendecomposition, the LAPACK work of a domain build."""
    return float(np.linalg.eigh(_LARGE)[0][0])


def matmul_large_kernel() -> float:
    """Two 320x320 matrix products, the BLAS work of a dense spectral function."""
    return float(((_LARGE @ _LARGE) @ _LARGE)[0, 0])


KERNELS = {"interpreter": interpreter_kernel, "bigint": bigint_kernel, "array": array_kernel,
           "eigh_small": eigh_small_kernel, "eigh_large": eigh_large_kernel, "matmul_large": matmul_large_kernel}
# Kernel times on the reference host (2-vCPU Xeon guest, Python 3.11, numpy
# 2.4 on one OpenBLAS thread) in a fast phase; scaled times are seconds on a
# host running at that speed.
REFERENCE_S = {"interpreter": 0.00060, "bigint": 0.00120, "array": 0.00040,
               "eigh_small": 0.0027, "eigh_large": 0.0115, "matmul_large": 0.0027}


class SpeedGauge:
    """Samples some reference kernels and turns measured seconds into scaled seconds."""

    def __init__(self, kernels):
        self.kernels = {name: KERNELS[name] for name in kernels}
        for kernel in self.kernels.values():
            kernel()  # the first call pays for imports and caches, not host speed
        self.samples: dict[str, list[float]] = {name: [] for name in self.kernels}
        self.history: dict[str, list[float]] = {name: [] for name in self.kernels}  # each kernel's factors

    def sample(self) -> None:
        """Time every kernel once now; the samples are kept until `factor` is asked for."""
        for name, kernel in self.kernels.items():
            t0 = perf_counter()
            kernel()
            self.samples[name].append(perf_counter() - t0)

    def factor(self) -> float:
        """Geometric mean of reference over median kernel time since the last call; forgets the samples."""
        log_sum = 0.0
        for name, times in self.samples.items():
            ratio = REFERENCE_S[name] / statistics.median(times)
            self.history[name].append(ratio)
            log_sum += math.log(ratio)
            times.clear()
        return math.exp(log_sum / len(self.kernels))
