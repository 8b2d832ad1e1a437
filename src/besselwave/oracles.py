"""Independent reference evaluations for cross-checking the package.

These deliberately avoid the code paths they check: Bessel J is summed from
its own ascending series instead of the series-coefficient recurrence in
besselfn, the low-n profiles come from elementary closed forms, and the
bounded derivative on the circle is checked against d'Alembert's shift
formula instead of the spectral calculus.  Used by the verification suites
and by the test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = ["bessel_j_exact", "bessel_j_ascending", "phi_closed_form", "dalembert_shift_coefficients"]

ASCENDING_TERMS = 80


def bessel_j_exact(order: int, r: float) -> float:
    """J_order(r) for integer order, by the exact-rational ascending series.

    sum_m (-1)^m (r/2)^(2m+order) / (m! (m+order)!), summed with Fraction
    arithmetic so no cancellation occurs; accurate for |r| up to ~60.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    half = Fraction(r) / 2
    h2 = half * half
    term = half**order / math.factorial(order)
    total = term
    for m in range(1, 300):
        term = -term * h2 / (m * (m + order))
        total += term
        if float(abs(term)) < 1e-22 * max(float(abs(total)), 1e-25):
            break
    return float(total)


def bessel_j_ascending(two_nu: int, r: float) -> float:
    """J_nu(r) with nu = two_nu/2, plain-float ascending series.

    Fine to ~1e-12 for r <= 12; used by the hypergeometric consistency
    check on (0, 10].  Gamma factors come from math.gamma.
    """
    nu = 0.5 * two_nu
    half = 0.5 * r
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    h2 = half * half
    for m in range(1, ASCENDING_TERMS):
        term *= -h2 / (m * (m + nu))
        total += term
        if abs(term) < 1e-20 * max(abs(total), 1e-20):
            break
    return total


def phi_closed_form(n: int, r: float) -> float:
    """Closed-form profile values for n in 1..5.

    phi_1 = cos, phi_2 = J0, phi_3 = sinc, phi_4 = 2 J1(r)/r,
    phi_5 = 3 (sin r - r cos r) / r^3.
    """
    if r == 0.0:
        return 1.0
    if n == 1:
        return math.cos(r)
    if n == 2:
        return bessel_j_exact(0, r)
    if n == 3:
        return math.sin(r) / r
    if n == 4:
        return 2.0 * bessel_j_exact(1, r) / r
    if n == 5:
        return 3.0 * (math.sin(r) - r * math.cos(r)) / r**3
    raise ValueError(f"no closed form registered for n={n}")


def dalembert_shift_coefficients(circle, raw: np.ndarray, t: float) -> np.ndarray:
    """[f(x+t) - f(x-t)]/2 expanded in the circle trig basis.

    raw holds the 0-form coefficients of f; the result is in the degree-1
    basis.  Both bases are the constant, then cos and sin of each mode k of
    the circle's trig stack.  cos mode k contributes -sin(2 pi k t) to the
    sin mode, sin mode k contributes +sin(2 pi k t) to the cos mode.
    """
    s = np.array([math.sin(2.0 * math.pi * k * t) for k in circle.stacks[-1].modes[:, 0].tolist()])
    out = np.zeros_like(raw)
    out[2::2] += -raw[1::2] * s
    out[1::2] += raw[2::2] * s
    return out
