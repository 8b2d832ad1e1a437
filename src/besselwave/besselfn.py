"""Bessel profile family phi_n, psi_n and their exact series coefficients.

phi_n is the even entire solution of

    f''(r) + (n - 1) f'(r) / r + f(r) = 0,    f(0) = 1, f'(0) = 0,

with Taylor expansion phi_n(r) = sum_k b_k r^(2k) where the coefficients are
the exact rationals b_k = 1 / prod_{j=1..k} (-2j)(n - 2 + 2j).  Closed forms
for small n: phi_1 = cos, phi_2 = J0, phi_3 = sinc, phi_4 = 2 J1(r)/r.
The rescaled profile psi_n(r) = r phi_n(r) stays bounded on [0, inf).

Evaluation strategy: the scalar `phi` is exact.  For |r| <= 40 the alternating
series is summed in exact integer arithmetic: integer numerators over one
running denominator, its power of two carried as a shift, rounded once by the
final int / int division, which Python rounds correctly.  That removes the
catastrophic cancellation a float sum suffers for moderate r.  One sum per
(n, |r|), kept in a one-entry memo, serves phi, psi, phi' and the residual.
For |r| > 40, phi_n comes from the upward recurrence phi_{m+4} = m(m+2)/r^2
(phi_{m+2} - phi_m), which is the recurrence of J_nu, nu = n/2 - 1, scaled by
Gamma(n/2) (r/2)^(-nu), from cos r and sin r / r (odd n) or from J_0 and J_1
(even n), each the first 14 terms of its Hankel expansion; where nu >= r it
comes from the exact series instead.

`phi_array` is the float path the functional calculus uses: within 3e-15 of
the size of |phi_n| for n = 1..14 on [0, 150], and within 3e-14 for n up to
401.  At x = 0 it is exactly 1.  Where nu < x (and x > 40 for even n) it runs
the upward recurrence elementwise, the code `phi` runs past max(40, nu), so
the two agree bit for bit there.  At every other x > 0 it runs Miller's
backward recurrence in the order, which is stable for all x > 0 (Gautschi,
SIAM Review 9 (1967) 24-82; DLMF 3.6(vi), 10.12, 10.60), on phi itself,
normalized by cos x and sin x / x for odd n and by J_0 + 2 sum J_2k = 1 for
even n; the exact `phi` is its oracle.  Each element starts the recurrence at
its own order and waits until then at the fixed point (1, 1, 1) of its steps,
so every value of `phi_array` depends on its own argument alone, bit for bit.
Its (orders x points) table, about J + 20 + sqrt(12 J) rows for the largest J = max(x, nu), is charged
against the one byte budget (`domains._require_bytes`) before it is allocated, so a huge n is a DomainSizeError.

All functions are pure.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .domains import _require_bytes

__all__ = [
    "BesselDomainError",
    "series_coefficient",
    "phi",
    "phi_array",
    "psi",
    "phi_derivative",
    "ode_residual",
]

SERIES_CUTOFF = 40.0
RELATIVE_TARGET_BITS = 50  # 2**-50 ~ 8.9e-16, the 1e-15 stopping target
MAX_TERMS = 400


class BesselDomainError(ValueError):
    """Raised for arguments outside the profile family's domain."""


def _check_n(n) -> int:
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise BesselDomainError(f"dimension parameter must be an integer, got {n!r}")
    if n < 1:
        raise BesselDomainError(f"dimension parameter must be >= 1, got {n}")
    return n


def _check_r(r) -> float:
    r = float(r)
    if not math.isfinite(r):
        raise BesselDomainError(f"argument must be finite, got {r!r}")
    return r


def series_coefficient(n: int, k: int) -> Fraction:
    """Exact Taylor coefficient b_k of phi_n, with b_0 = 1.

    b_k = 1 / prod_{j=1..k} (-2j)(n - 2 + 2j).  The product has no zero
    factor for n >= 1, so the value is always defined.
    """
    n = _check_n(n)
    if k < 0:
        raise BesselDomainError(f"coefficient index must be >= 0, got {k}")
    return Fraction(1, math.prod((-2 * j) * (n - 2 + 2 * j) for j in range(1, k + 1)))


@functools.lru_cache(maxsize=1)
def _series_sums(n: int, x: float) -> tuple[int, int, int, int]:
    """Integer numerators of phi, x phi' and x^2 phi'' at x = |r| > 0, and their common denominator.

    Sums sum b_k x^2k, sum 2k b_k x^2k, sum 2k(2k-1) b_k x^2k over one running
    denominator, its power of two 2^(e2 k), x^2 = a / 2^e2, carried as a shift.
    One sum, memoized for one (n, x), serves phi, psi, phi' and the residual.
    Truncation: the next term must be below 2^-50 of each partial sum it feeds,
    so all three sums meet the relative target simultaneously.
    """
    p, q = x.as_integer_ratio()
    a, e2 = p * p, 2 * (q.bit_length() - 1)  # q is a power of two
    t_num, den, s0, s1, s2 = 1, 1, 1, 0, 0  # the term, the denominator without its 2^(e2 k), the three sums
    for k in range(1, MAX_TERMS + 1):
        c, t_num = (2 * k) * (n - 2 + 2 * k), t_num * (-a)
        u = 2 * k * t_num
        s0 = (s0 * c << e2) + t_num
        s1 = (s1 * c << e2) + u
        s2 = (s2 * c << e2) + (2 * k - 1) * u
        den *= c
        if abs(t_num) << RELATIVE_TARGET_BITS <= abs(s0):
            if (abs(t_num) * (2 * k + 2) * (2 * k + 1)) << RELATIVE_TARGET_BITS <= max(abs(s2), 1):
                break
    else:
        raise BesselDomainError(f"series for phi_{n}({x}) did not converge in {MAX_TERMS} terms")
    return s0, s1, s2, den << (e2 * k)


def _bessel_j_hankel(nu: float, r):
    """J_nu(r) for nu in {0, 1} and r > 40, elementwise: the first 14 terms of the Hankel expansion, DLMF 10.17(i)."""
    mu = 4.0 * nu * nu
    p_sum, q_sum = 1.0, 0.0
    term = 1.0
    for k in range(1, 15):  # at r = 40 the 15th term is below 1e-18 of the first, and every term shrinks as r grows
        term *= (mu - (2 * k - 1) ** 2) / (k * 8.0 * r)
        if k % 2 == 0:
            p_sum += term * (-1) ** (k // 2)
        else:
            q_sum += term * (-1) ** ((k - 1) // 2)
    chi = r - (0.5 * nu + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * r)) * (p_sum * np.cos(chi) - q_sum * np.sin(chi))


def _phi_large(n: int, r):
    """phi_n(r) for nu < r (odd n) or max(40, nu) < r (even n), at a float or elementwise on an array r.

    phi_{m+4} = m(m+2)/r^2 (phi_{m+2} - phi_m) up from phi_1 = cos r, phi_3 = sin r / r (odd n) or the
    Hankel phi_2 = J_0, phi_4 = 2 J_1 / r (even n).  This is the J_nu recurrence scaled by
    Gamma(n/2) (r/2)^(-nu), so it is stable only while nu < r; phi sums the series at nu >= r.
    """
    if n % 2:
        start, low = 1, np.cos(r)
        high = np.sin(r) / r if n > start else None
    else:
        start, low = 2, _bessel_j_hankel(0.0, r)
        high = 2.0 / r * _bessel_j_hankel(1.0, r) if n > start else None
    if isinstance(r, float) and n > start:  # phi's scalar r: the recurrence runs on Python floats, not numpy scalars
        low, high = float(low), float(high)
    for m in range(start, n - 2, 2):
        low, high = high, (m * (m + 2) / (r * r)) * (high - low)
    return high if n > start else low


def _miller_array(n: int, x: np.ndarray) -> np.ndarray:
    """phi_n(x) for 0 < x <= nu (odd n) or 0 < x <= max(40, nu) (even n) by Miller's backward
    recurrence in the order, run on phi itself.

    phi_{m-2} = phi_m - x^2 / ((m - 2) m) phi_{m+2}, the recurrence of J_{m/2-1} scaled by
    Gamma(m/2) (x/2)^(1 - m/2), runs down the orders of n's parity, in one loop from the largest start.  Each
    element has its own start s = 2 floor(J + 20 + sqrt(12 J)) + 2 + n mod 2, J = max(x, nu), a Bessel order 6 to
    10 above the lowest whose result is within 1e-15 of |phi_n|, for J up to 40.  Its coefficients
    x^2 / ((o - 2) o) at orders o above s are zero, so it waits at (phi_m, phi_{m+2}, Horner's sum) = (1, 1, 1),
    a fixed point of the steps, which is the start phi_{s+2} = 1, phi_{s+4} = 0: a value depends on its own
    argument alone.  The values are one multiple of phi, so they stay near |phi| <= 1 and need no rescaling
    and no Gamma factor.  For odd n the multiple is fitted to phi_1 = cos x and phi_3 = sin x / x.  For even n
    it is J_0 + 2 sum_k J_2k = 1 with J_2k = a_k phi_{4k+2}, a_k = (x/2)^(2k) / (2k)!, summed by Horner's rule:
    a_{k+1} / a_k = x^2 / (m (m + 2)) at m = 4k + 2.
    """
    big = np.maximum(x, 0.5 * n - 1.0)
    reach = big + 20.0 + np.sqrt(12.0 * big)
    high, low = int(reach.max()), int(reach.min())
    orders = np.arange(2 * high + 2 + n % 2, 2 - n % 2, -2)  # the largest start down to the lowest order + 2
    _require_bytes(f"the Miller table of phi_{n} on {x.size} points", 8 * orders.size * x.size)
    coef = np.outer(1.0 / ((orders - 2) * orders), x * x)  # row o serves the step at o and Horner's at o - 2
    coef[: high - low] *= np.arange(high, low, -1)[:, None] <= reach  # o <= s, the rows above the lowest start
    here, above, horner = np.ones_like(x), np.ones_like(x), np.ones_like(x)  # phi_m, phi_{m+2}, up to one multiple
    for o, c in zip(orders.tolist(), coef):
        here, above = here - c * above, here  # phi_{o-2}
        if o - 2 == n:
            kept = here
        if o % 4 == 0:
            horner = here + c * horner
    if n % 2:
        cos, sinc = np.cos(x), np.sin(x) / x
        return kept * (cos * cos + sinc * sinc) / (here * cos + above * sinc)
    return kept / (2.0 * horner - here)


def phi(n: int, r: float) -> float:
    """Evaluate the Bessel profile phi_n at a real argument.

    Even in r; phi_n(0) = 1.  Agrees with the closed forms (cos, J0, sinc,
    2 J1(r)/r, ...) to full double precision on the series range.
    """
    n = _check_n(n)
    r = _check_r(r)
    x = abs(r)
    if x == 0.0:
        return 1.0
    if x <= max(SERIES_CUTOFF, 0.5 * n - 1.0):
        s0, _, _, den = _series_sums(n, x)
        return s0 / den
    return float(_phi_large(n, x))


def phi_array(n: int, x) -> np.ndarray:
    """phi_n at every entry of an array, in floats, as an array of the shape of x.

    Even to the bit and exactly 1 at 0; see the module docstring for the method and its accuracy
    against the exact scalar `phi`.
    """
    n = _check_n(n)
    raw = np.asarray(x, dtype=float)
    shape, x = raw.shape, np.abs(raw).ravel()
    if not x.max(initial=0.0) < math.inf:  # nan compares false
        raise BesselDomainError(f"argument must be finite, got {float(raw[~np.isfinite(raw)][0])!r}")
    # region 0: x = 0, where phi_n = 1; 1: Miller up to high; 2: the recurrences of _phi_large above high
    high = max(0.0, 0.5 * n - 1.0) if n % 2 else max(SERIES_CUTOFF, 0.5 * n - 1.0)
    region = np.searchsorted((0.0, high), x)
    out = np.ones_like(x)
    for label, method in ((1, _miller_array), (2, _phi_large)):
        where = region == label
        if where.any():
            out[where] = method(n, x[where])
    return out.reshape(shape)


def psi(n: int, r: float) -> float:
    """The rescaled profile psi_n(r) = r phi_n(r); odd, psi_n(0) = 0."""
    r = _check_r(r)
    return r * phi(n, r)


def phi_derivative(n: int, r: float) -> float:
    """Derivative of phi_n, the termwise series sum 2k b_k r^(2k-1).

    Vanishes at r = 0.  Beyond the series range the classical recursion
    phi_n'(r) = -(r/n) phi_{n+2}(r) is used instead.
    """
    n = _check_n(n)
    r = _check_r(r)
    if r == 0.0:
        return 0.0
    if abs(r) <= SERIES_CUTOFF:
        _, s1, _, den = _series_sums(n, abs(r))
        p, q = r.as_integer_ratio()  # the signed p makes phi' odd
        return (s1 * q) / (den * p)
    return -(r / n) * phi(n + 2, abs(r))


def ode_residual(n: int, r: float) -> float:
    """Defect phi'' + (n-1) phi'/r + phi of the series evaluation at r > 0.

    The coefficient (n-1)/r is singular at 0, so r = 0 is rejected.  Past
    SERIES_CUTOFF, phi' and phi'' come from phi_{n+2} and phi_{n+4} by the
    recurrence that gives phi_n, so the defect there is an identity of that
    recurrence; the verify row large_r_against_exact_series checks the values.
    Where phi_{n+4}(r) is below the normal float range or r^2 overflows,
    that identity has lost its digits, and BesselDomainError is raised.
    """
    n = _check_n(n)
    r = _check_r(r)
    if r <= 0.0:
        raise BesselDomainError(f"ode_residual needs r > 0, got {r}")
    if r <= SERIES_CUTOFF:
        # phi'' + (n-1) phi'/r + phi = (r^2 phi'' + (n-1) r phi' + r^2 phi) / r^2, r^2 = a/b
        s0, s1, s2, den = _series_sums(n, r)
        p, q = r.as_integer_ratio()
        a, b = p * p, q * q
        return ((s2 + (n - 1) * s1) * b + s0 * a) / (den * a)
    # Large-r branch: express phi' and phi'' through higher profiles.
    p0, high, higher = phi(n, r), phi(n + 2, r), phi(n + 4, r)
    if abs(higher) < 2.0**-1022 or math.isinf(r * r):  # 2^-1022 is the smallest normal double
        raise BesselDomainError(f"ode_residual at n={n}, r={r}: phi_{n + 4}(r) = {higher:.3e} is below "
                                "the normal doubles, or r^2 overflows")
    p1 = -(r / n) * high
    p2 = -high / n + (r * r) * higher / (n * (n + 2))
    return p2 + (n - 1) * p1 / r + p0
