"""Bessel profile family phi_n, psi_n and their exact series coefficients.

phi_n is the even entire solution of

    f''(r) + (n - 1) f'(r) / r + f(r) = 0,    f(0) = 1, f'(0) = 0,

with Taylor expansion phi_n(r) = sum_k b_k r^(2k) where the coefficients are
the exact rationals b_k = 1 / prod_{j=1..k} (-2j)(n - 2 + 2j).  Closed forms
for small n: phi_1 = cos, phi_2 = J0, phi_3 = sinc, phi_4 = 2 J1(r)/r.
The rescaled profile psi_n(r) = r phi_n(r) stays bounded on [0, inf).

Evaluation strategy: for |r| <= 40 the alternating series is summed in exact
integer arithmetic (single running denominator, no rounding until the final
float conversion), which removes the catastrophic cancellation a float sum
suffers for moderate r.  For |r| > 40, J_nu in the closed form phi_n(r) =
J_nu(r) Gamma(n/2) (r/2)^(-nu), nu = n/2 - 1, comes from an upward recurrence
in the order, or from the exact series where nu >= r (see _phi_large).

All functions are pure; coefficient caches are guarded by a lock and safe
for concurrent readers once warm.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "BesselDomainError",
    "series_coefficient",
    "phi",
    "psi",
    "phi_derivative",
    "ode_residual",
]

SERIES_CUTOFF = 40.0
RELATIVE_TARGET_BITS = 50  # 2**-50 ~ 8.9e-16, the 1e-15 stopping target
MAX_TERMS = 400


class BesselDomainError(ValueError):
    """Raised for arguments outside the profile family's domain."""


_coeff_cache: dict[tuple[int, int], Fraction] = {}
_cache_lock = threading.Lock()


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
    with _cache_lock:
        have = max((kk for (nn, kk) in _coeff_cache if nn == n), default=-1)
        if have < k:
            value = _coeff_cache.get((n, have), Fraction(1))
            for j in range(have + 1, k + 1):
                if j == 0:
                    value = Fraction(1)
                else:
                    value = value / ((-2 * j) * (n - 2 + 2 * j))
                _coeff_cache[(n, j)] = value
        return _coeff_cache[(n, k)]


def _series_sums(n: int, r: float) -> tuple[Fraction, Fraction, Fraction]:
    """Exact partial sums (phi, phi', phi'') of the profile series at r.

    Sums sum b_k r^2k, sum 2k b_k r^(2k-1), sum 2k(2k-1) b_k r^(2k-2) with a
    single running integer denominator.  Truncation: the next term must be
    below 2^-50 of each partial sum it feeds, so all three sums meet the
    relative target simultaneously.
    """
    fr = Fraction(r)
    a, b = (fr * fr).numerator, (fr * fr).denominator
    t_num = 1          # term numerator over the running denominator
    den = 1
    s0 = 1             # phi partial sum numerator
    s1 = 0             # sum 2k b_k r^2k numerator
    s2 = 0             # sum 2k(2k-1) b_k r^2k numerator
    for k in range(1, MAX_TERMS + 1):
        c = b * (2 * k) * (n - 2 + 2 * k)
        t_num = t_num * (-a)
        s0 = s0 * c + t_num
        s1 = s1 * c + 2 * k * t_num
        s2 = s2 * c + 2 * k * (2 * k - 1) * t_num
        den *= c
        tail0 = abs(t_num) << RELATIVE_TARGET_BITS
        tail2 = (abs(t_num) * (2 * k + 2) * (2 * k + 1)) << RELATIVE_TARGET_BITS
        if tail0 <= abs(s0) and tail2 <= max(abs(s2), 1):
            break
    else:
        raise BesselDomainError(f"series for phi_{n}({r}) did not converge in {MAX_TERMS} terms")
    phi_val = Fraction(s0, den)
    dphi_val = Fraction(s1, den) / fr if fr else Fraction(0)
    d2phi_val = Fraction(s2, den) / (fr * fr) if fr else 2 * series_coefficient(n, 1)
    return phi_val, dphi_val, d2phi_val


def _gamma_half_float(n: int) -> float:
    """Gamma(n/2) for integer n >= 1."""
    if n % 2 == 0:
        return float(math.factorial(n // 2 - 1))
    k = (n - 1) // 2
    return math.factorial(2 * k) * math.sqrt(math.pi) / (4**k * math.factorial(k))


def _bessel_j_hankel(nu: float, r: float) -> float:
    """J_nu(r) by the Hankel asymptotic expansion, for nu in {0, 1} and r > 40.

    Terms are added until they stop decreasing or fall below 1e-18 of the
    leading one; adequate to ~1e-14 relative for r > 30 and nu <= 8.
    """
    mu = 4.0 * nu * nu
    p_sum, q_sum = 1.0, 0.0
    term = 1.0
    for k in range(1, 24):
        term *= (mu - (2 * k - 1) ** 2) / (k * 8.0 * r)
        contrib = abs(term)
        if contrib >= 1.0 or contrib < 1e-18:
            break
        if k % 2 == 0:
            p_sum += term * (-1) ** (k // 2)
        else:
            q_sum += term * (-1) ** ((k - 1) // 2)
    chi = r - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * r)) * (p_sum * math.cos(chi) - q_sum * math.sin(chi))


def _phi_large(n: int, r: float) -> float:
    """phi_n(r), r > 40: J_{v+1} = (2v/r) J_v - J_{v-1} up from the exact J_{-1/2}, J_{1/2} (odd n) or
    Hankel J_0, J_1 (even n).  The recurrence is stable only while v < r, so phi sums the series at nu >= r."""
    nu = 0.5 * n - 1.0
    if n % 2:
        v, scale = -0.5, math.sqrt(2.0 / (math.pi * r))
        low, high = scale * math.cos(r), scale * math.sin(r)
    else:
        v, low, high = 0.0, _bessel_j_hankel(0.0, r), _bessel_j_hankel(1.0, r)
    for k in range(round(nu - v)):
        low, high = high, (2.0 * (v + k + 1.0) / r) * high - low
    return low * _gamma_half_float(n) * (0.5 * r) ** (-nu)


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
        return float(_series_sums(n, x)[0])
    return _phi_large(n, x)


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
        return float(_series_sums(n, r)[1])
    return -(r / n) * phi(n + 2, abs(r))


def ode_residual(n: int, r: float) -> float:
    """Defect phi'' + (n-1) phi'/r + phi of the series evaluation at r > 0.

    The coefficient (n-1)/r is singular at 0, so r = 0 is rejected.
    """
    n = _check_n(n)
    r = _check_r(r)
    if r <= 0.0:
        raise BesselDomainError(f"ode_residual needs r > 0, got {r}")
    if r <= SERIES_CUTOFF:
        p0, p1, p2 = _series_sums(n, r)
        return float(p2 + (n - 1) * p1 / Fraction(r) + p0)
    # Large-r branch: express phi' and phi'' through higher profiles.
    p0 = phi(n, r)
    p1 = -(r / n) * phi(n + 2, r)
    p2 = -phi(n + 2, r) / n + (r * r) * phi(n + 4, r) / (n * (n + 2))
    return p2 + (n - 1) * p1 / r + p0
