"""Sphere and ball averaging oracles, polarization identity, locality probe.

The exact side works over rational polynomials: monomial integrals over the
unit sphere are closed-form Gamma ratios, ball and sphere averages become
polynomials in the radius, and the Laplacian-power series with constants
C(n, k) = prod_{j=1..k} 2j (n - 2 + 2j) must reproduce those averages as a
polynomial identity (ball: n = q + 2, sphere: n = q).

The numeric side probes sharp wave fronts: a band-limited radial bump is
propagated on a flat torus with the bounded smoothed-derivative multiplier
and with the classical sinc multiplier, and the interior leakage fractions
are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

import numpy as np

from . import besselfn
from .domains import DomainSizeError
from .polyforms import MultiPoly, PolyKForm
from .specops import _even_values

__all__ = [
    "SphereIntegral",
    "sphere_monomial_integral",
    "sphere_moment_ratio",
    "ball_average_exact",
    "sphere_average_exact",
    "pizzetti_constant",
    "pizzetti_ball",
    "pizzetti_sphere",
    "flux_average_exact",
    "flux_corollary_check",
    "PolarizationDegreeError",
    "polarization_expand",
    "polarization_reconstruct",
    "finite_difference_identity",
    "polarization_normalization",
    "LocalityProbeResult",
    "locality_probe",
]

POLARIZATION_DEGREE_CAP = 12


class PolarizationDegreeError(ValueError):
    """Total degree exceeds the 2^n expansion cap."""


# ---------------------------------------------------------------------------
# exact sphere integrals and averages
# ---------------------------------------------------------------------------


def _gamma_half(two_a: int) -> tuple[Fraction, int]:
    """Gamma(two_a / 2) as (rational, power of sqrt(pi)); two_a >= 1."""
    if two_a < 1:
        raise ValueError("gamma argument must be >= 1/2")
    if two_a % 2 == 0:
        return Fraction(math.factorial(two_a // 2 - 1)), 0
    k = (two_a - 1) // 2
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k)), 1


@dataclass(frozen=True)
class SphereIntegral:
    """Exact value rational * pi^pi_power of a sphere monomial integral."""

    rational: Fraction
    pi_power: int

    @property
    def value(self) -> float:
        return float(self.rational) * math.pi**self.pi_power

    def __bool__(self) -> bool:
        return bool(self.rational)


def sphere_monomial_integral(q: int, alpha) -> SphereIntegral:
    """integral over S^(q-1) of x^alpha dS, exactly.

    Zero unless every exponent is even; otherwise
    2 prod_i Gamma((alpha_i + 1)/2) / Gamma((|alpha| + q)/2), with the
    half-integer Gamma values expanded so the result is rational * pi^m.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != q or any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} invalid for q={q}")
    if any(a % 2 for a in alpha):
        return SphereIntegral(Fraction(0), 0)
    num = Fraction(2)
    sqrt_pi = 0
    for a in alpha:
        g, s = _gamma_half(a + 1)
        num *= g
        sqrt_pi += s
    gd, sd = _gamma_half(sum(alpha) + q)
    num /= gd
    sqrt_pi -= sd
    if sqrt_pi % 2:
        raise AssertionError("sqrt(pi) parity cannot be odd here")
    return SphereIntegral(num, sqrt_pi // 2)


def sphere_moment_ratio(q: int, alpha) -> Fraction:
    """Exact ratio of the monomial sphere integral to the sphere area."""
    top = sphere_monomial_integral(q, alpha)
    bottom = sphere_monomial_integral(q, (0,) * q)
    if top.pi_power != bottom.pi_power and top.rational:
        raise AssertionError("pi powers must agree")
    return top.rational / bottom.rational


def _average_poly(g: MultiPoly, q: int, ball: bool) -> MultiPoly:
    """Average of g over the radius-t ball or sphere, a polynomial in t."""
    if g.nvars != q:
        raise ValueError("polynomial variable count must equal q")
    out: dict[tuple[int], Fraction] = {}
    for expo, coeff in g.terms.items():
        ratio = sphere_moment_ratio(q, expo)
        if not ratio:
            continue
        total = sum(expo)
        if ball:
            ratio *= Fraction(q, total + q)
        out[(total,)] = out.get((total,), Fraction(0)) + coeff * ratio
    return MultiPoly(1, out)


def ball_average_exact(g: MultiPoly, q: int) -> MultiPoly:
    """E over the ball B_t(0) of g, exactly, as a polynomial in t."""
    return _average_poly(g, q, ball=True)


def sphere_average_exact(g: MultiPoly, q: int) -> MultiPoly:
    """E over the sphere W_t(0) of g, exactly, as a polynomial in t."""
    return _average_poly(g, q, ball=False)


def pizzetti_constant(n: int, k: int) -> int:
    """C(n, k) = prod_{j=1..k} 2j (n - 2 + 2j); C(n, 0) = 1.

    1 / C(n, k) is the magnitude of the profile series coefficient b_k of
    phi_n; the Laplacian-power averages use it with alternating signs
    absorbed, because the operator convention has L = -Delta.
    """
    value = 1
    for j in range(1, k + 1):
        value *= 2 * j * (n - 2 + 2 * j)
    return value


def _laplacian_series(g: MultiPoly, n: int) -> MultiPoly:
    """sum_k t^(2k) Delta^k g(0) / C(n, k); terminates for polynomials."""
    out: dict[tuple[int], Fraction] = {}
    power = g
    k = 0
    while not power.is_zero:
        c0 = power.value_at_origin()
        if c0:
            out[(2 * k,)] = c0 / pizzetti_constant(n, k)
        power = power.laplacian()
        k += 1
    return MultiPoly(1, out)


def pizzetti_ball(g: MultiPoly, q: int) -> MultiPoly:
    """Laplacian-power expansion of the ball average (index q + 2)."""
    if g.nvars != q:
        raise ValueError("polynomial variable count must equal q")
    return _laplacian_series(g, q + 2)


def pizzetti_sphere(g: MultiPoly, q: int) -> MultiPoly:
    """Laplacian-power expansion of the sphere average (index q)."""
    if g.nvars != q:
        raise ValueError("polynomial variable count must equal q")
    return _laplacian_series(g, q)


# ---------------------------------------------------------------------------
# flux corollary
# ---------------------------------------------------------------------------


def _divergence_scalar(f: PolyKForm) -> MultiPoly:
    """The scalar of df for a (q-1)-form f, df = scalar * dx_1..dx_q."""
    q = f.nvars
    df = f.exterior_derivative()
    return df.component(tuple(range(q)))


def flux_average_exact(f: PolyKForm, q: int) -> MultiPoly:
    """Average flux of the (q-1)-form f through W_t(0), as a polynomial in t.

    The form is converted to the vector field F_i = (-1)^i f_{complement(i)}
    whose divergence is the df scalar; the flux average is the sphere mean
    of F(t u) . u.
    """
    if f.nvars != q or f.degree != q - 1:
        raise ValueError("flux average needs a (q-1)-form on R^q")
    out: dict[tuple[int], Fraction] = {}
    for i in range(q):
        key = tuple(a for a in range(q) if a != i)
        poly = f.component(key)
        if poly.is_zero:
            continue
        sign = -1 if i % 2 else 1
        for expo, coeff in poly.terms.items():
            shifted = list(expo)
            shifted[i] += 1
            ratio = sphere_moment_ratio(q, tuple(shifted))
            if not ratio:
                continue
            total = sum(expo)
            out[(total,)] = out.get((total,), Fraction(0)) + sign * coeff * ratio
    return MultiPoly(1, out)


def flux_corollary_check(f: PolyKForm, q: int) -> float:
    """Max coefficient deviation of t E_ball[df] - q flux/|W_t|; exactly 0."""
    lhs = MultiPoly(1, {(1,): Fraction(1)}) * pizzetti_ball(_divergence_scalar(f), q)
    rhs = flux_average_exact(f, q) * q
    diff = lhs - rhs
    return max((abs(float(c)) for c in diff.terms.values()), default=0.0)


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------


def polarization_expand(exponents) -> list[tuple[int, tuple[int, ...], int]]:
    """Signed powers of linear forms whose combination gives a monomial.

    For exponents (m_1..m_k) with n = sum m_i, returns triples
    (sign, (a_1..a_k), n) such that

        (1 / (n! 2^n)) sum sign * (a_1 x_1 + ... + a_k x_k)^n
            = x_1^m_1 ... x_k^m_k .

    Each a_i is a sum of m_i independent signs, so |a_i| <= m_i.
    """
    exponents = tuple(int(m) for m in exponents)
    if not exponents or any(m < 1 for m in exponents):
        raise ValueError("exponents must be positive integers")
    n = sum(exponents)
    if n > POLARIZATION_DEGREE_CAP:
        raise PolarizationDegreeError(
            f"total degree {n} exceeds the expansion cap {POLARIZATION_DEGREE_CAP}"
        )
    terms = []
    for signs in iter_product((1, -1), repeat=n):
        sign = 1
        for s in signs:
            sign *= s
        coeffs = []
        pos = 0
        for m in exponents:
            coeffs.append(sum(signs[pos : pos + m]))
            pos += m
        terms.append((sign, tuple(coeffs), n))
    return terms


def polarization_reconstruct(exponents) -> MultiPoly:
    """Expand the signed combination exactly; equals the monomial."""
    exponents = tuple(int(m) for m in exponents)
    terms = polarization_expand(exponents)
    n = sum(exponents)
    k = len(exponents)
    total = MultiPoly.zero(k)
    for sign, coeffs, power in terms:
        linear = MultiPoly(k, {tuple(1 if i == j else 0 for i in range(k)): Fraction(c)
                               for j, c in enumerate(coeffs) if c})
        if not linear.terms and power > 0:
            continue
        total = total + (linear**power) * sign
    return total * Fraction(1, math.factorial(n) * 2**n)


def finite_difference_identity(n: int, j: int) -> int:
    """sum_k (-1)^k binom(n, k) k^j; 0 for j < n and (-1)^n n! at j = n."""
    if not (0 <= j <= n):
        raise ValueError("need 0 <= j <= n")
    total = 0
    for k in range(n + 1):
        total += (-1) ** k * math.comb(n, k) * (k**j if (k or j) else 1)
    return total


def polarization_normalization(n: int) -> Fraction:
    """(1/n!) sum_k binom(n, k) (-1)^k (n - 2k)^n; equals 2^n."""
    total = 0
    for k in range(n + 1):
        total += math.comb(n, k) * (-1) ** k * (n - 2 * k) ** n
    return Fraction(total, math.factorial(n))


# ---------------------------------------------------------------------------
# locality probe
# ---------------------------------------------------------------------------


# About 190 bytes per grid point are live at the peak, so the cap keeps a
# probe under ~400 MB.
PROBE_GRID_CAP = 2**21
PROBE_BINS = 64


@dataclass(frozen=True)
class LocalityProbeResult:
    """Interior-leakage comparison of the smoothed and classical propagators."""

    resolved: bool
    reason: str | None
    spectral_tail: float
    deformed_leakage: float | None
    classical_leakage: float | None
    radii: np.ndarray | None = None
    deformed_profile: np.ndarray | None = None
    classical_profile: np.ndarray | None = None


def locality_probe(
    q: int,
    max_freq: int,
    sigma: float,
    t: float,
    annulus_width: float,
    grid_points: int = 256,
) -> LocalityProbeResult:
    """Compare interior leakage of the two propagators on the flat q-torus.

    A periodized Gaussian bump f of width sigma sits at the origin.  Both
    u = t phi_{q+2}(tD) df (bounded derivative) and u = t sinc(tD) df
    (classical) are evaluated on a uniform grid, and the fraction of L2 mass
    at torus radius below t - annulus_width is reported for each.

    Preconditions: t + annulus_width < 1/2 (hard error), sigma much smaller
    than t and a band-limit resolving the bump (otherwise the probe returns
    unresolved instead of a verdict).  The grid doubles until it resolves
    the band limit; one above PROBE_GRID_CAP points raises DomainSizeError.
    """
    if q not in (2, 3):
        raise ValueError("locality probe supports q in {2, 3}")
    if max_freq < 1 or sigma <= 0 or t <= 0 or annulus_width <= 0:
        raise ValueError("max_freq, sigma, t and annulus_width must be positive")
    if t + annulus_width >= 0.5:
        raise ValueError(
            f"t + annulus width = {t + annulus_width} reaches half the torus diameter"
        )
    tail = math.exp(-2.0 * math.pi**2 * sigma**2 * max_freq**2)
    if t < 5.0 * sigma:
        return LocalityProbeResult(
            False, f"bump width {sigma} is not small against radius {t}", tail, None, None
        )
    if tail > 1e-6:
        return LocalityProbeResult(
            False, f"bump spectral tail {tail:.3e} above 1e-6 at band limit {max_freq}", tail, None, None
        )

    n = grid_points
    while n < 2 * max_freq + 2:
        n *= 2
    if n**q > PROBE_GRID_CAP:
        raise DomainSizeError(
            f"locality probe q={q}, max_freq={max_freq} needs {n}^{q} = {n**q} grid points "
            f"above the cap {PROBE_GRID_CAP}"
        )

    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    mesh = np.meshgrid(*([freqs] * q), indexing="ij")
    band = np.ones(mesh[0].shape, dtype=bool)
    for m in mesh:
        band &= np.abs(m) <= max_freq
    m_sq = sum(m.astype(float) ** 2 for m in mesh)
    bump_hat = np.where(band, np.exp(-2.0 * math.pi**2 * sigma**2 * m_sq), 0.0)

    lam = 2.0 * math.pi * np.sqrt(m_sq)
    bessel_mult = _even_values(lambda r: t * besselfn.phi(q + 2, t * r), lam)
    sinc_mult = _even_values(lambda r: t * besselfn.phi(3, t * r), lam)

    axes = np.arange(n)
    wrapped = ((axes + n // 2) % n - n // 2) / n
    coord = np.meshgrid(*([wrapped] * q), indexing="ij")
    radius = np.sqrt(sum(c**2 for c in coord))
    interior = radius < (t - annulus_width)

    def leakage_and_profile(mult):
        density = np.zeros(mesh[0].shape)
        for axis_mode in mesh:
            comp_hat = mult * bump_hat * (2.0j * math.pi * axis_mode)
            comp = np.fft.ifftn(comp_hat) * n**q
            density += comp.real**2
        total = density.sum()
        leak = float(density[interior].sum() / total)
        edges = np.linspace(0.0, float(radius.max()) + 1e-12, PROBE_BINS + 1)
        profile, _ = np.histogram(radius, bins=edges, weights=density)
        return leak, profile / total, 0.5 * (edges[:-1] + edges[1:])

    deformed_leak, deformed_profile, centers = leakage_and_profile(bessel_mult)
    classical_leak, classical_profile, _ = leakage_and_profile(sinc_mult)
    return LocalityProbeResult(
        True,
        None,
        tail,
        deformed_leak,
        classical_leak,
        centers,
        deformed_profile,
        classical_profile,
    )
