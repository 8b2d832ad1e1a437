"""Sphere and ball averaging oracles, polarization identity, locality probe.

The exact side works over rational polynomials.  A sphere moment is one
integer formula, E_S[x^alpha] = prod_i (alpha_i - 1)!! / (q (q + 2) ...
(q + |alpha| - 2)) for even alpha and 0 otherwise, so ball and sphere
averages become polynomials in the radius, and the Laplacian-power series
with constants C(n, k) = prod_{j=1..k} 2j (n - 2 + 2j) must reproduce those
averages as a polynomial identity (ball: n = q + 2, sphere: n = q).  The
flux of a (q-1)-form through the sphere is the sphere average of its radial
contraction, one power of t lower.

The numeric side probes sharp wave fronts: a band-limited radial bump is propagated on a flat torus with the
bounded smoothed-derivative multiplier and with the classical sinc multiplier, each evaluated once per integer
level |m|^2 of the band, and the interior leakage fractions are compared.  The grids are open (1-D axes
broadcast against each other); the field is symmetric under every swap of axes, so each propagator takes one
real inverse FFT, for the gradient along the first axis, whose squares are summed per grid level |k|^2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, product as iter_product

import numpy as np

from .domains import DomainSizeError
from .polyforms import MultiPoly, PolyKForm
from .specops import _profile

__all__ = [
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

# Total-degree cap of `polarization_expand`: it bounds only the printed 2^n-row
# table, since `polarization_reconstruct` sums that table in integers.
POLARIZATION_DEGREE_CAP = 12


class PolarizationDegreeError(ValueError):
    """Total degree exceeds the 2^n expansion cap."""


# ---------------------------------------------------------------------------
# exact sphere moments and averages
# ---------------------------------------------------------------------------


def sphere_moment_ratio(q: int, alpha) -> Fraction:
    """E over the unit sphere S^(q-1) of x^alpha, exactly.

    Zero when any alpha_i is odd; otherwise
    prod_i (alpha_i - 1)!! / (q (q + 2) ... (q + |alpha| - 2))
    (Folland, Amer. Math. Monthly 108 (2001) 446-448).
    """
    if q < 1 or len(alpha) != q or min(alpha) < 0:
        raise ValueError(f"multi-index {alpha} invalid for q={q}")
    if any(a % 2 for a in alpha):
        return Fraction(0)
    return Fraction(math.prod(math.prod(range(1, a, 2)) for a in alpha), math.prod(range(q, q + sum(alpha), 2)))


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
    return math.prod(2 * j * (n - 2 + 2 * j) for j in range(1, k + 1))


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


def flux_average_exact(f: PolyKForm, q: int) -> MultiPoly:
    """Average flux of the (q-1)-form f through W_t(0), as a polynomial in t.

    The form is the vector field F_i = (-1)^i f_{complement(i)} whose
    divergence is the df scalar.  Its radial contraction G = x . F has
    G(t u) = t F(t u) . u, so the flux average is the sphere average of G
    one power of t lower.
    """
    if f.nvars != q or f.degree != q - 1:
        raise ValueError("flux average needs a (q-1)-form on R^q")
    radial: dict[tuple[int, ...], Fraction] = {}
    for i in range(q):
        for expo, c in f.component(tuple(a for a in range(q) if a != i)).terms.items():
            key = expo[:i] + (expo[i] + 1,) + expo[i + 1 :]
            radial[key] = radial.get(key, Fraction(0)) + (-c if i % 2 else c)
    average = sphere_average_exact(MultiPoly(q, radial), q)
    return MultiPoly(1, {(e - 1,): c for (e,), c in average.terms.items()})


def flux_corollary_check(f: PolyKForm, q: int) -> float:
    """Max coefficient deviation of t E_ball[df] - q flux/|W_t|; exactly 0."""
    div = f.exterior_derivative().component(tuple(range(f.nvars)))  # df = div dx_1..dx_q
    lhs = MultiPoly(1, {(1,): Fraction(1)}) * pizzetti_ball(div, q)
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
    cuts = list(accumulate(exponents, initial=0))
    return [(math.prod(signs), tuple(sum(signs[a:b]) for a, b in zip(cuts, cuts[1:])), n)
            for signs in iter_product((1, -1), repeat=n)]


def polarization_reconstruct(exponents) -> MultiPoly:
    """Sum the signed table of `polarization_expand` exactly; equals the monomial.

    Rows with one coefficient tuple a merge into an integer weight w_a; by the
    multinomial theorem the coefficient of x^e, |e| = n, is sum_a w_a a^e / (e! 2^n).
    """
    exponents = tuple(int(m) for m in exponents)
    weights = Counter()
    for sign, coeffs, _ in polarization_expand(exponents):
        weights[coeffs] += sign
    n, k = sum(exponents), len(exponents)
    terms = {}
    for bars in combinations(range(n + k - 1), k - 1):  # the e with |e| = n, by stars and bars
        cuts = (-1,) + bars + (n + k - 1,)
        e = tuple(hi - lo - 1 for lo, hi in zip(cuts, cuts[1:]))
        num = sum(w * math.prod(c**p for c, p in zip(a, e)) for a, w in weights.items() if w)
        terms[e] = Fraction(num, math.prod(math.factorial(p) for p in e) * 2**n)
    return MultiPoly(k, terms)


def finite_difference_identity(n: int, j: int) -> int:
    """sum_k (-1)^k binom(n, k) k^j; 0 for j < n and (-1)^n n! at j = n."""
    if not (0 <= j <= n):
        raise ValueError("need 0 <= j <= n")
    total = 0
    for k in range(n + 1):
        total += (-1) ** k * math.comb(n, k) * k**j
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


# At most 42 bytes per grid point are live at the peak (tracemalloc: 38.9 at
# 64^3, 33.6 at 128^3, 36.8 at 512^2), so a probe at the cap stays under 84 MiB.
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
    grid: int | None = None  # points per axis the probe ran on, after doubling; None if it did not run


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

    Preconditions: annulus_width < t < 1/2 - annulus_width (hard errors),
    sigma much smaller than t and a band-limit resolving the bump (otherwise
    the probe returns unresolved instead of a verdict).  The grid doubles
    until it resolves the band limit; one above PROBE_GRID_CAP points raises
    DomainSizeError.

    Each propagator takes one inverse FFT.  The bump is radial, the band
    max_a |m_a| <= max_freq is a cube, each multiplier depends on |m|^2
    alone, and the grid has n points on every axis with n >= 2 max_freq + 2,
    so no in-band mode sits on a Nyquist frequency.  The field g is then
    symmetric under every swap of axes, d_a g(x) = d_0 g(P_a x) with P_a
    swapping axes 0 and a.  Each radial mass of |grad g|^2 reads the integer
    level |k|^2 of the wrapped offsets k, which P_a keeps, so it is q times
    that of (d_0 g)^2: one weighted bincount per propagator.  The interior
    is the exact test |k|^2 < ((t - annulus_width) n)^2.
    """
    if q not in (2, 3):
        raise ValueError("locality probe supports q in {2, 3}")
    if max_freq < 1 or grid_points < 1:
        raise ValueError(f"max_freq and grid_points must be positive, got {max_freq} and {grid_points}")
    if not all(math.isfinite(v) and v > 0 for v in (sigma, t, annulus_width)):
        raise ValueError(f"sigma={sigma}, t={t} and annulus_width={annulus_width} must be finite and positive")
    if annulus_width >= t:
        raise ValueError(f"annulus_width={annulus_width} reaches t={t}, so the probe interior is empty")
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

    # open grids: frequency axis a and torus coordinate a vary along array axis a only; the fields are
    # real, so the last frequency axis keeps only its non-negative half.  fftfreq(n, 1/n) misses the
    # integers by an ulp for some n (49, 98, ...), hence the rounding.
    modes = np.ix_(*([np.fft.fftfreq(n, d=1.0 / n).round()] * (q - 1) + [np.fft.rfftfreq(n, d=1.0 / n).round()]))
    band = reduce(np.maximum, (np.abs(m) for m in modes)) <= max_freq
    # the bump is exactly 0 out of band, so the multipliers are only needed there
    m_sq = sum(m**2 for m in modes)[band].astype(int)
    bump_hat = np.exp(-2.0 * math.pi**2 * sigma**2 * m_sq)
    occurs = np.bincount(m_sq) > 0  # phi runs once, on 2 pi sqrt(j) for each integer level j = |m|^2 that occurs
    lam, level = 2.0 * math.pi * np.sqrt(np.flatnonzero(occurs)), (np.cumsum(occurs) - 1)[m_sq]

    # the interior |k| / n < t - w is the integer test |k|^2 < bound; each level lands in the bin of its radius
    k_sq = sum(np.ix_(*([((np.arange(n) + n // 2) % n - n // 2) ** 2] * q))).ravel()
    bound = math.ceil(Fraction(t - annulus_width) ** 2 * n**2)
    edges = np.linspace(0.0, math.sqrt(q * (n // 2 / n) ** 2) + 1e-12, PROBE_BINS + 1)  # the corner's radius
    bin_of_level = edges.searchsorted(np.sqrt(np.arange(q * (n // 2) ** 2 + 1)) / n, side="right") - 1

    def leakage_and_profile(order):
        # F = d_0 g from one real inverse FFT; sum_x w(|k|^2) |grad g|^2 = q sum_x w(|k|^2) F^2; q and scale cancel
        field_hat = np.zeros(band.shape, dtype=complex)
        field_hat[band] = t * _profile(order, t, lam)[level] * bump_hat
        field_hat *= 2.0j * math.pi * modes[0]
        grad = np.fft.irfftn(field_hat, s=(n,) * q, axes=range(q))
        grad *= grad
        mass = np.bincount(k_sq, weights=grad.ravel())
        total = mass.sum()
        profile = np.bincount(bin_of_level, weights=mass, minlength=PROBE_BINS)
        return float(mass[:bound].sum() / total), profile / total

    (deformed_leak, deformed_profile), (classical_leak, classical_profile) = map(leakage_and_profile, (q + 2, 3))
    return LocalityProbeResult(True, None, tail, deformed_leak, classical_leak, 0.5 * (edges[:-1] + edges[1:]),
                               deformed_profile, classical_profile, n)
