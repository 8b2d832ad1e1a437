"""Bounded functional calculus on spectral domains.

Every operator here is an even function of the Dirac operator D, that is a
function g(sqrt L) of the Hodge Laplacian, composed with d, d^* or D.  One
primitive, `functional_calculus`, applies g(sqrt L_k) to a degree-k
cochain through the domain's `even_apply` (a diagonal on the circle and
tori, the cached eigenpairs of L_k on a simplicial complex); g is evaluated
once per distinct root of the spectrum, so it is even by construction and
the result keeps the input degree exactly.  For smooth even g, g(sqrt mu)
is a smooth function of mu, so the roots need no more precision than mu
has.  The odd operators (D_t and the discrete wave map) are D composed with
an even function, applied one degree at a time: no N x N eigensolve or SVD
runs, and the only N x N matrices built are the symmetry unitaries and the
discrete wave map's D_h, which the orbit applies at every step.

The bounded derivative d_t = t phi_{q+2}(tD) d, its adjoint, the norm of
D_t, kernel (Betti) counting with a spectral-gap guard on the per-degree
Laplacian spectra, symmetry commutators and the norm-contractive discrete
wave map all live here; the Bessel index is the domain's q.  The torus and
circle symmetries are pullbacks of x -> A x + s, A a signed permutation,
written out in the trig basis.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from . import besselfn
from .domains import BasisLabel, Cochain, SpectralDomain

__all__ = [
    "SpectralGapError",
    "SymmetryPreconditionError",
    "WaveMapNormError",
    "functional_calculus",
    "deformed_d",
    "deformed_d_adjoint",
    "deformed_dirac_norm",
    "betti",
    "symmetry_commutator",
    "torus_translation",
    "torus_quarter_turn",
    "discrete_wave_orbit",
]

KERNEL_FLOOR = 1e-24
ROOT_FLOOR = 1e-12


class SpectralGapError(ValueError):
    """An eigenvalue sits too close to the kernel threshold to count reliably."""


class SymmetryPreconditionError(ValueError):
    """The proposed unitary mixes degrees or does not commute with d to begin with."""

    def __init__(self, measured: float, what: str = "|| U d - d U ||"):
        self.measured = measured
        super().__init__(f"{what} = {measured:.3e} violates the 1e-10 precondition")


class WaveMapNormError(ValueError):
    """The deformed Dirac norm is not strictly below one."""

    def __init__(self, measured: float):
        self.measured = measured
        super().__init__(f"discrete wave map needs ||D_h|| < 1, measured {measured:.6f}")


def _even_values(g, radii: np.ndarray) -> np.ndarray:
    """g(|x|) for every entry of radii, one evaluation per distinct rounded |x|.

    g may return a tuple of numbers; the values then gain a trailing axis.
    """
    uniq, inverse = np.unique(np.round(np.abs(radii), 12), return_inverse=True)
    vals = np.array([g(float(u)) for u in uniq], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("scalar function is not finite on the spectrum")
    return vals[inverse.reshape(np.shape(radii))]


def _roots(domain: SpectralDomain, k: int) -> np.ndarray:
    """The |lambda| of D on degree k: sqrt(mu) over the Laplacian spectrum of that degree.

    On a simplicial domain eigh resolves mu only to about n eps max(mu) (a
    trig spectrum is exact), and the root of that noise is ~1e-8 of the
    largest |lambda|, which a function of |lambda| that is not smooth in mu
    (the orbit weight |psi|) would see.  Every mu below
    ROOT_FLOOR * max(1, max mu) is therefore an exact zero.
    """
    mu = domain.laplacian_spectrum(k)
    floor = ROOT_FLOOR * max(1.0, float(mu.max())) if mu.size else 0.0
    return np.sqrt(np.where(mu > floor, mu, 0.0))


def _dirac_times(domain: SpectralDomain, values: list[np.ndarray]) -> np.ndarray:
    """D g(|D|) as a dense matrix: G_{k+1} d_k = d_k G_k below the diagonal, its transpose above.

    Only the wave orbit's D_h is built this way: a step applied as d_k,
    d_k^T and `even_apply` per degree is 5-6x slower than one dense product
    at N = 34-216 (one BLAS thread, 2-vCPU x86 host).
    """
    out = np.zeros((domain.total_dim, domain.total_dim))
    for k, d in enumerate(domain.d_blocks):
        lo, hi = domain.degree_slice(k), domain.degree_slice(k + 1)
        out[hi, lo] = domain.even_apply(k + 1, values[k + 1], d)
        out[lo, hi] = out[hi, lo].T
    return out


def functional_calculus(domain: SpectralDomain, g, u: Cochain) -> Cochain:
    """g(sqrt L) u for a pure-degree cochain u; the result has u's degree.

    Costs O(n_k) on a trig domain and O(n_k^2) on a simplicial one.
    """
    vals = _even_values(g, _roots(domain, u.degree))
    return Cochain(u.degree, domain.even_apply(u.degree, vals, u.coefficients))


def _bounded_profile(domain: SpectralDomain, t: float):
    """r -> t phi_{q+2}(t r), the even multiplier of d_t."""
    n = domain.q + 2
    return lambda r: t * besselfn.phi(n, t * r)


def _deformed_values(domain: SpectralDomain, t: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """psi_{q+2}(t sqrt mu_k) and t phi_{q+2}(t sqrt mu_k) for every degree k.

    |psi_{q+2}(t |lambda|)| are the singular values of D_t, so they carry its
    norm and, squared, the spectrum of L_t on each degree; t phi_{q+2} is the
    even factor of D_t = D t phi_{q+2}(t|D|).  phi is evaluated once per
    distinct root over all degrees.
    """
    n = domain.q + 2

    def both(r: float) -> tuple[float, float]:
        x = t * r
        p = besselfn.phi(n, x)
        return x * p, t * p  # psi_n(x) = x phi_n(x), as besselfn.psi evaluates it

    roots = [_roots(domain, k) for k in range(domain.top_degree + 1)]
    pairs = np.split(_even_values(both, np.concatenate(roots)), np.cumsum([r.size for r in roots])[:-1])
    return [v[:, 0] for v in pairs], [v[:, 1] for v in pairs]


def deformed_d(domain: SpectralDomain, t: float, u: Cochain) -> Cochain:
    """Bounded derivative d_t u = t phi_{q+2}(tD) d u; degree k -> k+1.

    Zero at t = 0; (1/t) d_t u converges to d u as t -> 0.
    """
    if u.degree >= domain.top_degree:
        raise ValueError(f"degree {u.degree} is the top of {domain.name}; d_t rejected")
    du = domain.cochain(u.degree + 1, domain.d_blocks[u.degree] @ u.coefficients)
    if t == 0.0:
        return domain.zero_cochain(u.degree + 1)
    return functional_calculus(domain, _bounded_profile(domain, t), du)


def deformed_d_adjoint(domain: SpectralDomain, t: float, w: Cochain) -> Cochain:
    """Adjoint d_t^* w = t phi_{q+2}(tD) d^* w; degree k -> k-1."""
    if w.degree < 1:
        raise ValueError("deformed_d_adjoint needs a cochain of degree >= 1")
    dstar = domain.cochain(w.degree - 1, domain.d_blocks[w.degree - 1].T @ w.coefficients)
    if t == 0.0:
        return domain.zero_cochain(w.degree - 1)
    return functional_calculus(domain, _bounded_profile(domain, t), dstar)


def deformed_dirac_norm(domain: SpectralDomain, t: float) -> float:
    """Operator norm of D_t, max over degrees of |psi_{q+2}(t sqrt mu_k)|."""
    return _max_abs(_deformed_values(domain, t)[0])


def _max_abs(values: list[np.ndarray]) -> float:
    return max(float(np.max(np.abs(v), initial=0.0)) for v in values)


def betti(domain: SpectralDomain, t: float, degree: int, tol: float | None = None) -> int:
    """Dimension of the near-kernel of L_t on one degree.

    L_t restricted to degree k is psi_{q+2}(t sqrt L_k)^2, so its spectrum
    is read off the Laplacian spectrum mu of that degree.  The default
    threshold is 1e-8 times the largest L_t eigenvalue over all degrees.  A
    spectral-gap guard rejects counts where any degree-k eigenvalue falls
    within a factor 10 of the threshold; if the whole deformed spectrum is
    numerically zero every mode is harmonic.
    """
    if tol is not None and not tol > 0:
        raise ValueError("tol must be positive")
    psi, _ = _deformed_values(domain, t)
    lam_max = _max_abs(psi) ** 2
    if lam_max < KERNEL_FLOOR:
        return domain.grading[degree]
    if tol is None:
        tol = 1e-8 * lam_max
    evals = psi[degree] ** 2
    nearby = evals[(evals > tol / 10.0) & (evals < tol * 10.0)]
    if nearby.size:
        raise SpectralGapError(
            f"eigenvalues {np.sort(nearby)[:4]} sit within a factor 10 of the kernel threshold {tol:.3e}"
        )
    return int(np.sum(evals < tol))


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def symmetry_commutator(domain: SpectralDomain, unitary: np.ndarray, t: float) -> float:
    """|| U d_t - d_t U || for a degree-preserving unitary that commutes with d.

    For a degree-preserving U both commutators map degree k to degree k+1
    only, so their 2-norms are the largest over k of
    || U_{k+1} X_k - X_k U_k ||, with X_k = d_k for the precondition and
    X_k = t phi_{q+2}(t sqrt L_{k+1}) d_k for d_t.  An off-degree block of U
    of norm 1e-10 or more, and then a precondition || U d - d U || of 1e-10
    or more, are reported with the measured value.
    """
    unitary = np.asarray(unitary, dtype=float)
    if unitary.shape != (domain.total_dim, domain.total_dim):
        n = domain.total_dim
        raise ValueError(f"a unitary on {domain.name} must be {n} x {n}, got shape {unitary.shape}")
    slices = [domain.degree_slice(k) for k in range(domain.top_degree + 1)]
    leak = max(
        (_norm2(unitary[a, b]) for i, a in enumerate(slices) for j, b in enumerate(slices)
         if i != j and np.any(unitary[a, b])),
        default=0.0,
    )
    if leak >= 1e-10:
        raise SymmetryPreconditionError(leak, "off-degree block of U")
    blocks = [unitary[s, s] for s in slices]
    pre = max(_norm2(blocks[k + 1] @ d - d @ blocks[k]) for k, d in enumerate(domain.d_blocks))
    if pre >= 1e-10:
        raise SymmetryPreconditionError(pre)
    _, profile = _deformed_values(domain, t)
    worst = 0.0
    for k, d in enumerate(domain.d_blocks):
        dt = domain.even_apply(k + 1, profile[k + 1], d)
        worst = max(worst, _norm2(blocks[k + 1] @ dt - dt @ blocks[k]))
    return worst


def _norm2(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix, 2))


def _pullback(domain: SpectralDomain, axes, signs, shift) -> np.ndarray:
    """Pullback of the torus isometry x -> A x + shift, (A x)_i = signs[i] x_{axes[i]}, in the trig basis.

    The mode m goes to A^T m and the phase rotates by 2 pi m.shift; a mode
    whose first nonzero entry turns negative is negated back, which
    reverses the rotation and flips the sign of sin.  dx_i pulls back to
    signs[i] dx_{axes[i]}, and a form component takes the sign of the sort
    that puts its new axes in order.  The result is an exact signed
    permutation-rotation, so it commutes with d to machine precision.
    """
    if domain.labels is None or len(axes) != domain.q:
        raise ValueError(f"no pullback of a {len(axes)}-torus isometry on the {domain.name} domain")
    index = {lbl: i for i, lbl in enumerate(domain.labels)}
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    u = np.zeros((domain.total_dim, domain.total_dim))
    for i, (k, subset, phase, mode) in enumerate(domain.labels):
        image = [axes[a] for a in subset]
        sign = math.prod(signs[a] for a in subset) * (-1) ** sum(a > b for a, b in combinations(image, 2))
        pulled = [0] * domain.q
        for a, m in enumerate(mode):
            pulled[axes[a]] = signs[a] * m
        flip = -1 if next((c for c in pulled if c), 0) < 0 else 1
        mode_to = tuple(flip * c for c in pulled)

        def row(phase_to):
            return index[BasisLabel(k, tuple(sorted(image)), phase_to, mode_to)]

        if phase == "const":
            u[row("const"), i] = sign
            continue
        angle = 2.0 * math.pi * float(np.dot(mode, shift))
        c, s = math.cos(angle), flip * math.sin(angle)
        if phase == "cos":  # cos(w + a) = cos a cos w - sin a sin w
            u[row("cos"), i] = sign * c
            u[row("sin"), i] = -sign * s
        else:  # sin(w + a) = cos a sin w + sin a cos w, times -1 where the mode was negated
            u[row("sin"), i] = sign * flip * c
            u[row("cos"), i] = sign * flip * s
    return u


def torus_translation(domain: SpectralDomain, shift) -> np.ndarray:
    """Pullback of x -> x + shift in the trig basis: per-mode rotations."""
    return _pullback(domain, tuple(range(domain.q)), (1,) * domain.q, shift)


def torus_quarter_turn(domain: SpectralDomain) -> np.ndarray:
    """Pullback of the isometry (x, y) -> (-y, x) on the 2-torus: m -> (m_2, -m_1), dx -> -dy, dy -> dx."""
    return _pullback(domain, (1, 0), (-1, 1), (0.0, 0.0))


# ---------------------------------------------------------------------------
# discrete wave map
# ---------------------------------------------------------------------------


def discrete_wave_orbit(domain: SpectralDomain, h: float, u: np.ndarray, v: np.ndarray, steps: int) -> dict:
    """Iterate T: (u, v) -> (D_h u - v, u), tracking the max state norm along the orbit.

    Needs ||D_h|| < 1; `steps=0` gives the bound alone and `steps=1` one
    step of T.  Returns the orbit maximum, the final state and the
    rotation-conjugacy bound.  On an eigenmode of D with
    a = psi_{q+2}(h lambda) every step preserves
    Q_a(u, v) = u^2 - a u v + v^2, and u^2 + v^2 <= Q_a / (1 - |a|/2).
    Summed over modes the bound is u^T G u + v^T G v - u^T D_h G v, with G
    the even function 1 / (1 - |psi_{q+2}(h |D|)| / 2), applied one degree
    at a time.
    """
    if steps < 0:
        raise ValueError(f"a wave orbit needs steps >= 0, got {steps}")
    psi, profile = _deformed_values(domain, h)
    norm = _max_abs(psi)
    if norm >= 1.0:
        raise WaveMapNormError(norm)
    dh = _dirac_times(domain, profile)
    cu, cv = np.array(u, dtype=float), np.array(v, dtype=float)
    weight = [1.0 / (1.0 - np.abs(a) / 2.0) for a in psi]
    gu, gv = (
        np.concatenate([domain.even_apply(k, g, x[domain.degree_slice(k)]) for k, g in enumerate(weight)])
        for x in (cu, cv)
    )
    bound = math.sqrt(float(cu @ gu + cv @ gv - cu @ (dh @ gv)))
    max_norm = math.sqrt(float(cu @ cu + cv @ cv))
    for _ in range(steps):
        cu, cv = dh @ cu - cv, cu
        max_norm = max(max_norm, math.sqrt(float(cu @ cu + cv @ cv)))
    return {"max_norm": max_norm, "bound": bound, "final": (cu, cv), "dirac_norm": norm}

