"""Bounded functional calculus on spectral domains.

Every operator here is an even function of the Dirac operator D, that is a
function g(sqrt L) of the Hodge Laplacian, composed with d, d^* or D.  One
primitive, `functional_calculus`, applies g(sqrt L) to a pure-degree
cochain through the degree-k rows of the eigendecomposition of D; g is
evaluated once per distinct |lambda|, so it is even by construction and the
result keeps the input degree exactly.  The odd operators (D_t and the
discrete wave map) are written as sign(lambda) g(|lambda|).

The bounded derivative d_t = t phi_{q+2}(tD) d, its adjoint, the deformed
Dirac/Laplacian, kernel (Betti) counting with a spectral-gap guard on the
per-degree Laplacian spectra, symmetry commutators and the norm-contractive
discrete wave map all live here.  The Bessel index q defaults to the
ambient dimension of the domain but may be overridden, since the operator
algebra treats it as a free parameter.
"""

from __future__ import annotations

import math

import numpy as np

from . import besselfn
from .domains import BasisLabel, Cochain, SpectralDomain, spectrum_by_degree

__all__ = [
    "SpectralGapError",
    "SymmetryPreconditionError",
    "WaveMapNormError",
    "spectral_matrix",
    "functional_calculus",
    "deformed_d",
    "deformed_d_adjoint",
    "deformed_dirac",
    "deformed_laplacian",
    "deformed_dirac_norm",
    "betti",
    "symmetry_commutator",
    "circle_translation",
    "torus_translation",
    "torus_quarter_turn",
    "discrete_wave_step",
    "discrete_wave_orbit",
]

KERNEL_FLOOR = 1e-24


class SpectralGapError(ValueError):
    """An eigenvalue sits too close to the kernel threshold to count reliably."""


class SymmetryPreconditionError(ValueError):
    """The proposed unitary does not commute with d to begin with."""

    def __init__(self, measured: float):
        self.measured = measured
        super().__init__(f"|| U d - d U || = {measured:.3e} violates the 1e-10 precondition")


class WaveMapNormError(ValueError):
    """The deformed Dirac norm is not strictly below one."""

    def __init__(self, measured: float):
        self.measured = measured
        super().__init__(f"discrete wave map needs ||D_h|| < 1, measured {measured:.6f}")


def _even_values(g, radii: np.ndarray) -> np.ndarray:
    """g(|x|) for every entry of radii, one evaluation per distinct rounded |x|."""
    uniq, inverse = np.unique(np.round(np.abs(radii), 12), return_inverse=True)
    vals = np.array([float(g(float(u))) for u in uniq])
    if not np.all(np.isfinite(vals)):
        raise ValueError("scalar function is not finite on the spectrum")
    return vals[inverse.reshape(np.shape(radii))]


def _dense(domain: SpectralDomain, values: np.ndarray) -> np.ndarray:
    v = domain.eigenvectors
    return (v * values) @ v.T


def spectral_matrix(domain: SpectralDomain, g) -> np.ndarray:
    """Dense matrix of g(sqrt L) = g(|D|) over the whole graded space."""
    return _dense(domain, _even_values(g, domain.eigenvalues))


def functional_calculus(domain: SpectralDomain, g, u: Cochain) -> Cochain:
    """g(sqrt L) u for a pure-degree cochain u; the result has u's degree.

    With V_k the degree-k rows of the eigenvectors of D this is
    V_k (g(|lambda|) * V_k^T u), at cost O(n_k N).
    """
    vk = domain.eigenvectors[domain.degree_slice(u.degree)]
    vals = _even_values(g, domain.eigenvalues)
    return Cochain(u.degree, vk @ (vals * (vk.T @ u.coefficients)))


def _bessel_index(domain: SpectralDomain, q) -> int:
    return domain.q if q is None else int(q)


def _bounded_profile(domain: SpectralDomain, t: float, q):
    """r -> t phi_{q+2}(t r), the even multiplier of d_t."""
    n = _bessel_index(domain, q) + 2
    return lambda r: t * besselfn.phi(n, t * r)


def _psi_values(domain: SpectralDomain, t: float, q, lam: np.ndarray) -> np.ndarray:
    """psi_{q+2}(t lam) for every entry of lam; psi is odd, so sign(lam) psi_{q+2}(t |lam|)."""
    n = _bessel_index(domain, q) + 2
    return np.sign(lam) * _even_values(lambda r: besselfn.psi(n, t * r), lam)


def deformed_d(domain: SpectralDomain, t: float, u: Cochain, q: int | None = None) -> Cochain:
    """Bounded derivative d_t u = t phi_{q+2}(tD) d u; degree k -> k+1.

    Zero at t = 0; (1/t) d_t u converges to d u as t -> 0.
    """
    if u.degree >= domain.top_degree:
        raise ValueError(f"degree {u.degree} is the top of {domain.name}; d_t rejected")
    du = domain.cochain(u.degree + 1, domain.d_blocks[u.degree] @ u.coefficients)
    if t == 0.0:
        return domain.zero_cochain(u.degree + 1)
    return functional_calculus(domain, _bounded_profile(domain, t, q), du)


def deformed_d_adjoint(domain: SpectralDomain, t: float, w: Cochain, q: int | None = None) -> Cochain:
    """Adjoint d_t^* w = t phi_{q+2}(tD) d^* w; degree k -> k-1."""
    if w.degree < 1:
        raise ValueError("deformed_d_adjoint needs a cochain of degree >= 1")
    dstar = domain.cochain(w.degree - 1, domain.d_blocks[w.degree - 1].T @ w.coefficients)
    if t == 0.0:
        return domain.zero_cochain(w.degree - 1)
    return functional_calculus(domain, _bounded_profile(domain, t, q), dstar)


def deformed_dirac(domain: SpectralDomain, t: float, q: int | None = None) -> np.ndarray:
    """D_t = psi_{q+2}(tD) as a dense matrix; the zero matrix at t = 0."""
    return _dense(domain, _psi_values(domain, t, q, domain.eigenvalues))


def deformed_laplacian(domain: SpectralDomain, t: float, q: int | None = None) -> np.ndarray:
    """L_t = D_t^2, with eigenvalues psi_{q+2}(t lambda)^2."""
    return _dense(domain, _psi_values(domain, t, q, domain.eigenvalues) ** 2)


def deformed_dirac_norm(domain: SpectralDomain, t: float, q: int | None = None) -> float:
    """Operator norm of D_t, max_j |psi_{q+2}(t lambda_j)|."""
    return float(np.max(np.abs(_psi_values(domain, t, q, domain.eigenvalues)), initial=0.0))


def betti(
    domain: SpectralDomain,
    t: float,
    degree: int,
    q: int | None = None,
    tol: float | None = None,
) -> int:
    """Dimension of the near-kernel of L_t on one degree.

    L_t restricted to degree k is psi_{q+2}(t sqrt L_k)^2, so its spectrum
    is read off the Laplacian spectrum mu of that degree.  The default
    threshold is 1e-8 times the largest L_t eigenvalue over all degrees.  A
    spectral-gap guard rejects counts where any degree-k eigenvalue falls
    within a factor 10 of the threshold; if the whole deformed spectrum is
    numerically zero every mode is harmonic.
    """
    lam_max = float(np.max(_psi_values(domain, t, q, domain.eigenvalues) ** 2, initial=0.0))
    if lam_max < KERNEL_FLOOR:
        return domain.grading[degree]
    if tol is None:
        tol = 1e-8 * lam_max
    if tol <= 0:
        raise ValueError("tol must be positive")
    root = np.sqrt(np.maximum(spectrum_by_degree(domain, degree), 0.0))
    evals = _psi_values(domain, t, q, root) ** 2
    nearby = evals[(evals > tol / 10.0) & (evals < tol * 10.0)]
    if nearby.size:
        raise SpectralGapError(
            f"eigenvalues {nearby[:4]} sit within a factor 10 of the kernel threshold {tol:.3e}"
        )
    return int(np.sum(evals < tol))


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def symmetry_commutator(domain: SpectralDomain, unitary: np.ndarray, t: float, q: int | None = None) -> float:
    """|| U d_t - d_t U || for a unitary that commutes with d.

    The precondition || U d - d U || < 1e-10 is measured first and a
    violation is reported with the measured value.
    """
    unitary = np.asarray(unitary, dtype=float)
    d_full = domain.d_full()
    pre = float(np.linalg.norm(unitary @ d_full - d_full @ unitary, 2))
    if pre >= 1e-10:
        raise SymmetryPreconditionError(pre)
    dt_full = spectral_matrix(domain, _bounded_profile(domain, t, q)) @ d_full
    return float(np.linalg.norm(unitary @ dt_full - dt_full @ unitary, 2))


def _require_labels(domain: SpectralDomain) -> tuple[BasisLabel, ...]:
    if domain.labels is None:
        raise ValueError(f"domain {domain.name} carries no trigonometric basis labels")
    return domain.labels


def _label_index(domain: SpectralDomain) -> dict[BasisLabel, int]:
    return {lbl: i for i, lbl in enumerate(_require_labels(domain))}


def torus_translation(domain: SpectralDomain, shift) -> np.ndarray:
    """Pullback of x -> x + shift in the trig basis: per-mode rotations."""
    labels = _require_labels(domain)
    index = _label_index(domain)
    n = domain.total_dim
    u = np.zeros((n, n))
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    for i, lbl in enumerate(labels):
        if lbl.phase == "const":
            u[i, i] = 1.0
            continue
        angle = 2.0 * math.pi * float(np.dot(lbl.mode, shift))
        c, s = math.cos(angle), math.sin(angle)
        if lbl.phase == "cos":
            j = index[BasisLabel(lbl.degree, lbl.subset, "sin", lbl.mode)]
            # cos(w(x+a)) = cos a_w cos - sin a_w sin
            u[i, i] = c
            u[j, i] = -s
        else:
            j = index[BasisLabel(lbl.degree, lbl.subset, "cos", lbl.mode)]
            u[i, i] = c
            u[j, i] = s
    return u


def circle_translation(domain: SpectralDomain, shift: float) -> np.ndarray:
    """Rotation of the circle by `shift`, as the exact trig-basis unitary."""
    return torus_translation(domain, [shift])


def torus_quarter_turn(domain: SpectralDomain) -> np.ndarray:
    """Pullback of the isometry (x, y) -> (-y, x) on the 2-torus.

    Modes map as m -> (m_2, -m_1) (re-canonicalized with a sin sign flip),
    dx components land in -dy, dy components in dx, and the area form is
    fixed.  Exact signed permutation-rotation, so it commutes with d to
    machine precision.
    """
    if domain.q != 2:
        raise ValueError("quarter turn is defined for the 2-torus domains")
    labels = _require_labels(domain)
    index = _label_index(domain)
    n = domain.total_dim
    u = np.zeros((n, n))
    # component transport: (subset) -> (new subset, sign)
    comp_map = {(): ((), 1.0), (0,): ((1,), -1.0), (1,): ((0,), 1.0), (0, 1): ((0, 1), 1.0)}
    for i, lbl in enumerate(labels):
        new_subset, comp_sign = comp_map[lbl.subset]
        mode = (lbl.mode[1], -lbl.mode[0])
        lead = next((c for c in mode if c), 0)
        flip = lead < 0
        canon = tuple(-c for c in mode) if flip else mode
        if lbl.phase == "const":
            target = BasisLabel(lbl.degree, new_subset, "const", canon)
            u[index[target], i] = comp_sign
        elif lbl.phase == "cos":
            target = BasisLabel(lbl.degree, new_subset, "cos", canon)
            u[index[target], i] = comp_sign
        else:
            target = BasisLabel(lbl.degree, new_subset, "sin", canon)
            u[index[target], i] = -comp_sign if flip else comp_sign
    return u


# ---------------------------------------------------------------------------
# discrete wave map
# ---------------------------------------------------------------------------


def _wave_map(domain: SpectralDomain, h: float, q) -> tuple[np.ndarray, float]:
    """psi_{q+2}(h lambda) on the spectrum and the norm of D_h; needs ||D_h|| < 1."""
    a_vals = _psi_values(domain, h, q, domain.eigenvalues)
    norm = float(np.max(np.abs(a_vals), initial=0.0))
    if norm >= 1.0:
        raise WaveMapNormError(norm)
    return a_vals, norm


def discrete_wave_step(
    domain: SpectralDomain,
    h: float,
    u: np.ndarray,
    v: np.ndarray,
    q: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of T: (u, v) -> (D_h u - v, u); needs ||D_h|| < 1."""
    a_vals, _ = _wave_map(domain, h, q)
    return _dense(domain, a_vals) @ u - v, np.array(u)


def discrete_wave_orbit(
    domain: SpectralDomain,
    h: float,
    u: np.ndarray,
    v: np.ndarray,
    steps: int,
    q: int | None = None,
) -> dict:
    """Iterate T, tracking the max state norm along the orbit.

    Returns the orbit maximum, the final state and the rotation-conjugacy
    bound computed from the per-mode companion quadratic form
    Q_a(u, v) = u^2 - a u v + v^2, which every step preserves exactly.
    """
    a_vals, norm = _wave_map(domain, h, q)
    vecs = domain.eigenvectors
    uc, vc = vecs.T @ u, vecs.T @ v
    q_form = uc**2 - a_vals * uc * vc + vc**2
    bound = math.sqrt(float(np.sum(q_form / (1.0 - np.abs(a_vals) / 2.0))))
    dh = _dense(domain, a_vals)
    cu, cv = np.array(u, dtype=float), np.array(v, dtype=float)
    max_norm = math.sqrt(float(cu @ cu + cv @ cv))
    for _ in range(steps):
        cu, cv = dh @ cu - cv, cu
        max_norm = max(max_norm, math.sqrt(float(cu @ cu + cv @ cv)))
    return {"max_norm": max_norm, "bound": bound, "final": (cu, cv), "dirac_norm": norm}
