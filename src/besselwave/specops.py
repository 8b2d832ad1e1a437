"""Bounded functional calculus on spectral domains.

Every operator here is an even function g(sqrt L) of the Hodge Laplacian,
composed with d, d^* or D: the bounded derivative d_t = t phi_{q+2}(tD) d and
its adjoint, the norm of D_t, kernel (Betti) counting with a spectral-gap
guard, symmetry commutators and the norm-contractive discrete wave map; the
Bessel index is the domain's q.  `functional_calculus` applies g(sqrt L_k)
through the domain's `even_apply`, evaluating g once per distinct root of
the spectrum, so the result is even by construction and keeps its degree.
The profile phi_n(t r) of every operator comes from `_profile`, one
`besselfn.phi_array` call on the distinct roots of a request.
Every array here is per block, so none is N x N on a trig domain: d acts
through `apply_d`, and the commutator and the orbit act on the stacks.  A
symmetry is one `BlockMap` per stack (`domains.torus_pullback`).
"""

from __future__ import annotations

import math

import numpy as np

from . import besselfn
from .domains import BlockMap, Cochain, SpectralDomain, torus_pullback

__all__ = [
    "SpectralGapError",
    "SymmetryPreconditionError",
    "WaveMapNormError",
    "functional_calculus",
    "deformed_d",
    "deformed_d_adjoint",
    "deformed_dirac_norm",
    "betti",
    "betti_numbers",
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
    """The proposed symmetry does not commute with d to begin with."""

    def __init__(self, measured: float):
        self.measured = measured
        super().__init__(f"|| U d - d U || = {measured:.3e} violates the 1e-10 precondition")


class WaveMapNormError(ValueError):
    """The deformed Dirac norm is not strictly below one."""

    def __init__(self, measured: float):
        self.measured = measured
        super().__init__(f"discrete wave map needs ||D_h|| < 1, measured {measured:.6f}")


def _even_values(g, radii: np.ndarray) -> np.ndarray:
    """g(|x|) for every entry of radii, from one call of g on the array of distinct |x|."""
    radii = np.abs(radii)
    uniq = np.unique(radii)  # sorted, so searchsorted finds each radius in it
    vals = np.asarray(g(uniq), dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("scalar function is not finite on the spectrum")
    return vals[uniq.searchsorted(radii)]


def _profile(n: int, t: float, radii: np.ndarray) -> np.ndarray:
    """phi_n(t r) for every entry r of radii, from one besselfn.phi_array call on the distinct t |r|.

    This is the calculus's one profile: d_t, the wave families and the probe multipliers all come from here.
    """
    if not math.isfinite(t):  # t * 0 would be NaN
        raise ValueError(f"deformation parameter t must be finite, got {t}")
    return _even_values(lambda r: besselfn.phi_array(n, t * r), radii)


def _roots(domain: SpectralDomain, k: int) -> np.ndarray:
    """The |lambda| of D on degree k: sqrt(mu) over the Laplacian spectrum of that degree, rounded to 12 decimals.

    On a simplicial domain eigh resolves mu only to about n eps max(mu) (a
    trig spectrum is exact), and the root of that noise is ~1e-8 of the
    largest |lambda|, which a function of |lambda| that is not smooth in mu
    (the orbit weight |psi|) would see.  Every mu below
    ROOT_FLOOR * max(1, max mu) is therefore an exact zero.
    """
    mu = domain.laplacian_spectrum(k)
    floor = ROOT_FLOOR * max(1.0, float(mu.max())) if mu.size else 0.0
    return np.round(np.sqrt(np.where(mu > floor, mu, 0.0)), 12)


def functional_calculus(domain: SpectralDomain, g, u: Cochain) -> Cochain:
    """g(sqrt L) u for a pure-degree cochain u; the result has u's degree.

    Costs O(n_k) on a trig domain and O(n_k^2) on a simplicial one.
    """
    vals = _even_values(lambda roots: [g(float(r)) for r in roots], _roots(domain, u.degree))
    return Cochain(u.degree, domain.even_apply(u.degree, vals, u.coefficients))


def _deformed_values(domain: SpectralDomain, t: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """psi_{q+2}(t sqrt mu_k) and t phi_{q+2}(t sqrt mu_k) for every degree k.

    |psi_{q+2}(t |lambda|)| are the singular values of D_t, so they carry its
    norm and, squared, the spectrum of L_t on each degree; t phi_{q+2} is the
    even factor of D_t = D t phi_{q+2}(t|D|).  phi is evaluated once per
    distinct root over all degrees.
    """
    roots = [_roots(domain, k) for k in range(domain.top_degree + 1)]
    radii, cuts = np.concatenate(roots), np.cumsum([r.size for r in roots])[:-1]
    phi = _profile(domain.q + 2, t, radii)
    # psi_n(x) = x phi_n(x) with x = t r formed first, as besselfn.psi evaluates it
    return np.split(t * radii * phi, cuts), np.split(t * phi, cuts)


def deformed_d(domain: SpectralDomain, t: float, u: Cochain) -> Cochain:
    """Bounded derivative d_t u = t phi_{q+2}(tD) d u; degree k -> k+1.

    Zero at t = 0; (1/t) d_t u converges to d u as t -> 0.
    """
    if u.degree >= domain.top_degree:
        raise ValueError(f"degree {u.degree} is the top of {domain.name}; d_t rejected")
    return _bounded(domain, t, u.degree + 1, domain.apply_d(u.degree, u.coefficients))


def deformed_d_adjoint(domain: SpectralDomain, t: float, w: Cochain) -> Cochain:
    """Adjoint d_t^* w = t phi_{q+2}(tD) d^* w; degree k -> k-1."""
    if w.degree < 1:
        raise ValueError("deformed_d_adjoint needs a cochain of degree >= 1")
    return _bounded(domain, t, w.degree - 1, domain.apply_d_adjoint(w.degree - 1, w.coefficients))


def _bounded(domain: SpectralDomain, t: float, k: int, x: np.ndarray) -> Cochain:
    """t phi_{q+2}(t sqrt L_k) x for x of degree k."""
    return Cochain(k, domain.even_apply(k, t * _profile(domain.q + 2, t, _roots(domain, k)), x))


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
    return _kernel_dims(domain, t, [degree], tol)[0]


def betti_numbers(domain: SpectralDomain, t: float, tol: float | None = None) -> list[int]:
    """betti(domain, t, k) for every degree k, from one evaluation of the profile."""
    return _kernel_dims(domain, t, range(domain.top_degree + 1), tol)


def _kernel_dims(domain: SpectralDomain, t: float, degrees, tol: float | None) -> list[int]:
    if tol is not None and not tol > 0:
        raise ValueError("tol must be positive")
    degrees = [domain.check_degree(k) for k in degrees]
    psi, _ = _deformed_values(domain, t)
    lam_max = _max_abs(psi) ** 2
    if lam_max < KERNEL_FLOOR:
        return [domain.grading[k] for k in degrees]
    if tol is None:
        tol = 1e-8 * lam_max
    dims = []
    for k in degrees:
        evals = psi[k] ** 2
        nearby = evals[(evals > tol / 10.0) & (evals < tol * 10.0)]
        if nearby.size:
            raise SpectralGapError(
                f"eigenvalues {np.sort(nearby)[:4]} sit within a factor 10 of the kernel threshold {tol:.3e}"
            )
        dims.append(int(np.sum(evals < tol)))
    return dims


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def symmetry_commutator(domain: SpectralDomain, symmetry, t: float) -> float:
    """|| U d_t - d_t U || for a symmetry U given as one `BlockMap` (image, blocks) per stack of the domain.

    U takes block b to block image[b] through blocks[k][b] on degree k, so the
    commutator takes block b of degree k to block image[b] of degree k+1 only,
    through U_{k+1} X_k - X_k[image] U_k (X_k = d_k for the precondition,
    t phi_{q+2}(t sqrt L_{k+1}) d_k for d_t).  image is a permutation, so the
    2-norm is the largest over these blocks, exactly.  A precondition
    || U d - d U || of 1e-10 or more is reported with the measured value.
    """
    maps = [BlockMap(np.asarray(image), [np.asarray(b, dtype=float) for b in blocks]) for image, blocks in symmetry]
    shapes = [(m.image.shape, [b.shape for b in m.blocks]) for m in maps]
    want = [((len(s.index[0]),), [i.shape + i.shape[1:] for i in s.index]) for s in domain.stacks]
    if shapes != want or any(not np.array_equal(np.sort(m.image), np.arange(len(m.image))) for m in maps):
        raise ValueError(f"a symmetry on {domain.name} needs one block map per stack, a permutation image "
                         f"and one square block per block and degree, shapes {want}; got {shapes}")
    pre = _commutator_norm(maps, [s.d for s in domain.stacks])
    if pre >= 1e-10:
        raise SymmetryPreconditionError(pre)
    _, g = _deformed_values(domain, t)  # d_t = g(|D|) d, block by block
    return _commutator_norm(maps, [[s.even(k + 1, g[k + 1], d) for k, d in enumerate(s.d)] for s in domain.stacks])


def _commutator_norm(maps, pieces) -> float:
    worst = 0.0
    for (image, blocks), xs in zip(maps, pieces):
        for k, x in enumerate(xs):
            comm = blocks[k + 1] @ x - x[image] @ blocks[k]
            worst = max(worst, float(np.max(np.linalg.norm(comm, 2, axis=(1, 2)))))
    return worst


def torus_translation(domain: SpectralDomain, shift) -> tuple[BlockMap, ...]:
    """Pullback of x -> x + shift in the trig basis: every mode block keeps its place and rotates."""
    return torus_pullback(domain, tuple(range(domain.q)), (1,) * domain.q, shift)


def torus_quarter_turn(domain: SpectralDomain) -> tuple[BlockMap, ...]:
    """Pullback of (x, y) -> (-y, x) on the 2-torus: m -> (m_2, -m_1), dx -> -dy, dy -> dx."""
    return torus_pullback(domain, (1, 0), (-1, 1), (0.0, 0.0))


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
    cu, cv = np.array(u, dtype=float), np.array(v, dtype=float)
    weight = [1.0 / (1.0 - np.abs(a) / 2.0) for a in psi]
    gu, gv = (np.concatenate([domain.even_apply(k, g, x[domain.degree_slice(k)]) for k, g in enumerate(weight)])
              for x in (cu, cv))
    pos, dh = _block_dirac(domain, profile)
    su, sv, sg = (np.append(x, 0.0)[pos][..., None] for x in (cu, cv, gv))  # one (W, 1) column per block
    bound = math.sqrt(float(cu @ gu + cv @ gv - np.vdot(su, dh @ sg)))
    sq_u, sq_v = float(cu @ cu), float(cv @ cv)
    max_norm = math.sqrt(sq_u + sq_v)
    for _ in range(steps):
        su, sv = dh @ su - sv, su
        sq_u, sq_v = float(np.vdot(su, su)), sq_u
        max_norm = max(max_norm, math.sqrt(sq_u + sq_v))
    final = np.empty((2, domain.total_dim + 1))
    final[:, pos] = su[..., 0], sv[..., 0]
    return {"max_norm": max_norm, "bound": bound, "final": (final[0, :-1], final[1, :-1]), "dirac_norm": norm}


def _block_dirac(domain: SpectralDomain, profile: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """D t phi_{q+2}(t|D|) as one (M, W, W) matrix per block of every stack, and the (M, W) positions of its entries.

    A block narrower than the widest is padded with zero rows and columns
    at position N, so one batched product applies the whole operator.
    """
    width = max(sum(i.shape[1] for i in s.index) for s in domain.stacks)
    positions, mats = [], []
    for s in domain.stacks:
        order = np.concatenate([domain.offsets[k] + i for k, i in enumerate(s.index)], axis=1)
        edge = np.cumsum([0] + [i.shape[1] for i in s.index])
        dh = np.zeros((len(order), width, width))
        for k, d in enumerate(s.d):
            dh[:, edge[k + 1] : edge[k + 2], edge[k] : edge[k + 1]] = s.even(k + 1, profile[k + 1], d)
        positions.append(np.pad(order, ((0, 0), (0, width - order.shape[1])), constant_values=domain.total_dim))
        mats.append(dh + np.swapaxes(dh, 1, 2))
    return np.concatenate(positions), np.concatenate(mats)
