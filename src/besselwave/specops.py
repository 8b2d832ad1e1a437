"""Bounded functional calculus on spectral domains.

Every operator here is an even function g(sqrt L) of the Hodge Laplacian,
composed with d, d^* or D: the bounded derivative d_t = t phi_{q+2}(tD) d and
its adjoint, the norm of D_t, kernel (Betti) counting with a spectral-gap
guard, symmetry commutators and the norm-contractive discrete wave map; the
Bessel index is the domain's q.  Each reads its values by index on the domain's `roots`, the distinct
|lambda| = sqrt(mu) of all degrees.  d_t is formed once: first the table, `_deformed_table`, the one
`_profile` call (one `besselfn.phi_array` call) on the roots, then its block pieces t phi_{q+2}(t sqrt L_{k+1}) d_k,
`_deformed_pieces`, which the commutator and the orbit's `D_h` share.  `functional_calculus` runs g on the
roots of u's degree through `even_apply`, so its result is even by construction and keeps its degree.  The
norm of D_t and the Betti threshold read their maximum off the table; each degree gathers its own entries.
Every array here is per block, so none is N x N on a trig domain: d acts
through `apply_d`, and the commutator and the orbit act on the stacks; the
orbit's `D_h`, N x N on a simplicial complex, is charged against the size cap
before it is allocated.  A symmetry is one `BlockMap` per stack (`domains.torus_pullback`).
"""

from __future__ import annotations

import math

import numpy as np

from . import besselfn
from .domains import BlockMap, Cochain, SpectralDomain, _require_bytes, torus_pullback

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
    "require_orbit_bytes",
]

KERNEL_FLOOR = 1e-24


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


def _profile(n: int, t, radii: np.ndarray) -> np.ndarray:
    """phi_n(t r) for every entry r of radii, at one time t or in one row per time of a 1-D array t,
    from one besselfn.phi_array call on exactly those radii and times.

    This is the calculus's one profile: d_t, the wave families and the probe multipliers all come from here,
    each caller passing distinct radii (a domain's `roots`, the probe's |m|^2 levels), so phi runs once per root.
    """
    if not np.isfinite(t).all():  # t * 0 would be NaN
        raise ValueError(f"deformation parameter t must be finite, got {t}")
    return besselfn.phi_array(n, np.multiply.outer(t, radii))


def functional_calculus(domain: SpectralDomain, g, u: Cochain) -> Cochain:
    """g(sqrt L) u for a pure-degree cochain u; the result has u's degree.

    g runs once on each root of `laplacian_spectrum(u.degree)`.  Costs O(n_k) on a trig domain, O(n_k^2) on a complex.
    """
    radii, index = domain.roots
    at = index[domain.check_degree(u.degree)]
    used, vals = np.bincount(at, minlength=radii.size) > 0, np.zeros(radii.size)
    vals[used] = [g(float(r)) for r in radii[used]]
    if not np.isfinite(vals).all():
        raise ValueError("scalar function is not finite on the spectrum")
    return Cochain(u.degree, domain.even_apply(u.degree, vals[at], u.coefficients))


def _deformed_table(domain: SpectralDomain, t: float) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """psi_{q+2}(t r) and t phi_{q+2}(t r) on the domain's root table r, and each degree's index into it.

    |psi_{q+2}(t |lambda|)| are the singular values of D_t, so they carry its
    norm and, squared, the spectrum of L_t on each degree; t phi_{q+2} is the
    even factor of D_t = D t phi_{q+2}(t|D|).  phi is evaluated once on the
    table, which holds every root of every degree, so a maximum over all
    degrees is a maximum over the table.
    """
    radii, index = domain.roots
    phi = _profile(domain.q + 2, t, radii)
    # psi_n(x) = x phi_n(x) with x = t r formed first, as besselfn.psi evaluates it
    return t * radii * phi, t * phi, index


def _deformed_pieces(domain: SpectralDomain, even: np.ndarray, index) -> list[list[np.ndarray]]:
    """d_t's pieces t phi_{q+2}(t sqrt L_{k+1}) d_k, one list over k per stack, from `_deformed_table`."""
    return [[s.even(k + 1, even[index[k + 1]], d) for k, d in enumerate(s.d)] for s in domain.stacks]


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
    _, even, index = _deformed_table(domain, t)
    return Cochain(k, domain.even_apply(k, even[index[k]], x))


def deformed_dirac_norm(domain: SpectralDomain, t: float) -> float:
    """Operator norm of D_t, max over degrees of |psi_{q+2}(t sqrt mu_k)|."""
    return _max_abs(_deformed_table(domain, t)[0])


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


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
    psi, _, index = _deformed_table(domain, t)
    lam_max = _max_abs(psi) ** 2
    if lam_max < KERNEL_FLOOR:
        return [domain.grading[k] for k in degrees]
    if tol is None:
        tol = 1e-8 * lam_max
    dims = []
    for k in degrees:
        evals = psi[index[k]] ** 2
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
    return _commutator_norm(maps, _deformed_pieces(domain, *_deformed_table(domain, t)[1:]))


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
    psi, even, index = _deformed_table(domain, h)
    norm = _max_abs(psi)
    if norm >= 1.0:
        raise WaveMapNormError(norm)
    cu, cv = np.array(u, dtype=float), np.array(v, dtype=float)
    weight = 1.0 / (1.0 - np.abs(psi) / 2.0)
    gu, gv = (np.concatenate([domain.even_apply(k, weight[i], x[domain.degree_slice(k)])
                              for k, i in enumerate(index)]) for x in (cu, cv))
    pos, dh = _block_dirac(domain, _deformed_pieces(domain, even, index))
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


def require_orbit_bytes(name: str, n: int, blocks: int, width: int) -> None:
    """Refuse the wave orbit on an N-dimensional domain whose D_h is `blocks` (width, width) matrices, 16 M W^2 bytes."""
    _require_bytes(f"the wave orbit on {name} (N = {n})", 16 * blocks * width * width)


def _block_dirac(domain: SpectralDomain, pieces) -> tuple[np.ndarray, np.ndarray]:
    """D t phi_{q+2}(t|D|) as one (M, W, W) matrix per block of every stack, and the (M, W) positions of its entries.

    d_t's pieces (`_deformed_pieces`) and their transposes are scattered into it.  A block narrower than the
    widest is padded with zero rows and columns at position N, so one batched product applies the whole
    operator.  It is charged 16 M W^2 bytes before it is allocated; the pieces have d's shape, charged by the build.
    """
    width = max(sum(i.shape[1] for i in s.index) for s in domain.stacks)
    blocks = sum(len(s.index[0]) for s in domain.stacks)
    require_orbit_bytes(domain.name, domain.total_dim, blocks, width)
    dh, pos = np.zeros((blocks, width, width)), np.full((blocks, width), domain.total_dim)
    first = 0
    for s, xs in zip(domain.stacks, pieces):
        rows, edge = slice(first, first + len(s.index[0])), np.cumsum([0] + [i.shape[1] for i in s.index])
        for k, i in enumerate(s.index):
            pos[rows, edge[k] : edge[k + 1]] = domain.offsets[k] + i
            if k:  # the piece from degree k - 1 to k, a -0.0 read as 0.0 as in D + D^T, and its transpose
                low = dh[rows, edge[k] : edge[k + 1], edge[k - 1] : edge[k]]
                np.add(xs[k - 1], 0.0, out=low)
                dh[rows, edge[k - 1] : edge[k], edge[k] : edge[k + 1]] = np.swapaxes(low, 1, 2)
        first = rows.stop
    return pos, dh
