"""Discrete spectral domains: graded cochain spaces held as stacks of small independent complexes.

Trig k-forms on the unit circle (q = 1) and the flat unit q-tori come from
one builder; simplicial complexes carry signed incidence matrices.  The
basis is orthonormal, so adjoints are transposes.  Nothing couples two
blocks of a domain: a trig domain is one complex per canonical mode m plus
the constant mode, a simplicial complex is one block.  Blocks of one shape
form a `Stack`, and d, its adjoint, the even calculus g(sqrt L_k) of
`even_apply` and the isometries of `torus_pullback` act stack by stack.  A
trig domain knows its spectrum mu = 4 pi^2 |m|^2 by construction; a simplicial
one eigensolves the smaller Gram matrix of each d_k, its harmonic zeros exact by
construction, so every spectrum is >= 0 and |lambda| = sqrt(mu), tabled once in `roots` for every operator.
Every request, the wave orbit's N x N `D_h` on a complex too, is charged against
one byte budget by `_require_bytes` before anything of its size is allocated.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

__all__ = [
    "DomainSizeError",
    "ComplexClosureError",
    "Cochain",
    "Stack",
    "BlockMap",
    "SpectralDomain",
    "SimplicialComplex",
    "build_circle_domain",
    "build_torus_domain",
    "build_simplicial_domain",
    "torus_pullback",
    "spectrum_by_degree",
    "domain_spectra_json",
]

EIGEN_RESIDUAL_BOUND = 1e-10
ZERO_EIGEN_FLOOR = 1e-12  # the rank threshold of d_k: eigh resolves a zero s^2 only to ~n eps max s^2
# The one byte budget: a complex's incidence, Gram matrices and W_k (the 33 x 33 torus fits), and the wave
# orbit's padded per-block D_h with its symmetric sum, 16 M W^2 (orbits on torus complexes from 27 x 27 up fail).
SIZE_CAP_BYTES = 2**28

# phase is "const", "cos" or "sin"; mode is a frequency vector; subset is the
# ordered axis tuple of the form component.
BasisLabel = namedtuple("BasisLabel", "degree subset phase mode")

# One stack's part of a degree-preserving map: block b goes to block image[b]
# through blocks[k][b] on degree k.  A symmetry is one BlockMap per stack.
BlockMap = namedtuple("BlockMap", "image blocks")


class DomainSizeError(ValueError):
    """Requested domain or grid exceeds its configured size cap."""


class ComplexClosureError(ValueError):
    """Simplicial input is not closed under taking faces."""


def _require_bytes(what: str, nbytes: int) -> None:
    """Refuse `what` with a DomainSizeError naming nbytes when it needs more than SIZE_CAP_BYTES."""
    if nbytes > SIZE_CAP_BYTES:
        raise DomainSizeError(f"{what} needs {nbytes} bytes, above the cap of {SIZE_CAP_BYTES} bytes")


@dataclass(frozen=True)
class Cochain:
    """Coefficient vector of a form in a domain basis, tagged with its degree."""

    degree: int
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


@dataclass(frozen=True)
class Stack:
    """B blocks of one shape, none coupled to another.

    index[k] is (B, w_k), the positions in degree k of each block's degree-k
    basis; d[k] is (B, w_{k+1}, w_k), each block's piece of d_k; basis[k] is
    (B, w_k, r_k), orthonormal eigenvectors of L_k for the first r_k entries of
    the degree's spectrum, the rest being 0, or None where the basis
    diagonalizes L_k; modes is the (B, q) frequencies of a trig stack.
    """

    index: tuple[np.ndarray, ...]
    d: tuple[np.ndarray, ...]
    basis: tuple[np.ndarray | None, ...]
    modes: np.ndarray | None = None

    def even(self, k: int, values: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """g(sqrt L_k) on block operands xb, (B, w_k, cols), from the degree's values = g(sqrt mu_k).

        c x + W ((v - c) W^T x) over W's r_k columns, with c the degree's last value: g(0) where W is
        not square, as that spectrum ends in zeros, and any c where W W^T = 1, giving W v W^T x.
        """
        v, w = values[self.index[k]][..., None], self.basis[k]
        if w is None:
            return v * xb
        c = v[:, -1:]
        return c * xb + w @ ((v[:, :w.shape[2]] - c) * (np.swapaxes(w, 1, 2) @ xb))


@dataclass(frozen=True)
class SpectralDomain:
    """Graded complex held as stacks of blocks, with an even functional calculus per degree.

    grading[k] is the dimension of the degree-k cochain space; spectra[k]
    is mu_k, the spectrum of L_k in the order `even_apply` reads it (basis
    order on a trig domain, the order of `Stack.basis` on a simplicial one).
    """

    name: str
    q: int
    grading: tuple[int, ...]
    stacks: tuple[Stack, ...]
    spectra: tuple[np.ndarray, ...]

    @property
    def total_dim(self) -> int:
        return int(sum(self.grading))

    @property
    def top_degree(self) -> int:
        return len(self.grading) - 1

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(int(x) for x in np.cumsum((0,) + self.grading[:-1]))

    def check_degree(self, k: int) -> int:
        if not 0 <= k <= self.top_degree:
            raise ValueError(f"degree {k} out of range 0..{self.top_degree} for {self.name}")
        return k

    def degree_slice(self, k: int) -> slice:
        return slice(self.offsets[self.check_degree(k)], self.offsets[k] + self.grading[k])

    def cochain(self, degree: int, coefficients) -> Cochain:
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self.grading[self.check_degree(degree)],):
            raise ValueError(f"degree-{degree} cochain needs {self.grading[degree]} coefficients, "
                             f"got shape {coefficients.shape}")
        return Cochain(degree, coefficients)

    def zero_cochain(self, degree: int) -> Cochain:
        return Cochain(degree, np.zeros(self.grading[self.check_degree(degree)]))

    def embed(self, c: Cochain) -> np.ndarray:
        vec = np.zeros(self.total_dim)
        vec[self.degree_slice(c.degree)] = c.coefficients
        return vec

    @cached_property
    def roots(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The distinct |lambda| = sqrt(mu) over every degree, ascending, and each degree's index into them; read-only."""
        radii, index = np.unique(np.sqrt(np.concatenate(self.spectra)), return_inverse=True)
        radii.setflags(write=False), index.setflags(write=False)
        return radii, tuple(np.split(index, self.offsets[1:]))

    def laplacian_spectrum(self, k: int) -> np.ndarray:
        """mu_k, the eigenvalues of L_k in the order `even_apply` reads them; read-only."""
        return self.spectra[self.check_degree(k)]

    def even_apply(self, k: int, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """g(sqrt L_k) x from values = g(sqrt mu_k); x is a degree-k vector or has n_k rows."""
        values = np.asarray(values)
        if all(s.basis[self.check_degree(k)] is None for s in self.stacks):  # the basis diagonalizes L_k
            return (values[:, None] * self._rows(k, x)).reshape(np.shape(x))
        return self._blockwise(k, k, x, lambda s, xb: s.even(k, values, xb))

    def apply_d(self, k: int, x: np.ndarray) -> np.ndarray:
        """d_k x for x of degree k (a vector or n_k rows); the result has degree k + 1."""
        return self._blockwise(k, k + 1, x, lambda s, xb: s.d[k] @ xb)

    def apply_d_adjoint(self, k: int, y: np.ndarray) -> np.ndarray:
        """d_k^T y for y of degree k + 1 (a vector or n_{k+1} rows); the result has degree k."""
        return self._blockwise(k + 1, k, y, lambda s, yb: np.swapaxes(s.d[k], 1, 2) @ yb)

    def _rows(self, k: int, x) -> np.ndarray:
        if np.shape(x)[:1] != (self.grading[self.check_degree(k)],):
            raise ValueError(f"degree-{k} operand needs {self.grading[k]} rows, got shape {np.shape(x)}")
        return np.reshape(x, (self.grading[k], -1))

    def _blockwise(self, src: int, dst: int, x, op) -> np.ndarray:
        """op(stack, x[index[src]]) scattered to index[dst], one batched call per stack; the blocks tile each degree."""
        flat = self._rows(src, x)
        out = np.empty((self.grading[self.check_degree(dst)], flat.shape[1]))
        for s in self.stacks:
            out[s.index[dst]] = op(s, flat[s.index[src]])
        return out.reshape((self.grading[dst],) + np.shape(x)[1:])

    # Dense views, computed on first access for the benchmark and the test oracles.

    @cached_property
    def d_blocks(self) -> tuple[np.ndarray, ...]:
        """d_k as dense n_{k+1} x n_k matrices."""
        out = tuple(np.zeros((self.grading[k + 1], self.grading[k])) for k in range(self.top_degree))
        for k, blk in enumerate(out):
            for s in self.stacks:
                blk[s.index[k + 1][:, :, None], s.index[k][:, None, :]] = s.d[k]
        return out

    @cached_property
    def dirac(self) -> np.ndarray:
        """The stacked symmetric Dirac matrix D = d + d^T, N x N; its strict lower triangle is d."""
        low = np.zeros((self.total_dim, self.total_dim))
        for k, blk in enumerate(self.d_blocks):
            low[self.degree_slice(k + 1), self.degree_slice(k)] = blk
        return low + low.T

    @cached_property
    def _dirac_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.dirac)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the dense Dirac matrix, ascending (an N x N eigensolve on first access)."""
        return self._dirac_eigh[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors of the dense Dirac matrix, one per column."""
        return self._dirac_eigh[1]

    @cached_property
    def labels(self) -> tuple[BasisLabel, ...] | None:
        """One BasisLabel per basis vector of a trig domain, in basis order; None on a simplicial one."""
        modes = self.stacks[-1].modes
        if modes is None:
            return None
        scalars = [("const", (0,) * self.q)] + [(p, m) for m in map(tuple, modes.tolist()) for p in ("cos", "sin")]
        return tuple(BasisLabel(k, s, p, m) for k in range(self.q + 1)
                     for s in combinations(range(self.q), k) for p, m in scalars)


def _assemble(name, q, grading, stacks, spectra) -> SpectralDomain:
    # d_{k+1} d_k must vanish block by block; exact for integer incidence, ~1e-13 for trig.
    for k in range(len(grading) - 2):
        worst = max(float(np.max(np.abs(s.d[k + 1] @ s.d[k]), initial=0.0)) for s in stacks)
        if worst > 1e-12 * max(1.0, *(float(np.max(np.abs(s.d[k]), initial=0.0)) for s in stacks)):
            raise AssertionError(f"d o d = {worst} on degree {k} of {name}")
    for mu in spectra:
        mu.setflags(write=False)
    return SpectralDomain(name, q, tuple(int(g) for g in grading), tuple(stacks), tuple(spectra))


# ---------------------------------------------------------------------------
# trigonometric domains: the circle and the flat tori
# ---------------------------------------------------------------------------


def _canonical_modes(q: int, max_freq: int) -> np.ndarray:
    """One representative per +-m pair of nonzero modes (first nonzero entry > 0), (B, q), lexicographic."""
    box = np.indices((2 * max_freq + 1,) * q).reshape(q, -1).T - max_freq
    return box[box[np.arange(len(box)), np.argmax(box != 0, axis=1)] > 0]


def _exterior(q: int, k: int) -> np.ndarray:
    """dx_a ^ from k- to (k+1)-forms, one C(q, k+1) x C(q, k) matrix per axis a: (-1)^i where a is S'[i]."""
    cols = {s: i for i, s in enumerate(combinations(range(q), k))}
    out = np.zeros((q, math.comb(q, k + 1), len(cols)))
    for r, s in enumerate(combinations(range(q), k + 1)):
        for i, a in enumerate(s):
            out[a, r, cols[s[:i] + s[i + 1 :]]] = -1.0 if i % 2 else 1.0
    return out


def _trig_domain(name: str, q: int, max_freq: int) -> SpectralDomain:
    """Band-limited trig forms on the flat unit q-torus; q = 1 is the circle.

    Each form component has the scalar basis {1, sqrt2 cos 2 pi m.x,
    sqrt2 sin 2 pi m.x} over the canonical modes m.  On the block of m,
    d_k = sum_a 2 pi m_a (dx_a ^) (x) J with J (cos, sin) = (-sin, cos), and
    L_k = 4 pi^2 |m|^2; the constant mode is one block with d = 0.
    """
    if max_freq < 1:
        raise ValueError("max_freq must be >= 1")
    _require_bytes(  # the wave orbit's D_h, each mode's block padded to 2^(q+1) wide, and its symmetric sum
        f"{name} at max_freq={max_freq}", 16 * (((2 * max_freq + 1) ** q + 1) // 2) * 4 ** (q + 1))
    modes = _canonical_modes(q, max_freq)
    n_scalar = 1 + 2 * len(modes)
    widths = [math.comb(q, k) for k in range(q + 1)]

    def stack(ms, first, phases):  # each mode's cos (and sin) in every component, component-major
        jay = np.array([[0.0, 1.0], [-1.0, 0.0]])[:phases, :phases]
        index = [np.arange(w)[:, None] * n_scalar + first[:, None, None] + np.arange(phases) for w in widths]
        d = [2.0 * math.pi * ms @ np.kron(_exterior(q, k), jay).reshape(q, -1) for k in range(q)]
        d = [x.reshape(len(ms), phases * widths[k + 1], -1) for k, x in enumerate(d)]
        return Stack(tuple(i.reshape(len(ms), -1) for i in index), tuple(d), (None,) * (q + 1), ms)

    stacks = (stack(np.zeros((1, q), dtype=int), np.zeros(1, dtype=int), 1),
              stack(modes, 1 + 2 * np.arange(len(modes)), 2))
    mu_scalar = 4.0 * math.pi**2 * np.concatenate([[0.0], np.repeat(np.sum(modes * modes, axis=1), 2)])
    return _assemble(name, q, [w * n_scalar for w in widths], stacks, [np.tile(mu_scalar, w) for w in widths])


def build_circle_domain(max_freq: int) -> SpectralDomain:
    """Unit circle: 0- and 1-forms over {1, sqrt2 cos 2 pi k x, sqrt2 sin 2 pi k x}.

    Dirac eigenvalues are {0, 0} plus +-2 pi k, each twice.
    """
    return _trig_domain("circle", 1, max_freq)


def build_torus_domain(q: int, max_freq: int) -> SpectralDomain:
    """Full graded complex of band-limited trig forms on the flat unit q-torus, q >= 1; its wave orbit fits the cap."""
    if q < 1:
        raise ValueError(f"a torus needs q >= 1, got {q}")
    return _trig_domain(f"torus{q}", q, max_freq)


def torus_pullback(domain: SpectralDomain, axes, signs, shift) -> tuple[BlockMap, ...]:
    """Pullback of the torus isometry x -> A x + shift, (A x)_i = signs[i] x_{axes[i]}, block by block.

    dx_a pulls back to signs[a] dx_{axes[a]}: on k-forms that is Lambda^k(P),
    the k x k minors of P[axes[a], a] = signs[a].  The block of mode m goes
    to that of P m, negated back where its first nonzero entry turns
    negative; R(m) rotates its (cos, sin) by 2 pi m.shift and flips sin on
    a negated mode.  A block's matrix on degree k is Lambda^k(P) (x) R(m).
    """
    q = domain.q
    if len(axes) != q or domain.stacks[-1].modes is None:
        raise ValueError(f"no pullback of a {len(axes)}-torus isometry on the {domain.name} domain")
    if sorted(axes) != list(range(q)) or len(signs) != q or any(s not in (-1, 1) for s in signs):
        raise ValueError(f"axes {axes} with signs {signs} is not a signed permutation of {q} axes")
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.shape != (q,) or not np.all(np.isfinite(shift)):
        raise ValueError(f"shift must be {q} finite numbers, got {shift.tolist()}")
    perm = np.zeros((q, q), dtype=int)
    perm[list(axes), range(q)] = signs
    forms = [np.array([[np.linalg.det(perm[np.ix_(r, c)]) for c in subsets] for r in subsets])
             for subsets in (list(combinations(range(q), k)) for k in range(q + 1))]
    maps = []
    for s in domain.stacks:
        pulled = s.modes @ perm.T
        flip = np.where(pulled[np.arange(len(pulled)), np.argmax(pulled != 0, axis=1)] < 0, -1, 1)
        f = int(np.abs(s.modes).max())
        keys = [np.ravel_multi_index((m + f).T, (2 * f + 1,) * q) for m in (s.modes, flip[:, None] * pulled)]
        angle = 2.0 * math.pi * (s.modes @ shift)
        c, sn = np.cos(angle), np.sin(angle)
        width = s.index[0].shape[1]  # (cos, sin), or the constant mode alone, where cos 0 = 1
        rot = np.stack([c, sn, -flip * sn, flip * c], axis=-1).reshape(-1, 2, 2)[:, :width, :width]
        maps.append(BlockMap(np.searchsorted(*keys), tuple(
            np.einsum("ij,bkl->bikjl", lam, rot).reshape(len(rot), len(lam) * width, -1) for lam in forms)))
    return tuple(maps)


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


def _vertex(v) -> int:
    """A vertex id as an int, by operator.index (numpy integers pass); bools and fractional ids raise."""
    if isinstance(v, bool) or not hasattr(type(v), "__index__"):
        raise ValueError(f"vertex ids must be integers, got {v!r}")
    return operator.index(v)


class SimplicialComplex:
    """Finite abstract simplicial complex with sorted-vertex orientation."""

    def __init__(self, simplices):
        seen = set()
        for s in simplices:
            s = tuple(sorted(_vertex(v) for v in s))
            if not s or len(set(s)) != len(s):
                raise ValueError(f"bad simplex {s}")
            seen.add(s)
        if not seen:
            raise ValueError("empty complex")
        for s in sorted(seen, key=len, reverse=True):
            if len(s) == 1:
                continue
            for face in combinations(s, len(s) - 1):
                if face not in seen:
                    raise ComplexClosureError(f"complex is not downward closed: face {face} of {s} is missing")
        self.by_dim = [sorted(s for s in seen if len(s) == k + 1) for k in range(max(map(len, seen)))]

    @classmethod
    def from_maximal(cls, faces) -> "SimplicialComplex":
        closed = set()
        for f in faces:
            f = tuple(sorted(_vertex(v) for v in f))
            for size in range(1, len(f) + 1):
                closed.update(combinations(f, size))
        return cls(closed)

    @classmethod
    def from_json(cls, source) -> "SimplicialComplex":
        """Accepts a dict, a JSON string, or a path to a JSON file."""
        payload = source
        if not isinstance(source, dict):
            text = str(source)
            if not text.lstrip().startswith("{"):
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            payload = json.loads(text)
        if not isinstance(payload, dict) or "simplices" not in payload:
            raise ValueError('JSON complex must be an object with a "simplices" key')
        simplices = payload["simplices"]
        if not isinstance(simplices, list) or not all(isinstance(s, list) for s in simplices):
            raise ValueError('"simplices" must be a list of vertex lists')
        return cls(simplices)

    def to_json(self) -> dict:
        return {"simplices": [list(s) for layer in self.by_dim for s in layer]}

    @property
    def top_dimension(self) -> int:
        return len(self.by_dim) - 1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.by_dim)

    def incidence(self, k: int) -> np.ndarray:
        """Signed coboundary from k-simplices to (k+1)-simplices.

        Entry is (-1)^i when deleting the i-th vertex of the larger simplex
        gives the smaller one; exact integers, so d o d = 0 exactly.
        """
        rows = {s: i for i, s in enumerate(self.by_dim[k + 1])}
        cols = {s: i for i, s in enumerate(self.by_dim[k])}
        mat = np.zeros((len(rows), len(cols)))
        for s, r in rows.items():
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                mat[r, cols[face]] = -1.0 if i % 2 else 1.0
        return mat


def build_simplicial_domain(complex_: SimplicialComplex) -> SpectralDomain:
    """Dirac domain of a finite simplicial complex (q = top dimension), one block, by the Hodge split.

    One eigh of the smaller Gram matrix G of each d_k (d_k^T d_k or d_k d_k^T) gives d_k = U_k S_k V_k^T:
    max_j ||G w_j - s_j^2 w_j|| must stay below EIGEN_RESIDUAL_BOUND times max(1, max s^2), the s^2 above
    ZERO_EIGEN_FLOOR times that are the rank, and the other factor is d_k V / s or d_k^T U / s.  As
    d_k d_{k-1} = 0, degree k holds W_k = [U_{k-1} | V_k] and the spectrum s_{k-1}^2, s_k^2, then beta_k zeros.
    """
    top, grading = complex_.top_dimension, complex_.counts()
    nbytes = 8 * sum(a * b + min(a, b) ** 2 for a, b in zip(grading, grading[1:])) + 8 * sum(n * n for n in grading)
    _require_bytes(f"a complex of {grading} simplices", nbytes)  # incidence, Gram matrices and W_k (<= n_k^2)
    d = [complex_.incidence(k) for k in range(top)]
    cols, mus = [[np.zeros((n, 0))] for n in grading], [[] for _ in grading]  # W_k's columns and their s^2
    for k, dk in enumerate(d):
        a = dk if dk.shape[1] <= dk.shape[0] else dk.T  # a^T a is the smaller Gram matrix
        gram = a.T @ a
        s2, w = np.linalg.eigh(gram)
        scale = max(1.0, float(s2.max(initial=0.0)))
        worst = float(np.max(np.linalg.norm(gram @ w - w * s2, axis=0), initial=0.0))
        if worst > EIGEN_RESIDUAL_BOUND * scale:
            raise AssertionError(f"d_{k} Gram eigendecomposition residual {worst} on the simplicial domain")
        keep = s2 > ZERO_EIGEN_FLOOR * scale
        s2, w = s2[keep], w[:, keep]
        other = a @ (w / np.sqrt(s2))
        for j, f in ((k, w if a is dk else other), (k + 1, other if a is dk else w)):  # V_k ends W_k, U_k opens W_k+1
            cols[j].append(f), mus[j].append(s2)
    basis = [np.hstack(c) for c in cols]
    spectra = [np.concatenate(m + [np.zeros(n - w.shape[1])]) for m, n, w in zip(mus, grading, basis)]
    block = Stack(tuple(np.arange(n)[None] for n in grading), tuple(m[None] for m in d), tuple(w[None] for w in basis))
    return _assemble("simplicial", max(top, 1), grading, (block,), spectra)


# ---------------------------------------------------------------------------
# spectra export
# ---------------------------------------------------------------------------


def spectrum_by_degree(domain: SpectralDomain, degree: int) -> np.ndarray:
    """Eigenvalues of the Hodge Laplacian L_k of one degree, ascending."""
    return np.sort(domain.laplacian_spectrum(degree))


def domain_spectra_json(domain: SpectralDomain) -> list[dict]:
    """Laplacian spectra per degree in the documented JSON shape."""
    return [
        {"degree": k, "eigenvalues": [float(v) for v in spectrum_by_degree(domain, k)]}
        for k in range(domain.top_degree + 1)
    ]
