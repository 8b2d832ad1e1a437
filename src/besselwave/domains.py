"""Discrete spectral domains: graded cochain spaces with a symmetric Dirac matrix.

Two families are built here:

* trigonometric domains, one builder for both: band-limited trig k-form
  components on the unit circle (q = 1) and the flat unit tori (q = 2, 3),
* finite abstract simplicial complexes with signed incidence matrices.

Every domain carries the exterior-derivative blocks d_k.  The basis is
orthonormal, so adjoints are plain transposes and the Hodge Laplacian of
degree k is L_k = d_{k-1} d_{k-1}^T + d_k^T d_k, an n_k x n_k matrix.  The
spectral calculus needs only even functions g(sqrt L_k), applied one degree
at a time by `SpectralDomain.even_apply` from the values g(sqrt mu_k) on the
spectrum `laplacian_spectrum(k)`.  The trig basis diagonalizes every L_k, so
a trig domain keeps only mu = 4 pi^2 |m|^2 in basis order and applies g as a
diagonal; a simplicial domain eigensolves each L_k on first use and keeps
the eigenpairs, at a cost of sum_k n_k^3, not the N^3 of the stacked N x N
Dirac matrix D = d + d^T.  No operator of the calculus is assembled from
D; the only N x N operators of the library are the discrete wave orbit's
D_h and the symmetry unitaries (`specops`).  D and its dense
eigendecomposition stay readable, computed on first access, for the
benchmark and the dense test oracle.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product

import numpy as np

__all__ = [
    "DomainSizeError",
    "ComplexClosureError",
    "Cochain",
    "SpectralDomain",
    "SimplicialComplex",
    "build_circle_domain",
    "build_torus_domain",
    "build_simplicial_domain",
    "spectrum_by_degree",
    "domain_spectra_json",
]

EIGEN_RESIDUAL_BOUND = 1e-10
DIMENSION_CAP = 6000

# phase is "const", "cos" or "sin"; mode is a frequency vector (empty for
# simplicial domains); subset is the ordered axis tuple of the form component.
BasisLabel = namedtuple("BasisLabel", "degree subset phase mode")


class DomainSizeError(ValueError):
    """Requested domain or grid exceeds its configured size cap."""


class ComplexClosureError(ValueError):
    """Simplicial input is not closed under taking faces."""


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
class SpectralDomain:
    """Graded complex with an even functional calculus per degree.

    grading[k] is the dimension of the degree-k cochain space and
    d_blocks[k] maps degree k to k+1.  `laplacian_spectrum(k)` is the cached
    spectrum of L_k and `even_apply` applies a function of it; `dirac`,
    `eigenvalues` and `eigenvectors` (the stacked Dirac matrix and its dense
    eigendecomposition) are computed on first access for the benchmark and
    the dense test oracle.
    """

    name: str
    q: int
    grading: tuple[int, ...]
    d_blocks: tuple[np.ndarray, ...]
    labels: tuple[BasisLabel, ...] | None = None
    offsets: tuple[int, ...] = field(default=())
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def total_dim(self) -> int:
        return int(sum(self.grading))

    @property
    def top_degree(self) -> int:
        return len(self.grading) - 1

    def degree_slice(self, k: int) -> slice:
        if not (0 <= k <= self.top_degree):
            raise ValueError(f"degree {k} out of range for {self.name}")
        return slice(self.offsets[k], self.offsets[k] + self.grading[k])

    def cochain(self, degree: int, coefficients) -> Cochain:
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (self.grading[degree],):
            raise ValueError(
                f"degree-{degree} cochain needs {self.grading[degree]} coefficients, "
                f"got shape {coefficients.shape}"
            )
        return Cochain(degree, coefficients)

    def zero_cochain(self, degree: int) -> Cochain:
        return Cochain(degree, np.zeros(self.grading[degree]))

    def embed(self, c: Cochain) -> np.ndarray:
        vec = np.zeros(self.total_dim)
        vec[self.degree_slice(c.degree)] = c.coefficients
        return vec

    @cached_property
    def dirac(self) -> np.ndarray:
        """The stacked symmetric Dirac matrix D = d + d^T, N x N; its strict lower triangle is d."""
        out = np.zeros((self.total_dim, self.total_dim))
        for k, blk in enumerate(self.d_blocks):
            lo, hi = self.degree_slice(k), self.degree_slice(k + 1)
            out[hi, lo] = blk
            out[lo, hi] = blk.T
        return out

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

    def laplacian(self, k: int) -> np.ndarray:
        """Hodge Laplacian of degree k, d_{k-1} d_{k-1}^T + d_k^T d_k."""
        self.degree_slice(k)  # rejects a degree out of range
        lap = np.zeros((self.grading[k], self.grading[k]))
        if k > 0:
            lap += self.d_blocks[k - 1] @ self.d_blocks[k - 1].T
        if k < self.top_degree:
            lap += self.d_blocks[k].T @ self.d_blocks[k]
        return lap

    def laplacian_spectrum(self, k: int) -> np.ndarray:
        """mu_k, the eigenvalues of L_k in the order `even_apply` reads them; read-only."""
        return self._eigenpairs(k)[0]

    def even_apply(self, k: int, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """g(sqrt L_k) x from values = g(sqrt mu_k); x is a degree-k vector or has n_k rows."""
        mu, w = self._eigenpairs(k)
        if np.shape(x)[:1] != mu.shape:
            raise ValueError(f"degree-{k} operand needs {mu.size} rows, got shape {np.shape(x)}")
        values = np.reshape(values, mu.shape + (1,) * (np.ndim(x) - 1))
        return values * x if w is None else w @ (values * (w.T @ x))

    def _eigenpairs(self, k: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(mu_k, W_k) with L_k W_k = W_k diag(mu_k); computed once, read-only.

        Trig domains fill mu_k at build time, with W_k = None for the
        identity.  Elsewhere L_k is eigensolved here, and the residual
        max_j ||L_k w_j - mu_j w_j|| must stay below EIGEN_RESIDUAL_BOUND
        times max(1, max |mu_k|).
        """
        pairs = self._spectra.get(k)
        if pairs is None:
            lap = self.laplacian(k)
            mu, w = np.linalg.eigh(lap)
            residual = np.linalg.norm(lap @ w - w * mu, axis=0)
            worst = float(residual.max()) if residual.size else 0.0
            scale = max(1.0, float(np.max(np.abs(mu))) if mu.size else 1.0)
            if worst > EIGEN_RESIDUAL_BOUND * scale:
                raise AssertionError(f"degree-{k} eigendecomposition residual {worst} on {self.name}")
            mu.setflags(write=False)
            w.setflags(write=False)
            pairs = self._spectra[k] = (mu, w)
        return pairs


def _assemble(name, q, grading, d_blocks, labels=None) -> SpectralDomain:
    offsets = tuple(int(x) for x in np.concatenate([[0], np.cumsum(grading)[:-1]]))
    # d_{k+1} d_k must vanish; exact for integer incidence, ~1e-13 for trig.
    for k in range(len(d_blocks) - 1):
        comp = d_blocks[k + 1] @ d_blocks[k]
        worst = float(np.max(np.abs(comp))) if comp.size else 0.0
        if worst > 1e-12 * max(1.0, float(np.max(np.abs(d_blocks[k])))):
            raise AssertionError(f"d o d = {worst} on degree {k} of {name}")
    return SpectralDomain(
        name=name,
        q=q,
        grading=tuple(int(g) for g in grading),
        d_blocks=tuple(np.asarray(b, dtype=float) for b in d_blocks),
        labels=tuple(labels) if labels is not None else None,
        offsets=offsets,
    )


# ---------------------------------------------------------------------------
# trigonometric domains: the circle and the flat tori
# ---------------------------------------------------------------------------


def _canonical_modes(q: int, max_freq: int):
    """Zero mode plus one representative per +-m pair (first nonzero > 0), in lexicographic order."""
    box = product(range(-max_freq, max_freq + 1), repeat=q)
    return [(0,) * q] + [m for m in box if next((c for c in m if c), 0) > 0]


def _partial_matrix(scalars, axis: int) -> np.ndarray:
    """d/dx_axis in the orthonormal trig scalar basis."""
    index = {lbl: i for i, lbl in enumerate(scalars)}
    n = len(scalars)
    mat = np.zeros((n, n))
    for i, (phase, mode) in enumerate(scalars):
        w = 2.0 * math.pi * mode[axis]
        if phase == "cos" and w:
            mat[index[("sin", mode)], i] = -w
        elif phase == "sin" and w:
            mat[index[("cos", mode)], i] = w
    return mat


def _trig_domain(name: str, q: int, max_freq: int) -> SpectralDomain:
    """Band-limited trig forms on the flat unit q-torus; q = 1 is the circle.

    Each form component has the scalar basis {1, sqrt2 cos 2 pi m.x,
    sqrt2 sin 2 pi m.x} over the canonical modes m.  Every basis vector is an
    eigenvector of every L_k with eigenvalue 4 pi^2 |m|^2, so the spectrum
    is stored here in basis order and L_k acts as a diagonal.  No
    eigensolver runs on a trig domain.
    """
    if max_freq < 1:
        raise ValueError("max_freq must be >= 1")
    scalars = [
        (phase, m)
        for m in _canonical_modes(q, max_freq)
        for phase in (("cos", "sin") if any(m) else ("const",))
    ]
    n_scalar = len(scalars)
    partials = [_partial_matrix(scalars, axis) for axis in range(q)]
    subsets = [list(combinations(range(q), k)) for k in range(q + 1)]
    grading = [len(subsets[k]) * n_scalar for k in range(q + 1)]

    d_blocks = []
    for k in range(q):
        blk = np.zeros((grading[k + 1], grading[k]))
        row_of = {s: i for i, s in enumerate(subsets[k + 1])}
        for col, subset in enumerate(subsets[k]):
            c0 = col * n_scalar
            for axis in range(q):
                if axis in subset:
                    continue
                pos = sum(1 for a in subset if a < axis)
                sign = -1.0 if pos % 2 else 1.0
                r0 = row_of[tuple(sorted(subset + (axis,)))] * n_scalar
                blk[r0 : r0 + n_scalar, c0 : c0 + n_scalar] += sign * partials[axis]
        d_blocks.append(blk)

    labels = [BasisLabel(k, s, p, m) for k in range(q + 1) for s in subsets[k] for p, m in scalars]
    domain = _assemble(name, q, tuple(grading), tuple(d_blocks), labels)
    mu_scalar = 4.0 * math.pi**2 * np.array([sum(c * c for c in m) for _, m in scalars], dtype=float)
    for k in range(q + 1):
        mu = np.tile(mu_scalar, len(subsets[k]))
        mu.setflags(write=False)
        domain._spectra[k] = (mu, None)
    return domain


def build_circle_domain(max_freq: int) -> SpectralDomain:
    """Unit circle: 0- and 1-forms over {1, sqrt2 cos 2 pi k x, sqrt2 sin 2 pi k x}.

    Dirac eigenvalues are {0, 0} plus +-2 pi k, each twice.
    """
    return _trig_domain("circle", 1, max_freq)


def build_torus_domain(q: int, max_freq: int) -> SpectralDomain:
    """Full graded complex of band-limited trig forms on the flat unit q-torus, q in {2, 3}."""
    if q not in (2, 3):
        raise ValueError("torus domains support q in {2, 3}")
    total = (2 * max_freq + 1) ** q * 2**q
    if total > DIMENSION_CAP:
        raise DomainSizeError(
            f"torus q={q}, max_freq={max_freq} needs total dimension {total} "
            f"above the cap {DIMENSION_CAP}"
        )
    return _trig_domain(f"torus{q}", q, max_freq)


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """Finite abstract simplicial complex with sorted-vertex orientation."""

    def __init__(self, simplices):
        seen = set()
        for s in simplices:
            s = tuple(sorted(int(v) for v in s))
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
                    raise ComplexClosureError(
                        f"complex is not downward closed: face {face} of {s} is missing"
                    )
        self.by_dim: list[list[tuple[int, ...]]] = []
        top = max(len(s) for s in seen) - 1
        for k in range(top + 1):
            self.by_dim.append(sorted(s for s in seen if len(s) == k + 1))

    @classmethod
    def from_maximal(cls, faces) -> "SimplicialComplex":
        closed = set()
        for f in faces:
            f = tuple(sorted(int(v) for v in f))
            for size in range(1, len(f) + 1):
                closed.update(combinations(f, size))
        return cls(closed)

    @classmethod
    def from_json(cls, source) -> "SimplicialComplex":
        """Accepts a dict, a JSON string, or a path to a JSON file."""
        if isinstance(source, dict):
            payload = source
        else:
            text = str(source)
            if text.lstrip().startswith("{"):
                payload = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
        if "simplices" not in payload:
            raise ValueError('JSON complex must have a "simplices" key')
        return cls(payload["simplices"])

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
    """Dirac domain of a finite simplicial complex (q = top dimension)."""
    top = complex_.top_dimension
    grading = complex_.counts()
    d_blocks = tuple(complex_.incidence(k) for k in range(top))
    return _assemble("simplicial", max(top, 1), grading, d_blocks, labels=None)


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
