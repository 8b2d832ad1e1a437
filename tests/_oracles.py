"""Independent oracles used by the tests: kept deliberately separate from
the package code paths they check."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from besselwave import besselfn
from besselwave.oracles import dalembert_shift_coefficients  # noqa: F401  (re-exported for the tests)


def jacobi_eigh(matrix: np.ndarray, eps: float = 1e-13, max_sweeps: int = 60):
    """Cyclic Jacobi rotations for small dense symmetric matrices.

    Independent of LAPACK; used to cross-check spectra of small domains.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or np.max(np.abs(a - a.T)) != 0.0:
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(np.sum(np.triu(a, 1) ** 2))
        if off < eps:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= eps / (n * n):
                    continue
                phi = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(phi), math.sin(phi)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


class DenseDiracOracle:
    """The functional calculus from the dense eigendecomposition of the N x N Dirac matrix.

    Independent of the per-degree Hodge eigenpairs the package uses: every
    operator is a function of D evaluated on its eigenvalues lambda.
    """

    def __init__(self, domain):
        self.lam, self.vec = np.linalg.eigh(domain.dirac)

    def even(self, g) -> np.ndarray:
        """g(|D|) for a scalar function g."""
        return (self.vec * np.array([g(abs(float(x))) for x in self.lam])) @ self.vec.T

    def psi(self, t: float, n: int) -> np.ndarray:
        """The eigenvalues psi_n(t lambda) of D_t, psi odd."""
        return np.sign(self.lam) * np.array([besselfn.psi(n, t * abs(x)) for x in self.lam])

    def deformed_dirac(self, t: float, n: int) -> np.ndarray:
        return (self.vec * self.psi(t, n)) @ self.vec.T

    def orbit_bound(self, h: float, n: int, u, v) -> float:
        """sqrt(sum_j (u_j^2 - a_j u_j v_j + v_j^2) / (1 - |a_j| / 2)) over the eigenmodes of D."""
        a = self.psi(h, n)
        uc, vc = self.vec.T @ u, self.vec.T @ v
        return math.sqrt(float(np.sum((uc**2 - a * uc * vc + vc**2) / (1.0 - np.abs(a) / 2.0))))


def fd_christoffel(chart, x: float, y: float, step: float = 1e-5) -> np.ndarray:
    """Gamma[k][i][j] from central differences of the metric callables.

    The slow-path oracle for geomfront.christoffel: first partials by
    central differences, symbols by the general index formula
    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij).
    """
    h = step
    a, b, c = (float(v) for v in chart.metric(x, y))
    partials = []
    for comp in (chart.g11, chart.g12, chart.g22):
        partials.append(((comp(x + h, y) - comp(x - h, y)) / (2 * h),
                         (comp(x, y + h) - comp(x, y - h)) / (2 * h)))
    (a_x, a_y), (b_x, b_y), (c_x, c_y) = partials
    # dg[l][i][j] = d g_ij / d x_l
    dg = np.array([[[a_x, b_x], [b_x, c_x]], [[a_y, b_y], [b_y, c_y]]], dtype=float)
    inv = np.array([[c, -b], [-b, a]]) / (a * c - b * b)
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                for ell in range(2):
                    gamma[k, i, j] += 0.5 * inv[k, ell] * (dg[i][j][ell] + dg[j][i][ell] - dg[ell][i][j])
    return gamma


def fd_brioschi(chart, x: float, y: float, step: float = 1e-4) -> float:
    """Gauss curvature by the Brioschi determinants on central-difference metric derivatives.

    The slow-path oracle for geomfront.gauss_curvature_brioschi.
    """
    e, f, g = chart.g11, chart.g12, chart.g22
    h = step

    def d_x(fn):
        return float((fn(x + h, y) - fn(x - h, y)) / (2 * h))

    def d_y(fn):
        return float((fn(x, y + h) - fn(x, y - h)) / (2 * h))

    def d_xx(fn):
        return float((fn(x + h, y) - 2 * fn(x, y) + fn(x - h, y)) / (h * h))

    def d_yy(fn):
        return float((fn(x, y + h) - 2 * fn(x, y) + fn(x, y - h)) / (h * h))

    def d_xy(fn):
        return float((fn(x + h, y + h) - fn(x + h, y - h) - fn(x - h, y + h) + fn(x - h, y - h)) / (4 * h * h))

    ev, fv, gv = (float(v) for v in chart.metric(x, y))
    first = np.array([
        [-0.5 * d_yy(e) + d_xy(f) - 0.5 * d_xx(g), 0.5 * d_x(e), d_x(f) - 0.5 * d_y(e)],
        [d_y(f) - 0.5 * d_x(g), ev, fv],
        [0.5 * d_y(g), fv, gv],
    ])
    second = np.array([
        [0.0, 0.5 * d_y(e), 0.5 * d_x(g)],
        [0.5 * d_y(e), ev, fv],
        [0.5 * d_x(g), fv, gv],
    ])
    return float((np.linalg.det(first) - np.linalg.det(second)) / (ev * gv - fv * fv) ** 2)


def exact_rank(matrix) -> int:
    """Rank of an integer matrix over the rationals, by exact elimination."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(matrix, dtype=int)]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pv = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def interval_average_exact(g, s_var_free=True):
    """1-D ball average (1/2s) integral_{-s}^{s} g(x) dx as a poly in s."""
    from besselwave.polyforms import MultiPoly

    out = {}
    for (e,), c in g.terms.items():
        if e % 2 == 0:
            out[(e,)] = c * Fraction(1, e + 1)
    return MultiPoly(1, out)


def endpoint_average_exact(g):
    """1-D sphere average [g(s) + g(-s)]/2 as a poly in s."""
    from besselwave.polyforms import MultiPoly

    out = {(e,): c for (e,), c in g.terms.items() if e % 2 == 0}
    return MultiPoly(1, out)


def decay_envelope(n: int, r: float) -> float:
    """min(1, Gamma(n/2) (r/2)^(-nu) sqrt(2/(pi r))), nu = n/2 - 1: the size of |phi_n(r)|."""
    nu = 0.5 * n - 1.0
    log_env = math.lgamma(0.5 * n) - nu * math.log(0.5 * r) + 0.5 * math.log(2.0 / (math.pi * r))
    return min(1.0, math.exp(log_env))


def phi_mpmath(n: int, r: float, digits: int = 30) -> float:
    """phi_n(r) = Gamma(n/2) (r/2)^(-nu) J_nu(r) at `digits` significant digits, via mpmath."""
    import mpmath

    with mpmath.workdps(digits):
        x = mpmath.mpf(r)
        nu = mpmath.mpf(n) / 2 - 1
        return float(mpmath.gamma(mpmath.mpf(n) / 2) * (x / 2) ** (-nu) * mpmath.besselj(nu, x))
