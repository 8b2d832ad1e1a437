"""Independent oracles used by the tests: kept deliberately separate from
the package code paths they check."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

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
