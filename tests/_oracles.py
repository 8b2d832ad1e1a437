"""Independent oracles used by the tests: kept deliberately separate from
the package code paths they check."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from besselwave import besselfn, domains, geomfront
from besselwave.exprgrammar import compile_trees, derivative, parse_expression
from besselwave.huygens import PROBE_BINS
from besselwave.oracles import dalembert_shift_coefficients  # noqa: F401  (re-exported for the tests)
from besselwave.specops import _profile


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


def embed(domain, c) -> np.ndarray:
    """The cochain c zero-padded to a vector of the full graded space, as the dense Dirac matrix acts on it."""
    vec = np.zeros(domain.total_dim)
    vec[domain.degree_slice(c.degree)] = c.coefficients
    return vec


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


def label_d_blocks(domain) -> list[np.ndarray]:
    """The dense d_k of a trig domain from its basis labels alone, one entry at a time.

    The slow path of the per-mode pieces: d of sqrt2 cos 2 pi m.x dx_S is
    -2 pi m_a sqrt2 sin 2 pi m.x dx_a ^ dx_S summed over axes a, d of sin
    the same with cos and a plus sign, and dx_a ^ dx_S is (-1)^(number of
    axes of S below a) times the sorted component.
    """
    index = {lbl: i - domain.offsets[lbl.degree] for i, lbl in enumerate(domain.labels)}
    out = [np.zeros((domain.grading[k + 1], domain.grading[k])) for k in range(domain.top_degree)]
    for lbl, col in index.items():
        if lbl.degree == domain.top_degree or lbl.phase == "const":
            continue
        to = "sin" if lbl.phase == "cos" else "cos"
        for a, m in enumerate(lbl.mode):
            if a in lbl.subset or not m:
                continue
            sign = -1.0 if sum(b < a for b in lbl.subset) % 2 else 1.0
            w = 2.0 * math.pi * m
            row = index[type(lbl)(lbl.degree + 1, tuple(sorted(lbl.subset + (a,))), to, lbl.mode)]
            out[lbl.degree][row, col] = sign * (-w if lbl.phase == "cos" else w)
    return out


def label_pullback(domain, axes, signs, shift) -> list[np.ndarray]:
    """One dense n_k x n_k matrix per degree of the torus isometry x -> A x + shift, from the basis labels.

    The slow path of `domains.torus_pullback`: (A x)_i = signs[i] x_{axes[i]};
    the mode m goes to A^T m, negated back (reversing the rotation and the
    sign of sin) where its first nonzero entry turns negative; the phase
    rotates by 2 pi m.shift; dx_i pulls back to signs[i] dx_{axes[i]}.
    """
    index = {lbl: i - domain.offsets[lbl.degree] for i, lbl in enumerate(domain.labels)}
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    blocks = [np.zeros((n, n)) for n in domain.grading]
    for lbl, col in index.items():
        image = [axes[a] for a in lbl.subset]
        sign = math.prod(signs[a] for a in lbl.subset) * (-1) ** sum(a > b for a, b in combinations(image, 2))
        pulled = [0] * domain.q
        for a, m in enumerate(lbl.mode):
            pulled[axes[a]] = signs[a] * m
        flip = -1 if next((c for c in pulled if c), 0) < 0 else 1
        target = (lbl.degree, tuple(sorted(image)))
        mode_to = tuple(flip * c for c in pulled)

        def row(phase):
            return index[type(lbl)(*target, phase, mode_to)]

        u = blocks[lbl.degree]
        if lbl.phase == "const":
            u[row("const"), col] = sign
            continue
        angle = 2.0 * math.pi * float(np.dot(lbl.mode, shift))
        c, s = math.cos(angle), flip * math.sin(angle)
        if lbl.phase == "cos":
            u[row("cos"), col], u[row("sin"), col] = sign * c, -sign * s
        else:
            u[row("sin"), col], u[row("cos"), col] = sign * flip * c, sign * flip * s
    return blocks


def dense_laplacian(domain, k: int) -> np.ndarray:
    """L_k = d_{k-1} d_{k-1}^T + d_k^T d_k from the dense d_blocks; k outside [0, top] raises."""
    d = domain.d_blocks
    lap = np.zeros((domain.grading[domain.check_degree(k)],) * 2)
    if k > 0:
        lap += d[k - 1] @ d[k - 1].T
    if k < domain.top_degree:
        lap += d[k].T @ d[k]
    return lap


def per_degree_eigh_domain(complex_) -> "domains.SpectralDomain":
    """The simplicial domain from one dense eigh of every L_k = d_{k-1} d_{k-1}^T + d_k^T d_k.

    The slow path of `domains.build_simplicial_domain`, which eigensolves the
    smaller Gram matrix of each d_k instead: the same residual check on L_k,
    every mu up to ZERO_EIGEN_FLOOR times max(1, max mu_k) written as 0.0, and
    the full n_k x n_k eigenvector matrix as the block's basis.
    """
    top, grading = complex_.top_dimension, complex_.counts()
    d = [complex_.incidence(k) for k in range(top)]
    spectra, basis = [], []
    for k in range(top + 1):
        lap = np.zeros((grading[k], grading[k]))
        if k > 0:
            lap += d[k - 1] @ d[k - 1].T
        if k < top:
            lap += d[k].T @ d[k]
        mu, w = np.linalg.eigh(lap)
        worst = float(np.max(np.linalg.norm(lap @ w - w * mu, axis=0), initial=0.0))
        if worst > domains.EIGEN_RESIDUAL_BOUND * max(1.0, float(np.max(np.abs(mu), initial=0.0))):
            raise AssertionError(f"degree-{k} eigendecomposition residual {worst} on the simplicial domain")
        spectra.append(np.where(mu > domains.ZERO_EIGEN_FLOOR * max(1.0, float(mu.max(initial=0.0))), mu, 0.0))
        basis.append(w[None])
    block = domains.Stack(tuple(np.arange(n)[None] for n in grading), tuple(m[None] for m in d), tuple(basis))
    return domains._assemble("simplicial", max(top, 1), grading, (block,), spectra)


def dense_symmetry(domain, symmetry) -> list[np.ndarray]:
    """One dense n_k x n_k matrix per degree of a symmetry given block by block."""
    out = [np.zeros((n, n)) for n in domain.grading]
    for stack, (image, blocks) in zip(domain.stacks, symmetry):
        for k, idx in enumerate(stack.index):
            out[k][idx[image][:, :, None], idx[:, None, :]] = blocks[k]
    return out


def block_identity(domain) -> list[tuple]:
    """The identity symmetry, one (image, blocks) pair per stack."""
    return [(np.arange(len(s.index[0])), [np.broadcast_to(np.eye(i.shape[1]), i.shape + i.shape[1:]) for i in s.index])
            for s in domain.stacks]


def series_sums_fraction(n: int, r: float) -> tuple[Fraction, Fraction, Fraction]:
    """Exact partial sums (phi, phi', phi'') of the profile series at r != 0, as Fractions.

    The slow-path oracle for besselfn's integer series: the same terms and
    truncation rule, with every sum carried as a reduced Fraction.
    """
    fr = Fraction(r)
    a, b = (fr * fr).numerator, (fr * fr).denominator
    t_num = 1
    den = 1
    s0, s1, s2 = 1, 0, 0
    for k in range(1, besselfn.MAX_TERMS + 1):
        c = b * (2 * k) * (n - 2 + 2 * k)
        t_num = t_num * (-a)
        s0 = s0 * c + t_num
        s1 = s1 * c + 2 * k * t_num
        s2 = s2 * c + 2 * k * (2 * k - 1) * t_num
        den *= c
        tail0 = abs(t_num) << besselfn.RELATIVE_TARGET_BITS
        tail2 = (abs(t_num) * (2 * k + 2) * (2 * k + 1)) << besselfn.RELATIVE_TARGET_BITS
        if tail0 <= abs(s0) and tail2 <= max(abs(s2), 1):
            break
    else:
        raise besselfn.BesselDomainError(f"series for phi_{n}({r}) did not converge")
    return Fraction(s0, den), Fraction(s1, den) / fr, Fraction(s2, den) / (fr * fr)


def _metric_entries(chart):
    """g11, g12, g22 as separate callables of (x, y), read from chart.metric alone."""
    return [lambda x, y, i=i: chart.metric(x, y)[i] for i in range(3)]


def fd_christoffel(chart, x: float, y: float, step: float = 1e-5) -> np.ndarray:
    """Gamma[k][i][j] from central differences of the metric callables.

    The slow-path oracle for geomfront.christoffel: first partials by
    central differences, symbols by the general index formula
    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij).
    """
    h = step
    a, b, c = (float(v) for v in chart.metric(x, y))
    partials = []
    for comp in _metric_entries(chart):
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
    e, f, g = _metric_entries(chart)
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


def float_jet(g11: str, g12: str, g22: str):
    """The jet of a metric as one compiled callable of (x, y).

    Returns (g11, g12, g22, g11_x, g12_x, g22_x, g11_y, g12_y, g22_y,
    g11_yy, g12_xy, g22_xx), differentiated exactly from the grammar
    strings; constant entries come back as scalars.  The slow-path oracle of
    a chart's compiled fields: geomfront._christoffel and geomfront._brioschi
    run on its float values at every call, where the chart ran them once on
    trees.
    """
    e, f, g = (parse_expression(s) for s in (g11, g12, g22))
    d_x = [derivative(t, "x") for t in (e, f, g)]
    d_y = [derivative(t, "y") for t in (e, f, g)]
    second = (derivative(d_y[0], "y"), derivative(d_x[1], "y"), derivative(d_x[2], "x"))
    return compile_trees((e, f, g, *d_x, *d_y, *second))


def jet_rhs(jet, state: np.ndarray) -> np.ndarray:
    """Derivative of the joint state (x, y, x', y', J, J') read from a float jet (see float_jet).

    The slow-path oracle for geomfront._rhs, which evaluates the chart's
    compiled fields: geomfront._christoffel and geomfront._brioschi applied
    to jet(x, y) at every call, then the Christoffel contraction.
    """
    x, y, vx, vy = state[0], state[1], state[2], state[3]
    values = jet(x, y)
    c111, c112, c122, c211, c212, c222 = geomfront._christoffel(values)
    out = np.empty_like(state)
    out[0], out[1], out[4] = vx, vy, state[5]
    out[2] = -(c111 * vx * vx + 2.0 * c112 * vx * vy + c122 * vy * vy)
    out[3] = -(c211 * vx * vx + 2.0 * c212 * vx * vy + c222 * vy * vy)
    out[5] = -geomfront._brioschi(values) * state[4]
    return out


def rk4_front(chart, p, thetas, t: float, steps: int) -> np.ndarray:
    """Classical RK4 with `steps` equal steps on geomfront's own joint system.

    The oracle of the adaptive path: it starts from geomfront._launch,
    integrates geomfront._rhs, returns the state (x, y, x', y', J, J') with one
    column per launch angle, and raises ChartExitError at the first step that
    ends outside the chart.
    """
    state = geomfront._launch(chart, p, thetas)
    h = t / steps
    for step in range(steps):
        k1 = geomfront._rhs(chart, state)
        k2 = geomfront._rhs(chart, state + 0.5 * h * k1)
        k3 = geomfront._rhs(chart, state + 0.5 * h * k2)
        k4 = geomfront._rhs(chart, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not chart.contains(state[0], state[1]):
            raise geomfront.ChartExitError((step + 1) * h)
    return state


# Dormand & Prince (1980): stage rows (the last is the 5th-order solution,
# whose slope is the next step's first stage), 5th- minus 4th-order weights,
# and the weights of Hairer's 4th-order continuous extension (HNW II.6).
_DP_A = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656] + [0.0] * 2,
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
                  701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423])


def dp54_front(chart, p, thetas, t: float, tol: float = 1e-12) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) on geomfront's own joint system, from 0 to t.

    The integrator geomfront ran before DOP853, kept as the oracle of the
    adaptive path: one step size for every launch angle, the local error in
    the max-norm below tol (1 + max(|y|, |y_new|)), the starting step of
    HNW II.4, and a ChartExitError whose time is bisected on Hairer's
    4th-order continuous extension of the step that leaves the chart.
    Returns the state (x, y, x', y', J, J') with one column per launch angle.
    """
    def scaled_max(v, y):
        return float(np.max(np.abs(v) / (tol * (1.0 + np.abs(y)))))

    def rhs(state):
        return geomfront._rhs(chart, state)

    y = geomfront._launch(chart, p, thetas)
    if t == 0.0:
        return y
    k = np.empty((7,) + y.shape)
    flat = k.reshape(7, -1)
    k[0] = rhs(y)
    d0, d1 = scaled_max(y, y), scaled_max(k[0], y)
    h0 = 0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6
    d2 = scaled_max(rhs(y + math.copysign(h0, t) * k[0]) - k[0], y) / h0
    h1 = (0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 1e-15 else max(1e-6, 1e-3 * h0)
    h = math.copysign(min(100.0 * h0, h1, abs(t)), t)
    t_now, fac_max = 0.0, 10.0
    while t_now != t:
        last = abs(h) >= abs(t - t_now)
        if last:
            h = t - t_now
        elif t_now + h == t_now:
            raise ValueError(f"step size underflow at t = {t_now!r}")
        for i in range(1, 7):
            y_new = y + h * (_DP_A[i, :i] @ flat[:i]).reshape(y.shape)
            k[i] = rhs(y_new)
        err = scaled_max(h * (_DP_E @ flat).reshape(y.shape), np.maximum(np.abs(y), np.abs(y_new)))
        if err <= 1.0:
            if not chart.contains(y_new[0], y_new[1]):
                raise geomfront.ChartExitError(_dp54_exit_time(chart, y, y_new, k, t_now, h))
            y, k[0] = y_new, k[6]
            t_now = t if last else t_now + h
        fac = min(fac_max, max(0.2, 0.9 * max(err, 1e-10) ** -0.2)) if math.isfinite(err) else 0.2
        fac_max = 10.0 if err <= 1.0 else 1.0
        h *= fac
    return y


def _dp54_exit_time(chart, y0, y1, k, t0: float, h: float) -> float:
    """Bisect a DP5(4) step's continuous extension for the time it leaves the rectangle (y0 inside, y1 outside)."""
    dy = y1 - y0
    b = h * k[0] - dy
    c = dy - h * k[6] - b
    d = h * np.tensordot(_DP_D, k, axes=1)
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        x, y = (y0 + mid * (dy + (1.0 - mid) * (b + mid * (c + (1.0 - mid) * d))))[:2]
        if chart.contains(x, y):
            lo = mid
        else:
            hi = mid
    return t0 + hi * h


def tuple_keyed_source(trees, variables=("x", "y")) -> str:
    """The source compile_trees generates, with each subtree looked up by the nested tuple itself.

    The oracle of compile_trees' identity-then-flat-key lookup: a tuple key
    hashes the whole subtree on every lookup, so it is quadratic in the
    depth, but it names equal subtrees once by construction.
    """
    lines: list[str] = []
    names: dict = {}

    def ref(t) -> str:
        if isinstance(t, float):
            return f"({t!r})"
        if isinstance(t, str):
            return t
        if t not in names:
            args = [ref(a) for a in t[1:]]
            if t[0] in ("+", "-", "*", "/", "^"):
                expr = f"{args[0]} {'**' if t[0] == '^' else t[0]} {args[1]}"
            elif t[0] == "neg":
                expr = f"-{args[0]}"
            else:
                expr = f"{t[0]}({args[0]})"
            names[t] = f"_t{len(names)}"
            lines.append(f"    {names[t]} = {expr}\n")
        return names[t]

    outputs = ", ".join(ref(t) for t in trees)
    return f"def _evaluate({', '.join(variables)}):\n{''.join(lines)}    return ({outputs},)\n"


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


def _gamma_half(two_a: int) -> tuple[Fraction, int]:
    """Gamma(two_a / 2) as (rational, power of sqrt(pi)); two_a >= 1."""
    if two_a % 2 == 0:
        return Fraction(math.factorial(two_a // 2 - 1)), 0
    k = (two_a - 1) // 2
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k)), 1


def sphere_monomial_integral(q: int, alpha) -> tuple[Fraction, int]:
    """integral over S^(q-1) of x^alpha dS as (rational, power of pi).

    The slow-path oracle for huygens.sphere_moment_ratio: zero unless every
    exponent is even, else 2 prod_i Gamma((alpha_i + 1)/2) / Gamma((|alpha| + q)/2)
    with the half-integer Gamma values expanded into rationals and sqrt(pi)s.
    """
    if any(a % 2 for a in alpha):
        return Fraction(0), 0
    value, sqrt_pi = Fraction(2), 0
    for a in alpha:
        g, s = _gamma_half(a + 1)
        value *= g
        sqrt_pi += s
    g, s = _gamma_half(sum(alpha) + q)
    if (sqrt_pi - s) % 2:
        raise AssertionError("sqrt(pi) parity cannot be odd here")
    return value / g, (sqrt_pi - s) // 2


def gamma_moment_ratio(q: int, alpha) -> Fraction:
    """The sphere moment as the ratio of two Gamma-form integrals; the pi powers must agree."""
    top, top_pi = sphere_monomial_integral(q, alpha)
    area, area_pi = sphere_monomial_integral(q, (0,) * q)
    if top and top_pi != area_pi:
        raise AssertionError("pi powers must agree")
    return top / area


def flux_average_loop(f, q: int):
    """Average flux of the (q-1)-form f through W_t(0), one Gamma-form moment per term.

    The slow path of huygens.flux_average_exact: each term c x^e of the
    component F_i = (-1)^i f_{complement(i)} contributes c E_S[x^e x_i] t^|e|.
    """
    from besselwave.polyforms import MultiPoly

    out = {}
    for i in range(q):
        poly = f.component(tuple(a for a in range(q) if a != i))
        for expo, coeff in poly.terms.items():
            shifted = list(expo)
            shifted[i] += 1
            total = sum(expo)
            out[(total,)] = out.get((total,), Fraction(0)) + (-1) ** i * coeff * gamma_moment_ratio(q, shifted)
    return MultiPoly(1, out)


def laplacian_by_diff(g):
    """Sum of the second partials g.diff(a).diff(a), each a polynomial of its own: the slow path of MultiPoly.laplacian."""
    out = g.zero(g.nvars)
    for axis in range(g.nvars):
        out = out + g.diff(axis).diff(axis)
    return out


def flux_average_by_products(f, q: int):
    """huygens.flux_average_exact with G = sum_i (-1)^i x_i f_(complement i) built from monomial products and sums."""
    from besselwave.huygens import sphere_average_exact
    from besselwave.polyforms import MultiPoly

    radial = MultiPoly.zero(q)
    for i in range(q):
        signed_axis = MultiPoly.monomial(q, [int(a == i) for a in range(q)], (-1) ** i)
        radial = radial + signed_axis * f.component(tuple(a for a in range(q) if a != i))
    return MultiPoly(1, {(e - 1,): c for (e,), c in sphere_average_exact(radial, q).terms.items()})


def decay_envelope(n: int, r: float) -> float:
    """min(1, Gamma(n/2) (r/2)^(-nu) sqrt(2/(pi r))), nu = n/2 - 1: the size of |phi_n(r)|; 1 at r = 0."""
    if r == 0.0:
        return 1.0
    nu = 0.5 * n - 1.0
    log_env = math.lgamma(0.5 * n) - nu * math.log(0.5 * r) + 0.5 * math.log(2.0 / (math.pi * r))
    return math.exp(min(0.0, log_env))  # min(1, exp(log_env)), without overflow at large n


def phi_mpmath(n: int, r: float, digits: int = 30) -> float:
    """phi_n(r) = Gamma(n/2) (r/2)^(-nu) J_nu(r) at `digits` significant digits, via mpmath."""
    import mpmath

    with mpmath.workdps(digits):
        x = mpmath.mpf(r)
        nu = mpmath.mpf(n) / 2 - 1
        return float(mpmath.gamma(mpmath.mpf(n) / 2) * (x / 2) ** (-nu) * mpmath.besselj(nu, x))


def locality_probe_full_grid(q: int, max_freq: int, sigma: float, t: float, annulus_width: float, n: int):
    """The locality probe's field on full n^q grids: meshgrids, complex `ifftn`, `np.histogram`.

    Returns (deformed_leakage, classical_leakage, radii, deformed_profile,
    classical_profile) for the grid of n points per axis the probe ran on.
    Only the profile values come from the package (`specops._profile`).  The
    interior |k| / n < t - annulus_width is decided in Python integers,
    |k|^2 den < num with num / den = ((t - annulus_width) n)^2, so points on
    the sphere stay outside; the histogram keeps the float radius.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    mesh = np.meshgrid(*([freqs] * q), indexing="ij")
    band = np.ones(mesh[0].shape, dtype=bool)
    for m in mesh:
        band &= np.abs(m) <= max_freq
    m_sq = sum(m.astype(float) ** 2 for m in mesh)
    bump_hat = np.where(band, np.exp(-2.0 * math.pi**2 * sigma**2 * m_sq), 0.0)
    levels, inverse = np.unique(m_sq[band], return_inverse=True)
    lam = 2.0 * math.pi * np.sqrt(levels)
    offsets = np.meshgrid(*([(np.arange(n) + n // 2) % n - n // 2] * q), indexing="ij")
    radius = np.sqrt(sum((k / n) ** 2 for k in offsets))
    num, den = ((Fraction(t - annulus_width) * n) ** 2).as_integer_ratio()
    interior = sum(k.astype(object) ** 2 for k in offsets) * den < num
    edges = np.linspace(0.0, float(radius.max()) + 1e-12, PROBE_BINS + 1)

    leakages, profiles = [], []
    for order in (q + 2, 3):
        mult = np.zeros(band.shape)
        mult[band] = t * _profile(order, t, lam)[inverse]
        density = np.zeros(band.shape)
        for axis_mode in mesh:
            comp = np.fft.ifftn(mult * bump_hat * (2.0j * math.pi * axis_mode)) * n**q
            density += comp.real**2
        total = density.sum()
        leakages.append(float(density[interior].sum() / total))
        profiles.append(np.histogram(radius, bins=edges, weights=density)[0] / total)
    return leakages[0], leakages[1], 0.5 * (edges[:-1] + edges[1:]), profiles[0], profiles[1]


class FractionMultiPoly:
    """The Fraction-per-term polynomial: exponent tuple -> Fraction, zero coefficients never stored.

    The slow path of polyforms.MultiPoly, which holds integer numerators over one
    denominator; every operation here builds and normalises one Fraction per term.
    """

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {tuple(e): Fraction(c) for e, c in (terms or {}).items() if c}

    def _coerce(self, other):
        if isinstance(other, FractionMultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return FractionMultiPoly(self.nvars, {(0,) * self.nvars: Fraction(other)})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + coeff
        return FractionMultiPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return FractionMultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if not isinstance(other, FractionMultiPoly):
            return FractionMultiPoly(self.nvars, {e: Fraction(other) * v for e, v in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return FractionMultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = FractionMultiPoly(self.nvars, {(0,) * self.nvars: 1})
        for _ in range(k):
            result = result * self
        return result

    def diff(self, axis: int):
        out = {}
        for expo, coeff in self.terms.items():
            if expo[axis]:
                key = expo[:axis] + (expo[axis] - 1,) + expo[axis + 1 :]
                out[key] = out.get(key, Fraction(0)) + coeff * expo[axis]
        return FractionMultiPoly(self.nvars, out)

    def laplacian(self):
        out = FractionMultiPoly(self.nvars)
        for axis in range(self.nvars):
            out = out + self.diff(axis).diff(axis)
        return out

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            v = coeff
            for p, e in zip(point, expo):
                v *= Fraction(p) ** e
            total += v
        return total

    def value_at_origin(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for expo, coeff in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(expo) if e)
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def _nonzero(components: dict) -> dict:
    return {key: poly for key, poly in components.items() if poly.terms}


def kform_d_oracle(nvars: int, components: dict) -> dict:
    """(dF)_J = sum over a in J of (-1)^(position of a in J) d_a F_(J without a), on FractionMultiPoly components."""
    out = {}
    for key, poly in components.items():
        for axis in set(range(nvars)) - set(key):
            new_key = tuple(sorted(key + (axis,)))
            out[new_key] = out.get(new_key, FractionMultiPoly(nvars)) + poly.diff(axis) * (-1) ** new_key.index(axis)
    return _nonzero(out)


def kform_interior_oracle(nvars: int, components: dict, x_field) -> dict:
    """(i_X F)_K = sum over a in the key of F of (-1)^(position of a) X_a F_key, with K the key without a."""
    out = {}
    for key, poly in components.items():
        for pos, axis in enumerate(key):
            new_key = key[:pos] + key[pos + 1 :]
            out[new_key] = out.get(new_key, FractionMultiPoly(nvars)) + poly * (Fraction(x_field[axis]) * (-1) ** pos)
    return _nonzero(out)


def kform_lie_oracle(nvars: int, components: dict, x_field) -> dict:
    """L_X F for a constant field X, component by component: sum_j X_j d_j F_I (no Cartan formula)."""
    out = {}
    for key, poly in components.items():
        acc = FractionMultiPoly(nvars)
        for j in range(nvars):
            acc = acc + poly.diff(j) * x_field[j]
        out[key] = acc
    return _nonzero(out)
