"""Geodesic wave fronts, Jacobi fields and limit-free curvature on 2-manifold charts.

A chart carries grammar-string metric components (see exprgrammar) over a
parameter rectangle.  Its jet, the metric with its six first partials and
the three second partials the Brioschi formula needs, is differentiated
exactly from the expressions.  The Christoffel symbols (closed 2-D form),
the Gauss curvature (Brioschi determinant) and the flow (x'', y'', J'') run
once on the jet's trees and compile into one callable of (x, y, vx, vy, J),
in which no term with a constant zero factor is left; metric, christoffel
and gauss_curvature_brioschi read it at vx = vy = J = 0.  Geodesics solve
xdd^k + Gamma^k_ij xd^i xd^j = 0, and the Jacobi field J'' + K J = 0,
J(0) = 0, J'(0) = 1 rides along.  The joint system is integrated by the
adaptive Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer, Norsett &
Wanner, Solving ODEs I, II.4-II.6), vectorized over launch angles with one
flow evaluation per stage: one step size serves every angle, chosen so that
the local error estimate, in the max-norm over all components and angles,
stays below TOL (1 + max(|y|, |y_new|)).  A step that leaves the chart
rectangle is bisected on its continuous extension, so ChartExitError
carries the exit time to about TOL.  Charts whose metric is the constant
identity take one exact step of the same system, since their Christoffel
symbols and K vanish; an exit there is bisected on the same extension,
which is the straight line when every stage equals the slope.  Wave-front
lengths are the angular integral of |J|, and two limit-free curvature
estimates come from comparing front lengths at one and two radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .exprgrammar import Symbolic, compile_trees, derivative, parse_expression

__all__ = [
    "ChartDomainError",
    "ChartExitError",
    "PositiveDefiniteError",
    "SurfaceChart",
    "WaveFront",
    "LineIntegralResult",
    "flat_chart",
    "sphere_chart",
    "hyperbolic_chart",
    "torus_chart",
    "chart_from_expressions",
    "chart_by_name",
    "christoffel",
    "geodesic",
    "jacobi_field",
    "wavefront",
    "wavefront_length",
    "wavefront_line_integral",
    "global_cancellation",
    "r2d2_curvature",
    "puiseux_curvature",
    "r2d2_boundary",
    "gauss_curvature_brioschi",
]

TOL = 1e-12
CHECK_POINTS = 7
_FLOW_ARGS = ("x", "y", "vx", "vy", "J")


class ChartDomainError(ValueError):
    """Point outside the chart's valid rectangle."""


class ChartExitError(RuntimeError):
    """A trajectory left the valid rectangle; carries the exit time."""

    def __init__(self, exit_time: float):
        self.exit_time = exit_time
        super().__init__(f"trajectory left the chart rectangle near t = {exit_time:.6f}")


class PositiveDefiniteError(ValueError):
    """Metric failed the positive-definiteness sample check."""


@dataclass(frozen=True)
class SurfaceChart:
    """Metric chart g11, g12, g22 on a rectangle, built by chart_from_expressions.

    fields(x, y, vx, vy, J) returns (g11, g12, g22, Gamma^1_11, Gamma^1_12,
    Gamma^1_22, Gamma^2_11, Gamma^2_12, Gamma^2_22, K, x'', y'', J'') from one
    generated function; constant entries come back as scalars, and only the
    last three depend on vx, vy and J.  straight_geodesics holds when the
    metric is the constant identity; periodic marks the unit torus.
    """

    name: str
    bounds: tuple[float, float, float, float]
    fields: callable
    straight_geodesics: bool
    periodic: bool = False

    def contains(self, x, y) -> bool:
        """Whether every point (x, y) lies in the closed rectangle (is finite, on a periodic chart); NaN never does."""
        x, y = np.asarray(x), np.asarray(y)
        if self.periodic:
            return bool(np.all(np.isfinite(x) & np.isfinite(y)))
        x_min, x_max, y_min, y_max = self.bounds
        return bool(np.all((x >= x_min) & (x <= x_max) & (y >= y_min) & (y <= y_max)))

    def require(self, x, y) -> None:
        for axis, v in (("x", x), ("y", y)):
            if not np.all(np.isfinite(v)):
                raise ChartDomainError(f"point ({x}, {y}) has a non-finite {axis} coordinate; "
                                       f"every point of {self.name} is finite")
        if not self.contains(x, y):
            raise ChartDomainError(f"point ({x}, {y}) outside rectangle {self.bounds} of {self.name}")

    def metric(self, x, y) -> tuple:
        return self.fields(x, y, 0.0, 0.0, 0.0)[:3]


@dataclass(frozen=True)
class WaveFront:
    """Sampled geodesic circle: per-angle endpoints, tangents, Jacobi values."""

    center: tuple[float, float]
    radius: float
    angles: np.ndarray
    points: np.ndarray    # (n, 2)
    tangents: np.ndarray  # (n, 2)
    jacobi: np.ndarray    # (n,)

    @property
    def length(self) -> float:
        """|W_t(p)| = integral over angles of |J(t, theta)| (trapezoid rule)."""
        return float(np.mean(np.abs(self.jacobi)) * 2.0 * math.pi)


@dataclass(frozen=True)
class LineIntegralResult:
    value: float
    front_self_intersects: bool


def chart_from_expressions(g11: str, g12: str, g22: str, bounds, name: str = "custom") -> SurfaceChart:
    """Chart from grammar strings in x and y, checked positive-definite on a 7 x 7 sample grid."""
    bounds = tuple(float(b) for b in bounds)
    if len(bounds) != 4 or not all(-math.inf < lo < hi < math.inf for lo, hi in (bounds[:2], bounds[2:])):
        raise ValueError(f"chart bounds must be four finite numbers x_min < x_max, y_min < y_max, got {bounds}")
    e, f, g = (parse_expression(s) for s in (g11, g12, g22))
    d_x = [derivative(t, "x") for t in (e, f, g)]
    d_y = [derivative(t, "y") for t in (e, f, g)]
    jet = [Symbolic(t) for t in (e, f, g, *d_x, *d_y,
                                 derivative(d_y[0], "y"), derivative(d_x[1], "y"), derivative(d_x[2], "x"))]
    gamma, k = _christoffel(jet), _brioschi(jet)
    fields = [*jet[:3], *gamma, k, *_accelerations(gamma, k, *map(Symbolic, _FLOW_ARGS[2:]))]
    chart = SurfaceChart(name, bounds, compile_trees([v.tree for v in fields], _FLOW_ARGS),
                         (e, f, g) == (1.0, 0.0, 1.0))
    x_min, x_max, y_min, y_max = chart.bounds
    gx, gy = np.meshgrid(np.linspace(x_min, x_max, CHECK_POINTS), np.linspace(y_min, y_max, CHECK_POINTS))
    with np.errstate(all="ignore"):  # the check reads the metric alone; Gamma and K divide by det g, which may vanish
        a, b, c = chart.metric(gx, gy)
    if not all(np.all(np.isfinite(v)) for v in (a, b, c)):  # NaN fails no comparison below
        raise PositiveDefiniteError(f"metric of {name} is not finite on the rectangle")
    if np.any(a <= 0) or np.any(a * c - b**2 <= 0):
        raise PositiveDefiniteError(f"metric of {name} is not positive-definite on the rectangle")
    return chart


def flat_chart(extent: float = 4.0) -> SurfaceChart:
    return chart_from_expressions("1", "0", "1", (-extent, extent, -extent, extent), name="flat")


def sphere_chart() -> SurfaceChart:
    """Unit round sphere in polar coordinates (x = colatitude, y = longitude), 0.02 clear of the poles."""
    return chart_from_expressions("1", "0", "sin(x)^2", (0.02, math.pi - 0.02, -1e9, 1e9), name="sphere")


def hyperbolic_chart() -> SurfaceChart:
    """Upper half-plane with the constant-curvature -1 metric."""
    return chart_from_expressions("1/y^2", "0", "1/y^2", (-1e9, 1e9, 0.02, 1e9), name="hyperbolic")


def torus_chart() -> SurfaceChart:
    """Flat unit torus; evaluation wraps, geodesics are straight lines."""
    return replace(chart_from_expressions("1", "0", "1", (0.0, 1.0, 0.0, 1.0), name="torus"), periodic=True)


def chart_by_name(name: str) -> SurfaceChart:
    builders = {"flat": flat_chart, "sphere": sphere_chart,
                "hyperbolic": hyperbolic_chart, "torus": torus_chart}
    if name not in builders:
        raise ValueError(f"unknown chart {name!r}; pick from {sorted(builders)}")
    return builders[name]()


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature: run once on the jet's trees, then read from the compiled fields
# ---------------------------------------------------------------------------


def _christoffel(jet) -> tuple:
    """(Gamma^1_11, Gamma^1_12, Gamma^1_22, Gamma^2_11, Gamma^2_12, Gamma^2_22), closed 2-D form."""
    e, f, g, e_x, f_x, g_x, e_y, f_y, g_y = jet[:9]
    two_det = 2.0 * (e * g - f * f)
    return (
        (g * e_x - 2.0 * f * f_x + f * e_y) / two_det,
        (g * e_y - f * g_x) / two_det,
        (2.0 * g * f_y - g * g_x - f * g_y) / two_det,
        (2.0 * e * f_x - e * e_y - f * e_x) / two_det,
        (e * g_x - f * e_y) / two_det,
        (e * g_y - 2.0 * f * f_y + f * g_x) / two_det,
    )


def _brioschi(jet):
    """Gauss curvature: the Brioschi determinant difference over det(g)^2."""
    e, f, g, e_x, f_x, g_x, e_y, f_y, g_y, e_yy, f_xy, g_xx = jet
    a11 = -0.5 * e_yy + f_xy - 0.5 * g_xx
    a12, a13 = 0.5 * e_x, f_x - 0.5 * e_y
    a21, a31 = f_y - 0.5 * g_x, 0.5 * g_y
    b12, b13 = 0.5 * e_y, 0.5 * g_x
    det_g = e * g - f * f
    det1 = a11 * det_g - a12 * (a21 * g - f * a31) + a13 * (a21 * f - e * a31)
    det2 = -b12 * (b12 * g - f * b13) + b13 * (b12 * f - e * b13)
    return (det1 - det2) / (det_g * det_g)


def christoffel(chart: SurfaceChart, x, y) -> np.ndarray:
    """Gamma[k][i][j] at (x, y); broadcasts over array input, every point inside the rectangle."""
    chart.require(x, y)
    c = np.broadcast_arrays(*chart.fields(x, y, 0.0, 0.0, 0.0)[3:9], x, y)
    return np.array([[[c[0], c[1]], [c[1], c[2]]], [[c[3], c[4]], [c[4], c[5]]]], dtype=float)


def gauss_curvature_brioschi(chart: SurfaceChart, x, y):
    """Gauss curvature from the metric alone (Brioschi determinant); broadcasts, every point inside the rectangle."""
    chart.require(x, y)
    out = chart.fields(x, y, 0.0, 0.0, 0.0)[9] + np.zeros(np.broadcast(x, y).shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# geodesic and Jacobi integration (vectorized over launch angles)
# ---------------------------------------------------------------------------


def _launch(chart: SurfaceChart, p, thetas) -> np.ndarray:
    """Joint state at t = 0, one column per launch angle: J = 0, J' = 1 and a velocity
    of metric norm one in the orthonormal frame aligned with d/dx."""
    x0, y0 = float(p[0]), float(p[1])
    chart.require(x0, y0)
    a, b, c = (float(np.asarray(v)) for v in chart.metric(x0, y0))
    e1 = np.array([1.0 / math.sqrt(a), 0.0])
    # Gram-Schmidt: e2 proportional to d/dy - (b/a) d/dx
    w = np.array([-b / a, 1.0])
    wn = math.sqrt(a * w[0] ** 2 + 2 * b * w[0] * w[1] + c * w[1] ** 2)
    e2 = w / wn
    vx = np.cos(thetas) * e1[0] + np.sin(thetas) * e2[0]
    vy = np.cos(thetas) * e1[1] + np.sin(thetas) * e2[1]
    ones = np.ones(vx.shape)
    return np.array([x0 * ones, y0 * ones, vx, vy, 0.0 * ones, ones])


def _accelerations(gamma, k, vx, vy, j) -> tuple:
    """(x'', y'', J''): the Christoffel contraction and J'' = -K J."""
    c111, c112, c122, c211, c212, c222 = gamma
    return (-(c111 * vx * vx + 2.0 * c112 * vx * vy + c122 * vy * vy),
            -(c211 * vx * vx + 2.0 * c212 * vx * vy + c222 * vy * vy), -k * j)


def _rhs(chart: SurfaceChart, state: np.ndarray) -> np.ndarray:
    """Derivative of the joint state (x, y, x', y', J, J') from the last three of the chart's fields."""
    out = np.empty_like(state)
    out[0], out[1], out[4] = state[2], state[3], state[5]
    out[2], out[3], out[5] = chart.fields(*state[:5])[10:]
    return out


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


def _scaled_max(v: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(v) / (TOL * (1.0 + np.abs(y)))))


def _initial_step(f, y: np.ndarray, f0: np.ndarray, t: float) -> float:
    """Starting step of HNW II.4 in the scaled max-norm; one extra flow evaluation."""
    d0, d1 = _scaled_max(y, y), _scaled_max(f0, y)
    h0 = 0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6
    d2 = _scaled_max(f(y + math.copysign(h0, t) * f0) - f0, y) / h0
    h1 = (0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 1e-15 else max(1e-6, 1e-3 * h0)
    return math.copysign(min(100.0 * h0, h1, abs(t)), t)


def _exit_time(chart: SurfaceChart, y0: np.ndarray, y1: np.ndarray, k: np.ndarray, t0: float, h: float) -> float:
    """Bisect the step's continuous extension for the time it leaves the rectangle (y0 inside, y1 outside)."""
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


def _dormand_prince(chart: SurfaceChart, f, y: np.ndarray, t: float) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) from 0 to t (backward for t < 0).

    One step serves every launch angle: the local error estimate is taken
    in the max-norm over all components and angles, scaled by
    TOL (1 + max(|y|, |y_new|)), and an accepted step costs six flow
    evaluations (the first stage is the last one of the step before).
    """
    if t == 0.0:
        return y
    k = np.empty((7,) + y.shape)
    flat = k.reshape(7, -1)
    k[0] = f(y)
    h = _initial_step(f, y, k[0], t)
    t_now, fac_max = 0.0, 10.0
    while t_now != t:
        last = abs(h) >= abs(t - t_now)
        if last:
            h = t - t_now
        elif t_now + h == t_now:
            raise ValueError(f"step size underflow at t = {t_now!r}: the metric is not smooth along the geodesic")
        for i in range(1, 7):
            y_new = y + h * (_DP_A[i, :i] @ flat[:i]).reshape(y.shape)
            k[i] = f(y_new)
        err = _scaled_max(h * (_DP_E @ flat).reshape(y.shape), np.maximum(np.abs(y), np.abs(y_new)))
        if err <= 1.0:
            if not chart.contains(y_new[0], y_new[1]):
                raise ChartExitError(_exit_time(chart, y, y_new, k, t_now, h))
            y, k[0] = y_new, k[6]
            t_now = t if last else t_now + h
        fac = min(fac_max, max(0.2, 0.9 * max(err, 1e-10) ** -0.2)) if math.isfinite(err) else 0.2
        fac_max = 10.0 if err <= 1.0 else 1.0
        h *= fac
    return y


def _integrate_front(chart: SurfaceChart, p, thetas, t: float) -> np.ndarray:
    """Joint state (x, y, x', y', J, J') at time t, one column per launch angle.

    A straight chart takes one Euler step, exact there because the
    Christoffel symbols and K vanish; other charts run DP5(4).
    """
    if not math.isfinite(t):
        raise ValueError(f"a geodesic needs a finite time, got {t}")
    state = _launch(chart, p, thetas)
    f = partial(_rhs, chart)
    if not chart.straight_geodesics:
        return _dormand_prince(chart, f, state, t)
    slope = f(state)
    end = state + t * slope
    if not chart.contains(end[0], end[1]):
        raise ChartExitError(_exit_time(chart, state, end, np.broadcast_to(slope, (7,) + state.shape), 0.0, t))
    return end


def geodesic(chart: SurfaceChart, p, theta: float, t: float):
    """Endpoint and tangent of the unit-speed geodesic from p in direction theta."""
    x, y, vx, vy = _integrate_front(chart, p, [theta], t)[:4, 0]
    return (float(x), float(y)), (float(vx), float(vy))


def jacobi_field(chart: SurfaceChart, p, theta: float, t: float) -> float:
    """J(t) along the geodesic, J'' + K J = 0 with J(0) = 0, J'(0) = 1."""
    return float(_integrate_front(chart, p, [theta], t)[4, 0])


def wavefront(chart: SurfaceChart, p, t: float, n_theta: int) -> WaveFront:
    if n_theta < 1:
        raise ValueError(f"a wave front needs n_theta >= 1, got {n_theta}")
    angles = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    state = _integrate_front(chart, p, angles, t)
    return WaveFront((float(p[0]), float(p[1])), t, angles, state[:2].T, state[2:4].T, state[4])


def wavefront_length(chart: SurfaceChart, p, t: float, n_theta: int = 64) -> float:
    """|W_t(p)| = integral over angles of |J(t, theta)| (trapezoid rule)."""
    return wavefront(chart, p, t, n_theta).length


def wavefront_line_integral(chart: SurfaceChart, oneform, p, t: float, n_theta: int = 1024) -> LineIntegralResult:
    """Trapezoid line integral of P dx + Q dy over the closed front polyline.

    Endpoints are ordered by launch angle; a non-monotone winding of the
    polyline around the center (front past the injectivity radius) sets the
    self-intersection warning flag.
    """
    p_fn, q_fn = oneform
    pts = wavefront(chart, p, t, n_theta).points
    ev = np.mod(pts, 1.0) if chart.periodic else pts
    p_vals = np.asarray(p_fn(ev[:, 0], ev[:, 1]), dtype=float)
    q_vals = np.asarray(q_fn(ev[:, 0], ev[:, 1]), dtype=float)
    nxt = np.roll(np.arange(n_theta), -1)
    dx = pts[nxt, 0] - pts[:, 0]
    dy = pts[nxt, 1] - pts[:, 1]
    value = float(np.sum(0.5 * (p_vals + p_vals[nxt]) * dx + 0.5 * (q_vals + q_vals[nxt]) * dy))
    rel = pts - np.array([p[0], p[1]])
    winding_angles = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    diffs = np.diff(winding_angles)
    warn = bool(np.any(diffs <= 0) or abs((winding_angles[-1] - winding_angles[0]) - 2 * math.pi * (n_theta - 1) / n_theta) > 0.5)
    return LineIntegralResult(value, warn)


def global_cancellation(chart: SurfaceChart, oneform, t: float, n_centers: int, n_theta: int = 512) -> float:
    """Average front line integral over a uniform grid of centers.

    n_centers is rounded down to a perfect square g x g.  On symmetric
    closed models (flat torus) the average cancels to quadrature accuracy.
    """
    g = max(int(math.isqrt(n_centers)), 1)
    xs = (np.arange(g) + 0.5) / g
    total = 0.0
    x_min, x_max, y_min, y_max = chart.bounds
    for cx in xs:
        for cy in xs:
            center = (x_min + cx * (x_max - x_min), y_min + cy * (y_max - y_min))
            total += wavefront_line_integral(chart, oneform, center, t, n_theta).value
    return total / (g * g)


# ---------------------------------------------------------------------------
# curvature from wave fronts
# ---------------------------------------------------------------------------


def _check_radius(name: str, r: float, power: int) -> None:
    """ValueError where r <= 0 or where 2^-52 r / r^power, the rounding of the front lengths over the divisor
    of a curvature estimate, exceeds 1e-3; the estimate's error is a few times that floor."""
    if r <= 0:
        raise ValueError(f"need a radius {name} > 0, got {r}")
    if r < 1.0 and r ** (power - 1) < 2.0**-52 / 1e-3:  # r < 1 first: a huge r would overflow the power
        raise ValueError(f"radius {name}={r!r} is too small: the estimate's rounding floor "
                         f"2^-52 {name} / {name}^{power} exceeds 1e-3")


def r2d2_curvature(chart: SurfaceChart, p, h: float, n_theta: int = 64) -> float:
    """(2 |W_h| - |W_2h|) / (2 pi h^3), the limit-free two-radius estimate."""
    _check_radius("h", h, 3)
    w1 = wavefront_length(chart, p, h, n_theta)
    w2 = wavefront_length(chart, p, 2.0 * h, n_theta)
    return (2.0 * w1 - w2) / (2.0 * math.pi * h**3)


def puiseux_curvature(chart: SurfaceChart, p, r: float, n_theta: int = 64) -> float:
    """3 (2 pi r - |W_r|) / (pi r^3), the classical circumference defect."""
    _check_radius("r", r, 3)
    w = wavefront_length(chart, p, r, n_theta)
    return 3.0 * (2.0 * math.pi * r - w) / (math.pi * r**3)


def r2d2_boundary(disc_radius: float, r: float) -> float:
    """Boundary-point estimate (2 |W_r| - |W_2r|) / (2 pi r^2) for a circular disc.

    Half-fronts at a boundary point of a disc of radius R have length
    |W_r| = 2 pi r arccos(r / (2R)); the estimate converges to the boundary
    curvature 1/R as r -> 0.  Needs r < R so both front lengths exist.
    """
    if disc_radius <= 0:
        raise ValueError("disc radius must be positive")
    if r <= 0 or r >= disc_radius:
        raise ValueError(f"need 0 < r < R, got r={r}, R={disc_radius}")
    _check_radius("r", r, 2)

    def front(radius: float) -> float:
        return 2.0 * math.pi * radius * math.acos(radius / (2.0 * disc_radius))

    return (2.0 * front(r) - front(2.0 * r)) / (2.0 * math.pi * r**2)
