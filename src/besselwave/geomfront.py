"""Geodesic wave fronts, Jacobi fields and limit-free curvature on 2-manifold charts.

A chart carries grammar-string metric components (see exprgrammar) over a
parameter rectangle.  Each chart compiles one jet: a single callable that
returns the metric, its six first partials and the three second partials
the Brioschi formula needs, all differentiated exactly from the
expressions.  Christoffel symbols (closed 2-D form) and the Gauss curvature
(Brioschi determinant) both read the jet.  Geodesics solve
xdd^k + Gamma^k_ij xd^i xd^j = 0 with a classical 4th-order Runge-Kutta
integrator, vectorized over launch angles, evaluating the jet once per
stage; the Jacobi field J'' + K J = 0, J(0) = 0, J'(0) = 1 rides along.
Charts whose metric is the constant identity have straight geodesics.
Wave-front lengths are the angular integral of |J|, and two limit-free
curvature estimates come from comparing front lengths at one and two radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .exprgrammar import compile_expression, compile_trees, derivative, parse_expression

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

DEFAULT_STEP = 1e-3
CHECK_POINTS = 7


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

    jet(x, y) returns (g11, g12, g22, g11_x, g12_x, g22_x, g11_y, g12_y,
    g22_y, g11_yy, g12_xy, g22_xx) in one evaluation; constant entries come
    back as scalars.  straight_geodesics holds when the metric is the
    constant identity; periodic marks the unit torus.
    """

    name: str
    g11: callable
    g12: callable
    g22: callable
    bounds: tuple[float, float, float, float]
    jet: callable
    straight_geodesics: bool
    periodic: bool = False

    def contains(self, x, y) -> bool:
        if self.periodic:
            return True
        x_min, x_max, y_min, y_max = self.bounds
        return bool(np.all((x >= x_min) & (x <= x_max) & (y >= y_min) & (y <= y_max)))

    def require(self, x: float, y: float) -> None:
        if not self.contains(x, y):
            raise ChartDomainError(f"point ({x}, {y}) outside rectangle {self.bounds} of {self.name}")

    def metric(self, x, y) -> tuple:
        return self.g11(x, y), self.g12(x, y), self.g22(x, y)


@dataclass(frozen=True)
class WaveFront:
    """Sampled geodesic circle: per-angle endpoints, tangents, Jacobi values."""

    center: tuple[float, float]
    radius: float
    angles: np.ndarray
    points: np.ndarray    # (n, 2)
    tangents: np.ndarray  # (n, 2)
    jacobi: np.ndarray    # (n,)


@dataclass(frozen=True)
class LineIntegralResult:
    value: float
    front_self_intersects: bool


def chart_from_expressions(g11: str, g12: str, g22: str, bounds, name: str = "custom") -> SurfaceChart:
    """Chart from grammar strings in x and y, checked positive-definite on a 7 x 7 sample grid."""
    e, f, g = (parse_expression(s) for s in (g11, g12, g22))
    d_x = [derivative(t, "x") for t in (e, f, g)]
    d_y = [derivative(t, "y") for t in (e, f, g)]
    jet = compile_trees((e, f, g, *d_x, *d_y, derivative(d_y[0], "y"), derivative(d_x[1], "y"),
                         derivative(d_x[2], "x")))
    chart = SurfaceChart(name, compile_expression(g11), compile_expression(g12), compile_expression(g22),
                         tuple(float(b) for b in bounds), jet, (e, f, g) == (1.0, 0.0, 1.0))
    x_min, x_max, y_min, y_max = chart.bounds
    gx, gy = np.meshgrid(np.linspace(x_min, x_max, CHECK_POINTS), np.linspace(y_min, y_max, CHECK_POINTS))
    a, b, c = chart.metric(gx, gy)
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
# Christoffel symbols and curvature from the jet
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
    """Gamma[k][i][j] at (x, y); broadcasts over array input."""
    if np.ndim(x) == 0:
        chart.require(float(x), float(y))
    c = np.broadcast_arrays(*_christoffel(chart.jet(x, y)), x, y)
    return np.array([[[c[0], c[1]], [c[1], c[2]]], [[c[3], c[4]], [c[4], c[5]]]], dtype=float)


def gauss_curvature_brioschi(chart: SurfaceChart, x, y):
    """Gauss curvature from the metric alone (Brioschi determinant formula).

    Exact metric derivatives from the chart's jet.  Broadcasts over array input.
    """
    out = _brioschi(chart.jet(x, y)) + np.zeros(np.broadcast(x, y).shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# geodesic and Jacobi integration (vectorized over launch angles)
# ---------------------------------------------------------------------------


def _unit_velocity(chart: SurfaceChart, x0: float, y0: float, thetas: np.ndarray):
    """Velocity of metric norm one in the orthonormal frame aligned with d/dx."""
    a, b, c = (float(np.asarray(v)) for v in chart.metric(x0, y0))
    e1 = np.array([1.0 / math.sqrt(a), 0.0])
    # Gram-Schmidt: e2 proportional to d/dy - (b/a) d/dx
    w = np.array([-b / a, 1.0])
    wn = math.sqrt(a * w[0] ** 2 + 2 * b * w[0] * w[1] + c * w[1] ** 2)
    e2 = w / wn
    vx = np.cos(thetas) * e1[0] + np.sin(thetas) * e2[0]
    vy = np.cos(thetas) * e1[1] + np.sin(thetas) * e2[1]
    return vx, vy


def _rhs(chart: SurfaceChart, state: np.ndarray, want_jacobi: bool) -> np.ndarray:
    x, y, vx, vy = state[0], state[1], state[2], state[3]
    jet = chart.jet(x, y)
    c111, c112, c122, c211, c212, c222 = _christoffel(jet)
    ax = -(c111 * vx * vx + 2.0 * c112 * vx * vy + c122 * vy * vy)
    ay = -(c211 * vx * vx + 2.0 * c212 * vx * vy + c222 * vy * vy)
    out = [vx, vy, ax, ay]
    if want_jacobi:
        out += [state[5], -_brioschi(jet) * state[4]]
    return np.array(out)


def _integrate_front(chart: SurfaceChart, p, thetas: np.ndarray, t: float,
                     steps: int | None, want_jacobi: bool):
    """RK4 on the geodesic (+ Jacobi) system for a batch of angles."""
    x0, y0 = float(p[0]), float(p[1])
    chart.require(x0, y0)
    thetas = np.asarray(thetas, dtype=float)
    if chart.straight_geodesics:
        pts = np.stack([x0 + t * np.cos(thetas), y0 + t * np.sin(thetas)], axis=-1)
        tans = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        if not chart.periodic and not chart.contains(pts[..., 0], pts[..., 1]):
            x_min, x_max, y_min, y_max = chart.bounds
            exit_t = t
            for direction, lo, hi, start in (
                (np.cos(thetas), x_min, x_max, x0),
                (np.sin(thetas), y_min, y_max, y0),
            ):
                with np.errstate(divide="ignore", invalid="ignore"):
                    hits = np.where(direction > 0, (hi - start) / direction,
                                    np.where(direction < 0, (lo - start) / direction, np.inf))
                exit_t = min(exit_t, float(np.min(hits)))
            raise ChartExitError(exit_t)
        return pts, tans, np.full(thetas.shape, t)
    if steps is None:
        steps = max(int(math.ceil(abs(t) / DEFAULT_STEP)), 8)
    h = t / steps
    vx, vy = _unit_velocity(chart, x0, y0, thetas)
    state = np.array([np.full(thetas.shape, x0), np.full(thetas.shape, y0), vx, vy])
    if want_jacobi:
        state = np.concatenate([state, np.zeros((1,) + thetas.shape), np.ones((1,) + thetas.shape)])
    x_min, x_max, y_min, y_max = chart.bounds
    for step in range(steps):
        k1 = _rhs(chart, state, want_jacobi)
        k2 = _rhs(chart, state + 0.5 * h * k1, want_jacobi)
        k3 = _rhs(chart, state + 0.5 * h * k2, want_jacobi)
        k4 = _rhs(chart, state + h * k3, want_jacobi)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not chart.periodic:
            if np.any(state[0] < x_min) or np.any(state[0] > x_max) or \
               np.any(state[1] < y_min) or np.any(state[1] > y_max):
                raise ChartExitError((step + 1) * h)
    pts = np.stack([state[0], state[1]], axis=-1)
    tans = np.stack([state[2], state[3]], axis=-1)
    return pts, tans, state[4] if want_jacobi else np.full(thetas.shape, np.nan)


def geodesic(chart: SurfaceChart, p, theta: float, t: float, steps: int | None = None):
    """Endpoint and tangent of the unit-speed geodesic from p in direction theta."""
    pts, tans, _ = _integrate_front(chart, p, np.array([theta]), t, steps, want_jacobi=False)
    return (float(pts[0, 0]), float(pts[0, 1])), (float(tans[0, 0]), float(tans[0, 1]))


def jacobi_field(chart: SurfaceChart, p, theta: float, t: float, steps: int | None = None) -> float:
    """J(t) along the geodesic, J'' + K J = 0 with J(0) = 0, J'(0) = 1."""
    _, _, jac = _integrate_front(chart, p, np.array([theta]), t, steps, want_jacobi=True)
    return float(jac[0])


def wavefront(chart: SurfaceChart, p, t: float, n_theta: int, steps: int | None = None) -> WaveFront:
    angles = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    pts, tans, jac = _integrate_front(chart, p, angles, t, steps, want_jacobi=True)
    return WaveFront((float(p[0]), float(p[1])), t, angles, pts, tans, jac)


def wavefront_length(chart: SurfaceChart, p, t: float, n_theta: int = 64,
                     steps: int | None = None) -> float:
    """|W_t(p)| = integral over angles of |J(t, theta)| (trapezoid rule)."""
    front = wavefront(chart, p, t, n_theta, steps)
    return float(np.mean(np.abs(front.jacobi)) * 2.0 * math.pi)


def _wrap_for_eval(chart: SurfaceChart, pts: np.ndarray) -> np.ndarray:
    if chart.periodic:
        return np.mod(pts, 1.0)
    return pts


def wavefront_line_integral(chart: SurfaceChart, oneform, p, t: float,
                            n_theta: int = 1024, steps: int | None = None) -> LineIntegralResult:
    """Trapezoid line integral of P dx + Q dy over the closed front polyline.

    Endpoints are ordered by launch angle; a non-monotone winding of the
    polyline around the center (front past the injectivity radius) sets the
    self-intersection warning flag.
    """
    p_fn, q_fn = oneform
    front = wavefront(chart, p, t, n_theta, steps)
    pts = front.points
    ev = _wrap_for_eval(chart, pts)
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


def global_cancellation(chart: SurfaceChart, oneform, t: float, n_centers: int,
                        n_theta: int = 512, steps: int | None = None) -> float:
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
            total += wavefront_line_integral(chart, oneform, center, t, n_theta, steps).value
    return total / (g * g)


# ---------------------------------------------------------------------------
# curvature from wave fronts
# ---------------------------------------------------------------------------


def r2d2_curvature(chart: SurfaceChart, p, h: float, n_theta: int = 64,
                   steps: int | None = None) -> float:
    """(2 |W_h| - |W_2h|) / (2 pi h^3), the limit-free two-radius estimate."""
    w1 = wavefront_length(chart, p, h, n_theta, steps)
    w2 = wavefront_length(chart, p, 2.0 * h, n_theta, steps)
    return (2.0 * w1 - w2) / (2.0 * math.pi * h**3)


def puiseux_curvature(chart: SurfaceChart, p, r: float, n_theta: int = 64,
                      steps: int | None = None) -> float:
    """3 (2 pi r - |W_r|) / (pi r^3), the classical circumference defect."""
    w = wavefront_length(chart, p, r, n_theta, steps)
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

    def front(radius: float) -> float:
        return 2.0 * math.pi * radius * math.acos(radius / (2.0 * disc_radius))

    return (2.0 * front(r) - front(2.0 * r)) / (2.0 * math.pi * r**2)
