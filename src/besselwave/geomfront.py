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
adaptive 8th-order DOP853 (Prince & Dormand 1981; Hairer, Norsett & Wanner,
Solving ODEs I, II.10), vectorized over launch angles with one flow
evaluation per stage: one step size serves every angle, chosen so that the
error estimate, built from the embedded 5th- and 3rd-order solutions in the
max-norm over all components and angles, stays below TOL (1 + max(|y|,
|y_new|)).  A step that leaves the chart rectangle is bisected on its
7th-order continuous extension, so ChartExitError carries the exit time to
about TOL.  The Dormand-Prince 5(4) pair and fixed-step RK4 on the same
system are test oracles (tests/_oracles.py).  Charts whose metric is the
constant identity take one exact step of the same system, since their
Christoffel symbols and K vanish; an exit there is bisected on the same
extension, which is the straight line when every stage equals the slope,
as each stage is summed against the first.  Wave-front
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

TOL = 2e-13
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


def _tableau(width: int, *rows: dict) -> np.ndarray:
    """Dense rows from {column: coefficient} dicts."""
    out = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


# DOP853: Hairer's dop853.f coefficients (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.10, after
# Prince & Dormand 1981), each the nearest double.  Nodes c_i and stage rows a_ij: rows 1-11 are the stages,
# row 12 the 8th-order weights b (at c = 1; its slope is the next step's first stage) and rows 13-15 the
# extra stages of the 7th-order continuous extension.  Then the 5th-order error weights, the 3rd-order
# weights bhh (taken off b, as dop853.f does) and the extension's four rows d.
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
               0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
               1.0, 1.0, 0.1, 0.2, 0.7777777777777778])
_A = _tableau(
    16, {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328, 5: -0.015319437748624402,
     6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
     6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843, 5: 21.230051448181193,
     6: 15.279233632882423, 7: -33.28821096898486, 8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295, 5: -8.149787010746927,
     6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
     6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
     10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003, 7: -5.801203960010585,
     8: 0.3111643669578199, 9: -0.1521609496625161, 10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025, 8: -0.12419142326381637,
     9: 0.15329179827876568, 10: 0.00820105229563469, 11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566, 7: -0.05492374857139099,
     10: -0.00010834732869724932, 11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
     8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724, 14: -9.15095847217987},
)
_E5 = _tableau(12, {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
                    7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
                    10: 0.08192320648511571, 11: -0.022355307863886294})[0]
_E3 = _A[12, :12] - _tableau(12, {0: 0.2440944881889764, 8: 0.7338466882816118, 11: 0.022058823529411766})[0]
_D = _tableau(
    16,
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
     8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
     8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398, 11: -9.332130526430229,
     12: 15.697238121770845, 13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
     8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
     8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
     12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
)
# The stepper keeps K_0 in row 0 and K_j - K_0 in row j >= 1, so row i of _STAGES puts c_i on K_0.  Summed in
# floats, a row's weights reach its node only to about 1e-15 (b's read 1 + 4.4e-16, an error r2d2 divides by
# h^3); summed against K_0, a constant slope advances by exactly c_i h.  The error and extension weights sum to 0.
_STAGES = np.column_stack([_C, _A[:, 1:]])


def _scaled_max(v: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(v) / (TOL * (1.0 + np.abs(y)))))


def _initial_step(f, y: np.ndarray, f0: np.ndarray, t: float) -> float:
    """Starting step of HNW II.4 for an 8th-order method in the scaled max-norm; one extra flow evaluation."""
    d0, d1 = _scaled_max(y, y), _scaled_max(f0, y)
    h0 = 0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6
    d2 = _scaled_max(f(y + math.copysign(h0, t) * f0) - f0, y) / h0
    h1 = (0.01 / max(d1, d2)) ** 0.125 if max(d1, d2) > 1e-15 else max(1e-6, 1e-3 * h0)
    return math.copysign(min(100.0 * h0, h1, abs(t)), t)


def _stage(f, y: np.ndarray, k: np.ndarray, h: float, i: int) -> np.ndarray:
    """K_i - K_0 for row i of _STAGES, from K_0 and the differences in rows 1..i-1 of k."""
    return f(y + h * (_STAGES[i, :i] @ k[:i].reshape(i, -1)).reshape(y.shape)) - k[0]


def _exit_time(chart: SurfaceChart, f, y0: np.ndarray, y1: np.ndarray, k: np.ndarray, t0: float, h: float) -> float:
    """Bisect the step's 7th-order continuous extension (HNW II.6) for the time it leaves the rectangle
    (y0 inside, y1 outside); k holds K_0 and K_j - K_0 for j = 1..12, and three more evaluations fill 13-15."""
    for i in range(13, 16):
        k[i] = _stage(f, y0, k, h, i)
    dy = (y1 - y0)[:2]
    k0 = k[0, :2]
    f1 = h * k0 - dy
    f2 = 2.0 * dy - h * (2.0 * k0 + k[12, :2])
    d3, d4, d5, d6 = h * np.tensordot(_D[:, 1:], k[1:, :2], axes=1)
    lo, hi = 0.0, 1.0
    while lo < (s := 0.5 * (lo + hi)) < hi:
        r = 1.0 - s
        x, y = y0[:2] + s * (dy + r * (f1 + s * (f2 + r * (d3 + s * (d4 + r * (d5 + s * d6))))))
        if chart.contains(x, y):
            lo = s
        else:
            hi = s
    return t0 + hi * h


def _dop853(chart: SurfaceChart, f, y: np.ndarray, t: float) -> np.ndarray:
    """Adaptive DOP853 from 0 to t (backward for t < 0).

    One step serves every launch angle.  The 5th- and 3rd-order error
    estimates e5 and e3 are each taken in the max-norm over all components
    and angles, scaled by TOL (1 + max(|y|, |y_new|)), and combined as
    |h| e5^2 / sqrt(e5^2 + 0.01 e3^2); a NaN estimate refuses the step.  An
    accepted step costs twelve flow evaluations, a refused one eleven (the
    first stage is the last slope of the step before).
    """
    if t == 0.0:
        return y
    k = np.empty((16,) + y.shape)
    k[0] = f(y)
    h = _initial_step(f, y, k[0], t)
    t_now, fac_max = 0.0, 10.0
    while t_now != t:
        last = abs(h) >= abs(t - t_now)
        if last:
            h = t - t_now
        elif t_now + h == t_now:
            raise ValueError(f"step size underflow at t = {t_now!r}: the metric is not smooth along the geodesic")
        for i in range(1, 12):
            k[i] = _stage(f, y, k, h, i)
        flat = k[:12].reshape(12, -1)
        y_new = y + h * (_STAGES[12, :12] @ flat).reshape(y.shape)
        y_max = np.maximum(np.abs(y), np.abs(y_new)).reshape(-1)
        e5, e3 = (_scaled_max(w[1:] @ flat[1:], y_max) for w in (_E5, _E3))
        den = e5 * e5 + 0.01 * e3 * e3
        err = abs(h) * e5 * e5 / math.sqrt(den) if den != 0.0 else 0.0  # a NaN estimate stays NaN: refused
        if err <= 1.0:
            slope = f(y_new)
            k[12] = slope - k[0]
            if not chart.contains(y_new[0], y_new[1]):
                raise ChartExitError(_exit_time(chart, f, y, y_new, k, t_now, h))
            y, k[0] = y_new, slope
            t_now = t if last else t_now + h
        fac = min(fac_max, max(0.2, 0.9 * max(err, 1e-10) ** -0.125)) if math.isfinite(err) else 0.2
        fac_max = 10.0 if err <= 1.0 else 1.0
        h *= fac
    return y


def _integrate_front(chart: SurfaceChart, p, thetas, t: float) -> np.ndarray:
    """Joint state (x, y, x', y', J, J') at time t, one column per launch angle.

    A straight chart takes one Euler step, exact there because the
    Christoffel symbols and K vanish; other charts run DOP853.
    """
    if not math.isfinite(t):
        raise ValueError(f"a geodesic needs a finite time, got {t}")
    state = _launch(chart, p, thetas)
    f = partial(_rhs, chart)
    if not chart.straight_geodesics:
        return _dop853(chart, f, state, t)
    slope = f(state)
    end = state + t * slope
    if not chart.contains(end[0], end[1]):
        k = np.zeros((16,) + state.shape)
        k[0] = slope
        raise ChartExitError(_exit_time(chart, f, state, end, k, 0.0, t))
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

    n_centers >= 1 is rounded down to a perfect square g x g.  On symmetric
    closed models (flat torus) the average cancels to quadrature accuracy.
    """
    if n_centers < 1:
        raise ValueError(f"global_cancellation needs n_centers >= 1, got {n_centers}")
    g = math.isqrt(n_centers)
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
