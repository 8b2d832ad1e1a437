"""Charts, geodesics, Jacobi fields, wave-front lengths and curvature estimates."""

import math

import numpy as np
import pytest

from _oracles import fd_brioschi, fd_christoffel
from besselwave.exprgrammar import ExpressionError, compile_expression
from besselwave.geomfront import (
    ChartExitError,
    PositiveDefiniteError,
    chart_from_expressions,
    christoffel,
    flat_chart,
    gauss_curvature_brioschi,
    geodesic,
    global_cancellation,
    hyperbolic_chart,
    jacobi_field,
    puiseux_curvature,
    r2d2_boundary,
    r2d2_curvature,
    sphere_chart,
    torus_chart,
    wavefront,
    wavefront_length,
    wavefront_line_integral,
)

SPHERE_POINT = (math.pi / 2, 0.3)
HYPERBOLIC_POINT = (0.0, 1.0)


def embed_sphere(x, y):
    return np.array([math.sin(x) * math.cos(y), math.sin(x) * math.sin(y), math.cos(x)])


class TestChristoffel:
    def test_euclidean_zero(self):
        assert np.abs(christoffel(flat_chart(), 0.3, -0.2)).max() == 0.0

    def test_sphere_closed_forms(self):
        x = 1.1
        gamma = christoffel(sphere_chart(), x, 0.4)
        assert gamma[0, 1, 1] == pytest.approx(-math.sin(x) * math.cos(x), abs=1e-12)
        assert gamma[1, 0, 1] == pytest.approx(1.0 / math.tan(x), abs=1e-12)

    def test_sphere_finite_difference_cross_check(self):
        sphere = sphere_chart()
        got = fd_christoffel(sphere, 1.1, 0.4)
        expect = christoffel(sphere, 1.1, 0.4)
        assert np.abs(got - expect).max() < 1e-6

    def test_hyperbolic_closed_forms(self):
        gamma = christoffel(hyperbolic_chart(), 0.5, 2.0)
        assert gamma[0, 0, 1] == pytest.approx(-0.5, abs=1e-12)
        assert gamma[1, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert gamma[1, 1, 1] == pytest.approx(-0.5, abs=1e-12)

    def test_outside_rectangle(self):
        with pytest.raises(Exception):
            christoffel(sphere_chart(), -1.0, 0.0)


class TestGeodesics:
    def test_flat_straight_line(self):
        end, tan = geodesic(flat_chart(), (0.2, 0.1), 0.7, 1.5)
        assert end[0] == pytest.approx(0.2 + 1.5 * math.cos(0.7), abs=1e-10)
        assert end[1] == pytest.approx(0.1 + 1.5 * math.sin(0.7), abs=1e-10)

    def test_sphere_great_circle(self):
        sphere = sphere_chart()
        t = 0.8
        p0 = embed_sphere(*SPHERE_POINT)
        e1 = np.array([
            math.cos(SPHERE_POINT[0]) * math.cos(SPHERE_POINT[1]),
            math.cos(SPHERE_POINT[0]) * math.sin(SPHERE_POINT[1]),
            -math.sin(SPHERE_POINT[0]),
        ])
        e2 = np.array([-math.sin(SPHERE_POINT[1]), math.cos(SPHERE_POINT[1]), 0.0])
        for theta in (0.0, 0.9, 2.2):
            end, _ = geodesic(sphere, SPHERE_POINT, theta, t, steps=1000)
            v0 = math.cos(theta) * e1 + math.sin(theta) * e2
            expect = math.cos(t) * p0 + math.sin(t) * v0
            assert np.abs(embed_sphere(*end) - expect).max() < 1e-8

    def test_meridian_colatitude_advance(self):
        # great-circle arc: along a meridian the colatitude moves at unit rate
        end, _ = geodesic(sphere_chart(), (0.05, 0.0), 0.0, 0.9, steps=1000)
        assert end[0] == pytest.approx(0.05 + 0.9, abs=1e-8)
        assert end[1] == pytest.approx(0.0, abs=1e-10)

    def test_metric_speed_preserved(self):
        hyper = hyperbolic_chart()
        end, tan = geodesic(hyper, HYPERBOLIC_POINT, 0.4, 3.0, steps=3000)
        a, b, c = hyper.metric(end[0], end[1])
        speed = a * tan[0] ** 2 + 2 * b * tan[0] * tan[1] + c * tan[1] ** 2
        assert abs(speed - 1.0) < 1e-8

    def test_exit_reports_time(self):
        with pytest.raises(ChartExitError) as err:
            geodesic(flat_chart(extent=1.0), (0.9, 0.0), 0.0, 1.0)
        assert 0.0 < err.value.exit_time <= 1.0


class TestJacobi:
    def test_flat_linear(self):
        assert jacobi_field(flat_chart(), (0, 0), 0.3, 1.2) == pytest.approx(1.2, abs=1e-12)

    def test_sphere_sine(self):
        assert jacobi_field(sphere_chart(), SPHERE_POINT, 1.0, 0.9, steps=900) == pytest.approx(
            math.sin(0.9), abs=1e-8
        )

    def test_hyperbolic_sinh(self):
        assert jacobi_field(hyperbolic_chart(), HYPERBOLIC_POINT, 1.0, 0.9, steps=900) == pytest.approx(
            math.sinh(0.9), abs=1e-8
        )

    def test_negative_curvature_spreads(self):
        hyper = hyperbolic_chart()
        for theta in np.linspace(0.0, 2 * math.pi, 9)[:-1]:
            for t in (0.3, 0.8, 1.5):
                assert jacobi_field(hyper, HYPERBOLIC_POINT, float(theta), t, steps=600) >= t


class TestWaveFrontLength:
    def test_sphere(self):
        for t in (0.3, 0.7, 1.0):
            got = wavefront_length(sphere_chart(), SPHERE_POINT, t, 64)
            assert abs(got - 2 * math.pi * math.sin(t)) < 1e-6

    def test_flat(self):
        assert wavefront_length(flat_chart(), (0.1, -0.2), 0.7, 64) == pytest.approx(
            2 * math.pi * 0.7, abs=1e-12
        )

    def test_hyperbolic(self):
        got = wavefront_length(hyperbolic_chart(), HYPERBOLIC_POINT, 0.7, 64)
        assert abs(got - 2 * math.pi * math.sinh(0.7)) < 1e-6

    def test_front_record(self):
        front = wavefront(sphere_chart(), SPHERE_POINT, 0.5, 32)
        assert front.points.shape == (32, 2)
        assert np.all(np.isfinite(front.jacobi))
        assert np.all(np.diff(front.angles) > 0)


class TestCurvatureEstimates:
    def test_r2d2_sphere(self):
        got = r2d2_curvature(sphere_chart(), SPHERE_POINT, 0.1)
        assert abs(got - 0.9975) < 3e-3  # 1 - h^2/4 at h = 0.1

    def test_r2d2_hyperbolic(self):
        got = r2d2_curvature(hyperbolic_chart(), HYPERBOLIC_POINT, 0.1)
        assert abs(got + 1.0025) < 3e-3  # -(1 + h^2/4)

    def test_r2d2_flat(self):
        assert abs(r2d2_curvature(flat_chart(), (0, 0), 0.2)) < 1e-8

    def test_puiseux(self):
        # sphere: 1 - r^2/20 + O(r^4); hyperbolic mirrors with sign
        got = puiseux_curvature(sphere_chart(), SPHERE_POINT, 0.1)
        assert abs(got - (1.0 - 0.01 / 20.0)) < 1e-4
        assert abs(puiseux_curvature(flat_chart(), (0, 0), 0.1)) < 1e-10
        got_h = puiseux_curvature(hyperbolic_chart(), HYPERBOLIC_POINT, 0.1)
        assert abs(got_h + (1.0 + 0.01 / 20.0)) < 1e-4

    def test_r2d2_puiseux_quadratic_agreement(self):
        sphere = sphere_chart()
        consts = []
        for h in (0.2, 0.1, 0.05):
            diff = abs(r2d2_curvature(sphere, SPHERE_POINT, h) - puiseux_curvature(sphere, SPHERE_POINT, h))
            consts.append(diff / h**2)
        assert max(consts) / min(consts) < 1.2

    def test_boundary_richardson(self):
        seq = [r2d2_boundary(1.0, r) for r in (0.1, 0.05, 0.025)]
        rich1 = (4 * seq[1] - seq[0]) / 3
        rich2 = (4 * seq[2] - seq[1]) / 3
        extrap = (16 * rich2 - rich1) / 15
        assert abs(extrap - 1.0) < 1e-3

    def test_boundary_radius_scaling(self):
        assert r2d2_boundary(2.0, 0.005) == pytest.approx(0.5, abs=1e-4)
        assert abs(r2d2_boundary(1e6, 0.01)) < 1e-5

    def test_boundary_domain_guard(self):
        with pytest.raises(ValueError):
            r2d2_boundary(1.0, 1.0)
        with pytest.raises(ValueError):
            r2d2_boundary(1.0, 2.5)


class TestLineIntegrals:
    def test_green_curl(self):
        res = wavefront_line_integral(
            flat_chart(), (lambda x, y: -y, lambda x, y: x), (0.3, 0.2), 0.5, n_theta=4096
        )
        assert abs(res.value - 2 * math.pi * 0.25) < 1e-6
        assert not res.front_self_intersects

    def test_exact_form_zero(self):
        res = wavefront_line_integral(
            flat_chart(), (lambda x, y: y, lambda x, y: x), (0.3, 0.2), 0.5, n_theta=512
        )
        assert abs(res.value) < 1e-8

    def test_sphere_against_green_quadrature(self):
        sphere = sphere_chart()
        center = (1.2, 0.4)
        t = 0.4
        p_fn = lambda x, y: x * y
        q_fn = lambda x, y: x * x
        curl = lambda x, y: 2.0 * x - x  # dQ/dx - dP/dy
        res = wavefront_line_integral(sphere, (p_fn, q_fn), center, t, n_theta=1024)
        # Green in chart coordinates: triangulate the enclosed region as a
        # fan from the center and use midpoint-edge quadrature per triangle.
        front = wavefront(sphere, center, t, 1024)
        pts = front.points
        total = 0.0
        c = np.array(center)
        for i in range(len(pts)):
            a, b = pts[i], pts[(i + 1) % len(pts)]
            area = 0.5 * ((a[0] - c[0]) * (b[1] - c[1]) - (b[0] - c[0]) * (a[1] - c[1]))
            mids = [(a + b) / 2, (a + c) / 2, (b + c) / 2]
            total += area * sum(curl(m[0], m[1]) for m in mids) / 3.0
        assert abs(res.value - total) < 1e-4

    def test_self_intersection_flag(self):
        # a slow conformal lens folds the front into a swallowtail caustic
        # once t passes the focal distance; before that the flag stays off
        expr = "exp(2*exp(-(x^2+y^2)))"
        lens = chart_from_expressions(expr, "0", expr, (-12, 12, -12, 12), name="lens")
        field = (lambda x, y: -y, lambda x, y: x)
        before = wavefront_line_integral(lens, field, (-2.0, 0.0), 2.0, n_theta=256)
        after = wavefront_line_integral(lens, field, (-2.0, 0.0), 5.0, n_theta=256)
        assert not before.front_self_intersects
        assert after.front_self_intersects


class TestGlobalCancellation:
    def test_trig_form_cancels(self):
        oneform = (
            lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x, y: np.sin(2 * math.pi * np.asarray(x, dtype=float)),
        )
        avg = global_cancellation(torus_chart(), oneform, 0.2, 256, n_theta=512)
        assert abs(avg) < 1e-6

    def test_exact_form_each_integral_zero(self):
        oneform = (
            lambda x, y: np.cos(2 * math.pi * np.asarray(x, dtype=float)) * 2 * math.pi,
            lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        )
        # P dx with P = d/dx sin(2 pi x): exact, so each loop integral vanishes
        avg = global_cancellation(torus_chart(), oneform, 0.2, 16, n_theta=512)
        assert abs(avg) < 1e-9

    def test_refinement_shrinks(self):
        # the curl carries an x-frequency-8 mode: the 8x8 center grid
        # aliases it, the 16x16 grid cancels it
        def p_fn(x, y):
            return 0.3 * np.cos(2 * math.pi * np.asarray(y, dtype=float))

        def q_fn(x, y):
            return np.sin(2 * math.pi * 8 * np.asarray(x, dtype=float))

        coarse = abs(global_cancellation(torus_chart(), (p_fn, q_fn), 0.2, 64, n_theta=256))
        fine = abs(global_cancellation(torus_chart(), (p_fn, q_fn), 0.2, 256, n_theta=256))
        assert fine * 2.0 <= coarse


class TestChartConstruction:
    def test_positive_definite_guard(self):
        with pytest.raises(PositiveDefiniteError):
            chart_from_expressions("-1", "0", "1", (-1, 1, -1, 1))

    def test_expression_chart_matches_builtin(self):
        chart = chart_from_expressions("1", "0", "sin(x)^2", (0.05, math.pi - 0.05, -10, 10))
        sphere = sphere_chart()
        for x in (0.7, 1.4, 2.2):
            assert chart.g22(x, 0.0) == pytest.approx(float(np.asarray(sphere.g22(x, 0.0))))
        assert gauss_curvature_brioschi(chart, 1.2, 0.0) == pytest.approx(1.0, abs=1e-5)

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')")
        with pytest.raises(ExpressionError):
            compile_expression("z + 1")
        with pytest.raises(ExpressionError):
            compile_expression("tan(x)")

    def test_expression_grammar_features(self):
        fn = compile_expression("2*x^2 - sinh(y)/3 + pi")
        assert fn(1.5, 0.2) == pytest.approx(2 * 1.5**2 - math.sinh(0.2) / 3 + math.pi)


class TestBrioschi:
    def test_sphere_metric_only(self):
        sphere = sphere_chart()
        for x in (0.8, 1.3, 2.0):
            assert gauss_curvature_brioschi(sphere, x, 0.4) == pytest.approx(1.0, abs=1e-5)

    def test_hyperbolic_metric_only(self):
        assert gauss_curvature_brioschi(hyperbolic_chart(), 0.3, 1.5) == pytest.approx(-1.0, abs=1e-5)

    @pytest.mark.parametrize("g11, g22, curvature", [("1", "sin(x)^2", 1.0), ("1/y^2", "1/y^2", -1.0)])
    def test_exact_constant_curvature(self, g11, g22, curvature):
        chart = chart_from_expressions(g11, "0", g22, (0.05, 3.09, 0.05, 3.0))
        for x, y in ((0.3, 0.2), (0.8, 1.4), (1.57, 0.6), (2.3, 2.7), (3.0, 0.1)):
            assert abs(gauss_curvature_brioschi(chart, x, y) - curvature) < 1e-12


# Every grammar node: pi, unary minus, /, constant and variable ^, the five
# functions, nesting, and the conformal lens of the self-intersection test.
ORACLE_CHARTS = [
    ("1", "0", "sin(x)^2"),
    ("1/y^2", "0", "1/y^2"),
    ("exp(x/pi)", "-sin(x*y)/4", "cosh(y)^2"),
    ("2^x + sinh(y/2)^2", "cos(x - y)/5", "(2 + x^2)^(y/3)"),
    ("exp(sin(x)*cos(y))", "0", "cosh(sin(x*y))"),
    ("exp(2*exp(-(x^2+y^2)))", "0", "exp(2*exp(-(x^2+y^2)))"),
]


class TestExactDerivatives:
    @pytest.mark.parametrize("g11, g12, g22", ORACLE_CHARTS)
    def test_against_finite_difference_oracle(self, g11, g12, g22):
        chart = chart_from_expressions(g11, g12, g22, (0.2, 2.0, 0.2, 2.0))
        for x, y in ((0.7, 0.4), (1.3, 1.1), (0.4, 1.7)):
            gamma, expect = christoffel(chart, x, y), fd_christoffel(chart, x, y)
            assert np.abs(gamma - expect).max() <= 1e-6 * max(1.0, np.abs(expect).max())
            k, k_fd = gauss_curvature_brioschi(chart, x, y), fd_brioschi(chart, x, y)
            assert abs(k - k_fd) <= 1e-6 * max(1.0, abs(k_fd))
