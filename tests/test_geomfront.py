"""Charts, geodesics, Jacobi fields, wave-front lengths and curvature estimates."""

import dataclasses
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest

from _oracles import dp54_front, fd_brioschi, fd_christoffel, float_jet, jet_rhs, rk4_front, tuple_keyed_source
from besselwave import exprgrammar, geomfront, verify
from besselwave.exprgrammar import ExpressionError, Symbolic, compile_expression, compile_trees, parse_expression
from besselwave.geomfront import (
    ChartDomainError,
    ChartExitError,
    PositiveDefiniteError,
    _integrate_front,
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

    def test_contains_takes_floats_lists_and_arrays(self):
        sphere = sphere_chart()
        assert sphere.contains(1.0, 0.0) and not sphere.contains(4.0, 0.0)
        assert sphere.contains([1.0, 2.0], [0.0, 5.0]) and not sphere.contains([1.0, 0.0], [0.0, 0.0])
        assert not sphere.contains(np.array([1.0, math.nan]), np.zeros(2))
        assert torus_chart().contains([7.0], [-3.0])

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (math.inf, 0.0), (0.3, -math.inf)], ids=str)
    def test_periodic_chart_holds_only_finite_points(self, x, y):
        # the torus wraps every finite point, but a non-finite one has no place on it
        torus = torus_chart()
        assert not torus.contains(x, y) and not torus.contains([0.5, x], [0.5, y])
        with pytest.raises(ChartDomainError):
            wavefront(torus, (x, y), 0.5, 8)
        with pytest.raises(ChartDomainError):
            r2d2_curvature(torus, (x, y), 0.1)

    @pytest.mark.parametrize("chart", [torus_chart(), sphere_chart(), hyperbolic_chart()], ids=lambda c: c.name)
    def test_refusal_names_the_non_finite_coordinate(self, chart):
        # a non-finite point is refused as such, not as "outside rectangle", which the torus has no use for
        for (x, y), axis in (((math.nan, 0.5), "x"), ((0.5, math.inf), "y"), ((-math.inf, math.nan), "x")):
            message = f"point ({x}, {y}) has a non-finite {axis} coordinate; every point of {chart.name} is finite"
            with pytest.raises(ChartDomainError, match=f"^{re.escape(message)}$"):
                chart.require(x, y)
            with pytest.raises(ChartDomainError, match=re.escape(message)):
                wavefront(chart, (x, y), 0.5, 8)

    @pytest.mark.parametrize("chart, x, y", [(sphere_chart(), 0.0, 0.0), (hyperbolic_chart(), 0.0, 0.0),
                                             (sphere_chart(), 4.0, 0.0)],
                             ids=["sphere-pole", "hyperbolic-edge", "sphere-x4"])
    def test_both_metric_quantities_refuse_points_outside(self, chart, x, y):
        # Brioschi has no meaning outside the rectangle (nan at the sphere's pole and the hyperbolic
        # boundary, a plausible 1.0 at x = 4 past the sphere's edge), whatever the shape of the point
        for quantity in (christoffel, gauss_curvature_brioschi):
            with pytest.raises(ChartDomainError):
                quantity(chart, x, y)
            with pytest.raises(ChartDomainError):
                quantity(chart, np.array([1.0, x]), np.array([1.0, y]))


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
            end = rk4_front(sphere, SPHERE_POINT, [theta], t, 1000)[:2, 0]
            v0 = math.cos(theta) * e1 + math.sin(theta) * e2
            expect = math.cos(t) * p0 + math.sin(t) * v0
            assert np.abs(embed_sphere(*end) - expect).max() < 1e-8

    def test_meridian_colatitude_advance(self):
        # great-circle arc: along a meridian the colatitude moves at unit rate
        end = rk4_front(sphere_chart(), (0.05, 0.0), [0.0], 0.9, 1000)[:2, 0]
        assert end[0] == pytest.approx(0.05 + 0.9, abs=1e-8)
        assert end[1] == pytest.approx(0.0, abs=1e-10)

    def test_metric_speed_preserved(self):
        hyper = hyperbolic_chart()
        end, tan = rk4_front(hyper, HYPERBOLIC_POINT, [0.4], 3.0, 3000)[:4, 0].reshape(2, 2)
        a, b, c = hyper.metric(end[0], end[1])
        speed = a * tan[0] ** 2 + 2 * b * tan[0] * tan[1] + c * tan[1] ** 2
        assert abs(speed - 1.0) < 1e-8

    def test_exit_reports_time(self):
        with pytest.raises(ChartExitError) as err:
            geodesic(flat_chart(extent=1.0), (0.9, 0.0), 0.0, 1.0)
        assert abs(err.value.exit_time - 0.1) <= 1e-12

    def test_backward_exit_reports_negative_time(self):
        # facing away from the edge x = 1 and run backward, x(t) = 0.9 - t crosses it at t = -0.1
        with pytest.raises(ChartExitError) as err:
            geodesic(flat_chart(extent=1.0), (0.9, 0.0), math.pi, -1.0)
        assert abs(err.value.exit_time + 0.1) <= 1e-12


class TestJacobi:
    def test_flat_linear(self):
        assert jacobi_field(flat_chart(), (0, 0), 0.3, 1.2) == pytest.approx(1.2, abs=1e-12)

    def test_sphere_sine(self):
        assert rk4_front(sphere_chart(), SPHERE_POINT, [1.0], 0.9, 900)[4, 0] == pytest.approx(
            math.sin(0.9), abs=1e-8
        )

    def test_hyperbolic_sinh(self):
        assert rk4_front(hyperbolic_chart(), HYPERBOLIC_POINT, [1.0], 0.9, 900)[4, 0] == pytest.approx(
            math.sinh(0.9), abs=1e-8
        )

    def test_negative_curvature_spreads(self):
        hyper = hyperbolic_chart()
        for t in (0.3, 0.8, 1.5):
            front = wavefront(hyper, HYPERBOLIC_POINT, t, 8)
            assert np.array_equal(front.angles, np.linspace(0.0, 2 * math.pi, 9)[:-1])
            for theta, j in zip(front.angles, rk4_front(hyper, HYPERBOLIC_POINT, front.angles, t, 600)[4]):
                assert j >= t, theta


LENS = "exp(2*exp(-(x^2+y^2)))"
# (chart builder, its metric strings) for the float-jet oracle of tests/_oracles.py
JET_CHARTS = [
    (sphere_chart, ("1", "0", "sin(x)^2")),
    (hyperbolic_chart, ("1/y^2", "0", "1/y^2")),
    (lambda: chart_from_expressions(LENS, "0", LENS, (-12, 12, -12, 12)), (LENS, "0", LENS)),
    (lambda: chart_from_expressions("1+x^2", "x*y/3", "2+cos(y)", (-1, 1, -1, 1)), ("1+x^2", "x*y/3", "2+cos(y)")),
    (flat_chart, ("1", "0", "1")),
    (torus_chart, ("1", "0", "1")),
]
JET_IDS = ["sphere", "hyperbolic", "lens", "g12", "flat", "torus"]


class TestAdaptiveIntegrator:
    @pytest.mark.parametrize("build, p, t", [
        (sphere_chart, SPHERE_POINT, 1.0),
        (hyperbolic_chart, HYPERBOLIC_POINT, 1.0),
        (lambda: chart_from_expressions("exp(x/pi)", "-sin(x*y)/4", "cosh(y)^2", (-2, 2, -2, 2)), (0.1, 0.2), 1.0),
        (lambda: chart_from_expressions(LENS, "0", LENS, (-12, 12, -12, 12)), (-2.0, 0.0), 2.0),
    ], ids=["sphere", "hyperbolic", "g12", "lens"])
    def test_matches_the_rk4_oracle(self, build, p, t):
        chart = build()
        adaptive = wavefront(chart, p, t, 16)
        oracle = rk4_front(chart, p, adaptive.angles, t, int(1000 * t))
        assert np.abs(adaptive.points - oracle[:2].T).max() < 1e-9
        assert np.abs(adaptive.tangents - oracle[2:4].T).max() < 1e-9
        assert np.abs(adaptive.jacobi - oracle[4]).max() < 1e-9

    def test_zero_time(self):
        front = wavefront(sphere_chart(), SPHERE_POINT, 0.0, 8)
        assert np.all(front.jacobi == 0.0)
        assert np.all(front.points == np.array(SPHERE_POINT))

    def test_backward(self):
        assert jacobi_field(sphere_chart(), SPHERE_POINT, 1.0, -0.5) == pytest.approx(-math.sin(0.5), abs=1e-10)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_nonfinite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite time"):
            geodesic(sphere_chart(), SPHERE_POINT, 0.3, t)

    @pytest.mark.parametrize("build, p, t", [
        (lambda: chart_from_expressions(LENS, "0", LENS, (-4, 4, -4, 4)), (0.3, 0.1), 2.0),
        (sphere_chart, SPHERE_POINT, 0.8),
        (hyperbolic_chart, HYPERBOLIC_POINT, 0.5),
        (torus_chart, (0.5, 0.5), 0.7),
    ], ids=["lens", "sphere", "hyperbolic", "torus"])
    def test_matches_the_dp54_oracle(self, build, p, t):
        # DOP853 at TOL and the Dormand-Prince 5(4) pair at 1e-12 each carry a global error near 1e-13 here
        chart = build()
        angles = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
        got, want = _integrate_front(chart, p, angles, t), dp54_front(chart, p, angles, t)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-11

    def test_exit_time_on_dense_output(self):
        # straight down the y axis, y(t) = exp(-t) meets the chart's edge y = 0.02 at t = ln 50; the 7th-order
        # extension and the oracle's 4th-order one both put the exit there to about 1e-12
        with pytest.raises(ChartExitError) as err:
            geodesic(hyperbolic_chart(), HYPERBOLIC_POINT, -math.pi / 2, 5.0)
        with pytest.raises(ChartExitError) as oracle:
            dp54_front(hyperbolic_chart(), HYPERBOLIC_POINT, [-math.pi / 2], 5.0)
        for exit_time in (err.value.exit_time, oracle.value.exit_time):
            assert abs(exit_time - math.log(50.0)) <= 1e-10

    def test_jet_evaluations(self):
        # The integrator evaluates the chart's compiled fields, once per stage.
        calls = []
        chart = sphere_chart()

        def fields(*state):
            calls.append(np.shape(state[0]))
            return chart.fields(*state)

        sphere = dataclasses.replace(chart, fields=fields)
        assert abs(wavefront_length(sphere, SPHERE_POINT, 1.0) - 2 * math.pi * math.sin(1.0)) < 1e-10
        assert 0 < len(calls) <= 800

    @pytest.mark.parametrize("build, metric", JET_CHARTS, ids=JET_IDS)
    def test_compiled_flow_matches_the_jet_oracle(self, build, metric):
        # 2 ulp of each row's largest entry: the flow runs the oracle's operations in its order,
        # less the terms with a constant zero factor.
        chart = build()
        x_min, x_max, y_min, y_max = np.clip(chart.bounds, -3.0, 3.0)
        rng = np.random.default_rng(24)
        state = np.concatenate([rng.uniform([[x_min], [y_min]], [[x_max], [y_max]], (2, 64)), rng.normal(size=(4, 64))])
        got, want = geomfront._rhs(chart, state), jet_rhs(float_jet(*metric), state)
        for row in range(6):
            assert np.abs(got[row] - want[row]).max() <= 2 * np.spacing(np.abs(want[row]).max()), row

    @pytest.mark.parametrize("build, metric", JET_CHARTS, ids=JET_IDS)
    def test_metric_christoffel_and_curvature_match_the_jet_oracle(self, build, metric):
        # Bit for bit up to the sign of a zero: the fields run the oracle's operations in its order,
        # less the terms with a constant zero factor, whose sum can only flip a zero's sign.
        chart = build()
        x_min, x_max, y_min, y_max = np.clip(chart.bounds, -3.0, 3.0)
        x, y = np.random.default_rng(25).uniform([x_min, y_min], [x_max, y_max], (64, 2)).T
        values = float_jet(*metric)(x, y)
        gamma = christoffel(chart, x, y)
        got = [*chart.metric(x, y), *(gamma[k, i, j] for k in range(2) for i, j in ((0, 0), (0, 1), (1, 1))),
               gauss_curvature_brioschi(chart, x, y)]
        want = [*values[:3], *geomfront._christoffel(values), geomfront._brioschi(values)]
        for slot, (a, b) in enumerate(zip(got, want, strict=True)):
            assert np.array_equal(np.broadcast_to(a, x.shape), np.broadcast_to(b, x.shape)), slot

    def test_integration_never_evaluates_the_formulas(self, monkeypatch):
        # Once a chart is built, its compiled fields alone carry the metric, the Christoffel symbols and K.
        chart = sphere_chart()
        x = np.array([0.8, 1.3, 2.0])

        def refuse(jet):
            raise AssertionError("a formula was evaluated after the chart was built")

        monkeypatch.setattr(geomfront, "_christoffel", refuse)
        monkeypatch.setattr(geomfront, "_brioschi", refuse)
        front = wavefront(chart, SPHERE_POINT, 1.0, 16)
        assert abs(front.length - 2 * math.pi * math.sin(1.0)) < 1e-10
        assert np.allclose(chart.metric(x, 0.4)[2], np.sin(x) ** 2, rtol=1e-15, atol=0.0)
        assert np.allclose(christoffel(chart, x, 0.4)[0, 1, 1], -np.sin(x) * np.cos(x), rtol=1e-15, atol=0.0)
        assert np.abs(gauss_curvature_brioschi(chart, x, 0.4) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("build, p, t", [
        (sphere_chart, SPHERE_POINT, 1.0),
        (hyperbolic_chart, HYPERBOLIC_POINT, 1.0),
        (lambda: chart_from_expressions(LENS, "0", LENS, (-12, 12, -12, 12)), (-2.0, 0.0), 2.0),
        (flat_chart, (0.2, 0.1), 1.5),
        (torus_chart, (0.5, 0.5), 0.7),
    ], ids=["sphere", "hyperbolic", "lens", "flat", "torus"])
    def test_one_system_for_every_entry_point(self, build, p, t):
        # Under the oracle's fixed steps a single-angle run gives the batched run's rows; the bound
        # is 2 ulp of each quantity's largest entry, so a different SIMD path for sin/cos cannot fail it.
        # geodesic and jacobi_field return the rows of the library's own single-angle state.
        chart = build()
        front = wavefront(chart, p, t, 16)
        batched = rk4_front(chart, p, front.angles, t, 400)
        single = np.stack([rk4_front(chart, p, [theta], t, 400)[:, 0] for theta in front.angles], axis=1)
        for rows in (slice(0, 2), slice(2, 4), slice(4, 5)):
            want = batched[rows]
            assert np.abs(single[rows] - want).max() <= 2 * np.spacing(np.abs(want).max())
        for theta in front.angles:
            x, y, vx, vy, j = _integrate_front(chart, p, [theta], t)[:5, 0]
            assert geodesic(chart, p, theta, t) == ((x, y), (vx, vy))
            assert jacobi_field(chart, p, theta, t) == j
        if chart.straight_geodesics:
            direction = np.stack([np.cos(front.angles), np.sin(front.angles)], axis=-1)
            assert np.array_equal(front.points, np.array(p) + t * direction)
            assert np.array_equal(front.tangents, direction)
            assert np.all(front.jacobi == t)

    def test_undefined_metric_stops_the_step(self):
        # The metric is NaN for x in (-0.3, -0.1), between the sample points x = -1/3 and 0 of the
        # chart check, and the geodesic from (0.5, 0) reaches x = -0.1 near t = 0.7.
        with np.errstate(invalid="ignore", divide="ignore"):
            chart = chart_from_expressions("1 + ((x + 0.3) * (x + 0.1))^0.5", "0", "1", (-1, 1, -1, 1))
            with pytest.raises(ValueError, match="step size"):
                geodesic(chart, (0.5, 0.0), math.pi, 1.0)

    def test_undefined_off_diagonal_metric_stops_the_step(self):
        # The same NaN region entering through g12 alone: the zero terms folded away when the flow
        # compiles must not hide it.
        with np.errstate(invalid="ignore", divide="ignore"):
            chart = chart_from_expressions("1", "0.1*((x+0.3)*(x+0.1))^0.5", "1", (-1, 1, -1, 1))
            with pytest.raises(ValueError, match="step size"):
                geodesic(chart, (0.5, 0.0), math.pi, 1.0)


class TestDop853Tableau:
    def test_order_conditions(self):
        # the nodes are the row sums, the weights b integrate c^(k-1) exactly for k = 1..8, and the error and
        # extension weights sum to 0; exact sums of the doubles, each coefficient rounded once
        a, b, c = geomfront._A, geomfront._A[12, :12], geomfront._C
        assert max(abs(math.fsum(row) - node) for row, node in zip(a, c)) <= 1e-14
        for k in range(1, 9):
            assert abs(math.fsum(b * c[:12] ** (k - 1)) - 1.0 / k) <= 1e-15, k
        assert max(abs(math.fsum(w)) for w in (geomfront._E5, geomfront._E3, *geomfront._D)) <= 1e-13

    def test_literals_equal_scipy_coefficients(self):
        # scipy's DOP853 coefficients are a test oracle only; every literal is the same double
        coefficients = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert np.array_equal(geomfront._C, coefficients.C)
        assert np.array_equal(geomfront._A, coefficients.A)
        assert np.array_equal(geomfront._A[12, :12], coefficients.B)
        for ours, theirs in ((geomfront._E5, coefficients.E5), (geomfront._E3, coefficients.E3)):
            assert np.array_equal(ours, theirs[:12]) and theirs[12] == 0.0
        assert np.array_equal(geomfront._D, coefficients.D)

    def test_eighth_order_convergence(self):
        # fixed DOP853 steps through the library's stages: the sphere's front length 2 pi sin t, error ~ h^8
        chart = sphere_chart()
        angles = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)

        def front_length(n):
            y, h = geomfront._launch(chart, SPHERE_POINT, angles), 1.0 / n
            k = np.empty((16,) + y.shape)
            for _ in range(n):
                k[0] = geomfront._rhs(chart, y)
                for i in range(1, 12):
                    k[i] = geomfront._stage(partial(geomfront._rhs, chart), y, k, h, i)
                y = y + h * np.tensordot(geomfront._STAGES[12, :12], k[:12], axes=1)
            return float(np.mean(np.abs(y[4])) * 2 * math.pi)

        errors = [abs(front_length(n) - 2 * math.pi * math.sin(1.0)) for n in (1, 2, 4)]
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(7.6 < order < 8.6 for order in orders), orders


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

    def test_length_is_the_front_length(self):
        front = wavefront(sphere_chart(), SPHERE_POINT, 0.5, 32)
        assert front.length == wavefront_length(sphere_chart(), SPHERE_POINT, 0.5, 32)
        assert front.length == float(np.mean(np.abs(front.jacobi)) * 2 * math.pi)

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

    @pytest.mark.parametrize("h", [0.0, -0.1])
    def test_nonpositive_radius_rejected(self, h):
        with pytest.raises(ValueError):
            r2d2_curvature(sphere_chart(), SPHERE_POINT, h)
        with pytest.raises(ValueError):
            puiseux_curvature(sphere_chart(), SPHERE_POINT, h)

    def test_underflowing_radius_rejected(self):
        # h^3 (r^2 for the boundary estimate) below the normal floats would divide by zero or by a subnormal;
        # such a radius is far below the rounding floor, which refuses it first
        floor = "is too small: the estimate's rounding floor 2^-52 {0} / {0}^{1} exceeds 1e-3"
        for chart in (sphere_chart(), flat_chart()):
            with pytest.raises(ValueError, match=re.escape("radius h=1e-110 " + floor.format("h", 3))):
                r2d2_curvature(chart, SPHERE_POINT, 1e-110)
        with pytest.raises(ValueError, match=re.escape("radius r=1e-300 " + floor.format("r", 3))):
            puiseux_curvature(sphere_chart(), SPHERE_POINT, 1e-300)
        with pytest.raises(ValueError, match=re.escape("radius h=1e-104 " + floor.format("h", 3))):
            r2d2_curvature(sphere_chart(), SPHERE_POINT, 1e-104)
        for r in (1e-300, 1e-160):
            with pytest.raises(ValueError, match=re.escape(f"radius r={r!r} " + floor.format("r", 2))):
                r2d2_boundary(1.0, r)

    def test_radius_below_the_rounding_floor_rejected(self):
        # The front lengths are rounded to ~2^-52 h, so 2^-52 h / h^3 (2^-52 r / r^2 at the boundary) bounds
        # the digits an estimate keeps: at h = 1e-8 r2d2 read 0.0 and puiseux 12.6 on the unit sphere.
        sphere = sphere_chart()
        for h in (1e-8, 1e-7, 4.6e-7):
            with pytest.raises(ValueError, match=re.escape(f"radius h={h!r} is too small")):
                r2d2_curvature(sphere, SPHERE_POINT, h)
            with pytest.raises(ValueError, match=re.escape(f"radius r={h!r} is too small")):
                puiseux_curvature(sphere, SPHERE_POINT, h)
        assert abs(r2d2_curvature(sphere, SPHERE_POINT, 4.8e-7) - 1.0) < 3e-3
        assert abs(puiseux_curvature(sphere, SPHERE_POINT, 4.8e-7) - 1.0) < 6e-3
        for r in (1e-110, 1e-13, 2.2e-13):
            with pytest.raises(ValueError, match=re.escape(f"radius r={r!r} is too small")):
                r2d2_boundary(1.0, r)
        assert abs(r2d2_boundary(1.0, 2.3e-13) - 1.0) < 3e-3

    def test_empty_front_rejected(self):
        with pytest.raises(ValueError):
            wavefront(flat_chart(), (0.0, 0.0), 0.5, 0)

    def test_boundary_domain_guard(self):
        with pytest.raises(ValueError):
            r2d2_boundary(1.0, 1.0)
        with pytest.raises(ValueError):
            r2d2_boundary(1.0, 2.5)
        with pytest.raises(ValueError, match=re.escape("need 0 < r < R, got r=1e+200, R=1.0")):
            r2d2_boundary(1.0, 1e200)

    def test_huge_radius_leaves_the_chart_without_overflow(self):
        # The rounding-floor check must not raise its power of a huge radius (OverflowError past ~1e154)
        for estimate in (r2d2_curvature, puiseux_curvature):
            with pytest.raises(ChartExitError):
                estimate(sphere_chart(), SPHERE_POINT, 1e200)


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
        lens = chart_from_expressions(LENS, "0", LENS, (-12, 12, -12, 12), name="lens")
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

    @pytest.mark.parametrize("n_centers", [0, -4])
    def test_refuses_fewer_than_one_center(self, n_centers):
        # 0 once averaged one center quietly, a negative count failed inside math.isqrt
        oneform = (lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
                   lambda x, y: np.sin(2 * math.pi * np.asarray(x, dtype=float)))
        with pytest.raises(ValueError, match="n_centers >= 1"):
            global_cancellation(torus_chart(), oneform, 0.2, n_centers)


class TestChartConstruction:
    def test_positive_definite_guard(self):
        with pytest.raises(PositiveDefiniteError):
            chart_from_expressions("-1", "0", "1", (-1, 1, -1, 1))

    def test_degenerate_metric_rejected_without_a_warning(self):
        # det g = 0 at x = 0 on the sample grid: the Christoffel and K slots divide by zero there,
        # but the check reads the metric alone
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(PositiveDefiniteError, match="not positive-definite"):
                chart_from_expressions("x^2", "0", "1", (-1, 1, -1, 1))

    def test_metric_not_finite_on_the_grid_rejected(self):
        # x^0.5 is NaN for x < 0, and NaN fails every comparison of the definiteness check
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(PositiveDefiniteError, match="not finite"):
                chart_from_expressions("1 + x^0.5", "0", "1", (-1, 1, -1, 1))
            with pytest.raises(PositiveDefiniteError, match="not finite"):
                chart_from_expressions("1", "(y - 0.9)^0.5 / 10", "4", (-1, 1, 0.5, 1))

    @pytest.mark.parametrize("bounds", [(1, 2, 3), (-1, 1, -1, 1, 0), (-1, 1, -math.inf, math.inf),
                                        (-1, 1, 0, math.nan), (1, -1, -1, 1), (-1, 1, 1, 1)], ids=str)
    def test_bounds_are_four_finite_increasing_numbers(self, bounds):
        with pytest.raises(ValueError, match="x_min < x_max, y_min < y_max"):
            chart_from_expressions("1", "0", "1", bounds)

    def test_expression_chart_matches_builtin(self):
        chart = chart_from_expressions("1", "0", "sin(x)^2", (0.05, math.pi - 0.05, -10, 10))
        sphere = sphere_chart()
        for x in (0.7, 1.4, 2.2):
            assert chart.metric(x, 0.0)[2] == pytest.approx(float(np.asarray(sphere.metric(x, 0.0)[2])))
        assert gauss_curvature_brioschi(chart, 1.2, 0.0) == pytest.approx(1.0, abs=1e-5)

    def test_expression_rejects_unknown_names(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')")
        with pytest.raises(ExpressionError):
            compile_expression("z + 1")
        with pytest.raises(ExpressionError):
            compile_expression("tan(x)")

    def test_expression_deeper_than_the_grammar_recurses_is_rejected(self):
        # a left-leaning sum of n terms is a tree n + 3 deep; past 450 levels the grammar refuses it
        metric = lambda n: "2+" + "+".join(["0.001*x*y"] * n)  # noqa: E731
        assert chart_from_expressions(metric(400), "0", "1", (-1, 1, -1, 1)).metric(0.5, 0.5)[0] > 2.0
        with pytest.raises(ExpressionError, match="450 levels"):
            chart_from_expressions(metric(700), "0", "1", (-1, 1, -1, 1))
        with pytest.raises(ExpressionError, match="too deeply to parse"):
            compile_expression("+".join(["x"] * 3000))
        # 300 factors parse, but the chart's second derivatives nest about 600 deep
        with pytest.raises(ExpressionError, match="too deeply to compile"):
            chart_from_expressions("1+" + "*".join(["x"] * 300), "0", "1", (0.5, 0.6, 0.5, 0.6))

    @pytest.mark.parametrize("build", [
        sphere_chart, hyperbolic_chart, flat_chart, torus_chart,
        lambda: chart_from_expressions(LENS, "0", LENS, (-12, 12, -12, 12)),
        lambda: chart_from_expressions("2+" + "+".join(["0.001*x*y"] * 400), "0", "1", (-1, 1, -1, 1)),
    ], ids=["sphere", "hyperbolic", "flat", "torus", "lens", "400-terms"])
    def test_compiled_source_matches_the_tuple_keyed_oracle(self, monkeypatch, build):
        # compile_trees looks a subtree up by identity, then by its operator and children's names; the
        # generated source is the one a lookup by the nested tuple itself gives, byte for byte
        sources, trees = [], []
        monkeypatch.setattr(exprgrammar, "compile", lambda source, *rest: sources.append(source) or compile(source, *rest),
                            raising=False)
        monkeypatch.setattr(geomfront, "compile_trees", lambda t, v: trees.append((t, v)) or compile_trees(t, v))
        build()
        assert len(sources) == len(trees) == 1
        assert sources[0] == tuple_keyed_source(*trees[0])

    @pytest.mark.parametrize("name", [v for v in geomfront._FLOW_ARGS if v not in ("x", "y")])
    def test_flow_variables_stay_out_of_the_grammar(self, name):
        # The compiled flow takes velocities and J as arguments; a metric string may still name x and y alone.
        with pytest.raises(ExpressionError, match="unknown name"):
            parse_expression(f"1 + {name}^2")
        with pytest.raises(ExpressionError, match="unknown name"):
            chart_from_expressions("1", f"{name} / 10", "1", (-1, 1, -1, 1))

    def test_symbolic_operators_keep_operand_order_and_fold(self):
        x, y = Symbolic("x"), Symbolic("y")
        assert (2.0 - x).tree == ("-", 2.0, "x")
        assert (2.0 / x).tree == ("/", 2.0, "x")
        assert (x * y + y * x).tree == ("+", ("*", "x", "y"), ("*", "y", "x"))
        assert (0.0 * x + 1.0 * y - 0.0).tree == "y"
        assert (-(-x)).tree == "x"
        assert (0.5 * Symbolic(4.0)).tree == 2.0

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

    @pytest.mark.parametrize("neighbour", [8, 10], ids=["gamma222", "xdd"])
    def test_verify_row_reads_the_curvature_slot(self, monkeypatch, neighbour):
        # verify-all's brioschi_consistency row (1e-12) fails when K is read from a neighbouring slot of the fields
        build = geomfront.sphere_chart

        def misread():
            chart = build()

            def fields(*args):
                out = chart.fields(*args)
                return out[:9] + (out[neighbour],) + out[10:]

            return dataclasses.replace(chart, fields=fields)

        def row():
            return next(c for c in verify.suite_geometry(42, True) if c.name == "brioschi_consistency")

        honest = row()
        assert honest.status == "pass" and honest.bound == 1e-12
        monkeypatch.setattr(geomfront, "sphere_chart", misread)
        assert row().status == "fail"


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
