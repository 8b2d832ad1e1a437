"""Averaging oracles, polarization identity, locality probe."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from besselwave import besselfn
from besselwave.domains import DomainSizeError
from besselwave.huygens import (
    PolarizationDegreeError,
    ball_average_exact,
    finite_difference_identity,
    flux_average_exact,
    flux_corollary_check,
    locality_probe,
    pizzetti_ball,
    pizzetti_constant,
    pizzetti_sphere,
    polarization_expand,
    polarization_normalization,
    polarization_reconstruct,
    sphere_average_exact,
    sphere_moment_ratio,
)
from besselwave.polyforms import MultiPoly, PolyKForm, _exponents_up_to, random_kform, random_multipoly

from _oracles import (
    endpoint_average_exact,
    flux_average_by_products,
    flux_average_loop,
    gamma_moment_ratio,
    interval_average_exact,
    locality_probe_full_grid,
    sphere_monomial_integral,
)


class TestSphereIntegrals:
    def test_circle_circumference(self):
        assert sphere_moment_ratio(2, (0, 0)) == 1
        assert sphere_monomial_integral(2, (0, 0)) == (Fraction(2), 1)

    def test_symmetry_third_of_area(self):
        assert sphere_moment_ratio(3, (2, 0, 0)) == Fraction(1, 3)
        assert sum(sphere_moment_ratio(3, e) for e in ((2, 0, 0), (0, 2, 0), (0, 0, 2))) == 1

    def test_odd_vanishes(self):
        assert not sphere_moment_ratio(2, (1, 1))
        assert not sphere_moment_ratio(3, (2, 1, 0))

    def test_float_value(self):
        # the mean of cos^2 over the circle
        thetas = np.linspace(0, 2 * math.pi, 20001)[:-1]
        assert float(sphere_moment_ratio(2, (2, 0))) == pytest.approx(float(np.mean(np.cos(thetas) ** 2)), abs=1e-12)

    def test_quadrature_cross_check(self):
        # x^2 y^2 over the unit circle: the mean of cos^2 sin^2 is 1/8
        got = sphere_moment_ratio(2, (2, 2))
        assert got == Fraction(1, 8)
        thetas = np.linspace(0, 2 * math.pi, 20001)[:-1]
        numeric = np.mean(np.cos(thetas) ** 2 * np.sin(thetas) ** 2)
        assert float(got) == pytest.approx(float(numeric), abs=1e-12)

    def test_matches_the_gamma_oracle(self):
        for q in range(1, 7):
            for alpha in _exponents_up_to(q, 12):
                assert sphere_moment_ratio(q, alpha) == gamma_moment_ratio(q, alpha), (q, alpha)

    @pytest.mark.parametrize("alpha", [(1,), (1, -1), (0, 0, 0)])
    def test_bad_multi_index_rejected(self, alpha):
        with pytest.raises(ValueError):
            sphere_moment_ratio(2, alpha)


class TestExactAverages:
    def test_radial_square_q2(self):
        g = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert ball_average_exact(g, 2) == MultiPoly(1, {(2,): Fraction(1, 2)})
        assert sphere_average_exact(g, 2) == MultiPoly(1, {(2,): 1})

    def test_normalization(self):
        one = MultiPoly.constant(3, 1)
        assert ball_average_exact(one, 3) == MultiPoly(1, {(0,): 1})
        assert sphere_average_exact(one, 3) == MultiPoly(1, {(0,): 1})

    def test_q1_interval_case(self, rng):
        for _ in range(12):
            g = random_multipoly(rng, 1, 8)
            assert ball_average_exact(g, 1) == interval_average_exact(g)
            assert sphere_average_exact(g, 1) == endpoint_average_exact(g)


class TestPizzetti:
    def test_ball_example(self):
        g = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        # k=1 term: t^2 * 4 / C(4,1) = t^2 / 2
        assert pizzetti_constant(4, 1) == 8
        assert pizzetti_ball(g, 2) == MultiPoly(1, {(2,): Fraction(1, 2)})

    def test_sphere_example(self):
        g = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
        assert pizzetti_constant(2, 1) == 4
        assert pizzetti_sphere(g, 2) == MultiPoly(1, {(2,): 1})

    def test_harmonic_collapses(self):
        g = MultiPoly(2, {(2, 0): 1, (0, 2): -1})
        assert pizzetti_ball(g, 2).is_zero
        assert pizzetti_sphere(g, 2).is_zero

    def test_exactness_random(self, rng):
        for q in (1, 2, 3):
            for _ in range(15):
                g = random_multipoly(rng, q, 8)
                assert pizzetti_ball(g, q) == ball_average_exact(g, q)
                assert pizzetti_sphere(g, q) == sphere_average_exact(g, q)

    def test_constants_match_profile_series(self):
        for n in (1, 2, 3, 4, 5, 6, 7):
            for k in range(7):
                assert Fraction(1, pizzetti_constant(n, k)) == abs(besselfn.series_coefficient(n, k))
                sign = (-1) ** k
                assert besselfn.series_coefficient(n, k) == Fraction(sign, pizzetti_constant(n, k))


class TestFluxCorollary:
    def test_constant_curl_case(self):
        f = PolyKForm(2, 1, {(1,): MultiPoly.variable(2, 0)})  # x dy
        assert flux_average_exact(f, 2) == MultiPoly(1, {(1,): Fraction(1, 2)})
        assert flux_corollary_check(f, 2) == 0.0

    def test_closed_form_zero(self):
        # f = d(xy) = y dx + x dy has df = 0: both sides vanish
        f = PolyKForm(2, 1, {(0,): MultiPoly.variable(2, 1), (1,): MultiPoly.variable(2, 0)})
        assert flux_average_exact(f, 2).is_zero
        assert flux_corollary_check(f, 2) == 0.0

    def test_random_exact(self, rng):
        for q in (2, 3):
            for _ in range(10):
                f = random_kform(rng, q, q - 1, 4)
                assert flux_corollary_check(f, q) == 0.0

    def test_matches_the_term_loop_oracle(self, rng):
        for q in (2, 3, 4, 5, 6):
            for _ in range(8):
                f = random_kform(rng, q, q - 1, 4)
                assert flux_average_exact(f, q) == flux_average_loop(f, q)

    def test_matches_the_product_oracle(self, rng):
        for q in (2, 3, 4, 5, 6):
            for _ in range(8):
                f = random_kform(rng, q, q - 1, 6 if q < 5 else 4)
                assert flux_average_exact(f, q) == flux_average_by_products(f, q)

    def test_wrong_degree_rejected(self):
        f = PolyKForm(3, 1, {(0,): MultiPoly.constant(3, 1)})
        with pytest.raises(ValueError):
            flux_corollary_check(f, 3)


class TestPolarization:
    def test_parallelogram_case(self):
        terms = polarization_expand((1, 1))
        assert len(terms) == 4
        # [(x+y)^2 - (x-y)^2 - (-x+y)^2 + (-x-y)^2] / 8, the 8 = 2! 2^2
        signs = sorted((sign, coeffs) for sign, coeffs, _ in terms)
        assert signs == [(-1, (-1, 1)), (-1, (1, -1)), (1, (-1, -1)), (1, (1, 1))]
        assert polarization_reconstruct((1, 1)) == MultiPoly.monomial(2, (1, 1))

    def test_xyz_case(self):
        assert polarization_reconstruct((1, 1, 1)) == MultiPoly.monomial(3, (1, 1, 1))
        assert len(polarization_expand((1, 1, 1))) == 8

    def test_squared_slot(self):
        assert polarization_reconstruct((2, 1)) == MultiPoly.monomial(2, (2, 1))

    def test_degree_cap(self):
        with pytest.raises(PolarizationDegreeError):
            polarization_expand((7, 6))

    @pytest.mark.parametrize("exponents", [(4, 4, 4), (3, 3, 3, 3), (6, 5, 1)])
    def test_reconstruction_at_the_degree_cap(self, exponents):
        assert sum(exponents) == 12
        assert polarization_reconstruct(exponents) == MultiPoly.monomial(len(exponents), exponents)

    def test_finite_difference_values(self):
        assert finite_difference_identity(3, 2) == 0
        assert finite_difference_identity(3, 3) == -6
        for n in range(1, 11):
            for j in range(n):
                assert finite_difference_identity(n, j) == 0
            assert finite_difference_identity(n, n) == (-1) ** n * math.factorial(n)

    def test_normalization_constant(self):
        assert polarization_normalization(4) == 16
        for n in range(1, 11):
            assert polarization_normalization(n) == 2**n


class TestLocalityProbe:
    def test_even_dimension_contrast(self):
        result = locality_probe(2, 32, 0.04, 0.3, 0.1, grid_points=128)
        assert result.resolved
        assert result.deformed_leakage < 1e-3
        assert result.classical_leakage > 5.0 * result.deformed_leakage

    def test_odd_dimension_classical_sharp(self):
        result = locality_probe(3, 24, 0.04, 0.3, 0.14, grid_points=64)
        assert result.resolved
        assert result.classical_leakage < 1e-3
        assert result.deformed_leakage < 1e-3

    def test_unresolved_fat_bump(self):
        result = locality_probe(2, 64, 0.1, 0.3, 0.05)
        assert not result.resolved
        assert "not small" in result.reason

    def test_unresolved_spectral_tail(self):
        result = locality_probe(2, 8, 0.02, 0.3, 0.05)
        assert not result.resolved
        assert result.spectral_tail > 1e-6

    @pytest.mark.parametrize("grid", [0, -4])
    def test_nonpositive_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            locality_probe(2, 32, 0.04, 0.3, 0.1, grid_points=grid)

    @pytest.mark.parametrize("sigma, t, width", [(math.nan, 0.3, 0.1), (math.inf, 0.3, 0.1), (0.04, math.nan, 0.1),
                                                 (0.04, -math.inf, 0.1), (0.04, 0.3, math.nan), (0.0, 0.3, 0.1)])
    def test_non_finite_or_nonpositive_widths_rejected(self, sigma, t, width):
        with pytest.raises(ValueError, match="annulus_width=.* must be finite and positive"):
            locality_probe(2, 32, sigma, t, width, grid_points=128)

    @pytest.mark.parametrize("q, t, width", [(2, 0.1, 0.2), (2, 0.1, 0.1), (3, 0.2, 0.25)])
    def test_empty_interior_rejected(self, q, t, width):
        # at annulus_width >= t no grid point lies at radius < t - annulus_width, and both leakages would read 0
        with pytest.raises(ValueError, match=f"annulus_width={width} reaches t={t}"):
            locality_probe(q, 24, 0.01, t, width, grid_points=64)

    def test_torus_diameter_guard(self):
        with pytest.raises(ValueError):
            locality_probe(2, 64, 0.02, 0.4, 0.12)

    def test_grid_cap_raises_before_allocating(self, monkeypatch):
        # The default grid of 256 points per axis is 256^3 points for q = 3, about 3 GB.
        def no_grid(*args, **kwargs):
            raise AssertionError("the probe built a grid")

        monkeypatch.setattr(np.fft, "fftfreq", no_grid)
        monkeypatch.setattr(np.fft, "rfftfreq", no_grid)
        monkeypatch.setattr(np, "ix_", no_grid)
        with pytest.raises(DomainSizeError) as err:
            locality_probe(3, 64, 0.02, 0.3, 0.05)
        assert "16777216" in str(err.value)

    def test_reports_the_grid_it_ran_on(self):
        # 32 points per axis cannot resolve |m| <= 24 (2 * 24 + 2 = 50), so the probe doubles to 64
        assert locality_probe(3, 24, 0.035, 0.3, 0.1, grid_points=32).grid == 64
        assert locality_probe(2, 32, 0.04, 0.3, 0.1, grid_points=128).grid == 128
        assert locality_probe(2, 8, 0.02, 0.3, 0.05).grid is None

    # t = 0.3125 and w = 0.0625 are binary fractions, so t - w = 1/4 exactly: 8 points of the 164^2 grid (such
    # as k = (9, 40)) and 48 of the 56^3 grid (such as (4, 6, 12)) lie on the sphere |k| = n / 4, where a float radius
    # rounds below 1/4; they are outside the interior
    @pytest.mark.parametrize("q, max_freq, sigma, grid, t, width", [
        (2, 32, 0.04, 128, 0.3, 0.1), (2, 32, 0.04, 131, 0.3, 0.1), (2, 32, 0.04, 67, 0.3, 0.1),
        (3, 24, 0.035, 32, 0.3, 0.1), (3, 24, 0.035, 51, 0.3, 0.1), (3, 24, 0.035, 49, 0.3, 0.1),
        (2, 32, 0.04, 164, 0.3125, 0.0625), (3, 24, 0.035, 56, 0.3125, 0.0625)])
    def test_matches_the_full_grid_oracle(self, q, max_freq, sigma, grid, t, width):
        result = locality_probe(q, max_freq, sigma, t, width, grid_points=grid)
        deformed, classical, radii, deformed_profile, classical_profile = locality_probe_full_grid(
            q, max_freq, sigma, t, width, result.grid
        )
        assert result.deformed_leakage == pytest.approx(deformed, rel=1e-12, abs=0.0)
        assert result.classical_leakage == pytest.approx(classical, rel=1e-12, abs=0.0)
        assert np.array_equal(result.radii, radii)
        np.testing.assert_allclose(result.deformed_profile, deformed_profile, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(result.classical_profile, classical_profile, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("q, max_freq, sigma, grid", [(2, 32, 0.04, 128), (3, 24, 0.035, 32)])
    def test_one_inverse_fft_per_propagator(self, q, max_freq, sigma, grid, monkeypatch):
        # the field is symmetric under axis swaps, so the gradient components along the other axes are transposes
        irfftn, calls = np.fft.irfftn, []
        monkeypatch.setattr(np.fft, "irfftn", lambda *a, **k: calls.append(a) or irfftn(*a, **k))
        assert locality_probe(q, max_freq, sigma, 0.3, 0.1, grid_points=grid).resolved
        assert len(calls) == 2

    @pytest.mark.parametrize("q, max_freq, sigma, grid", [(2, 32, 0.04, 128), (3, 24, 0.035, 32)])
    def test_one_pass_over_the_grid_per_propagator(self, q, max_freq, sigma, grid, monkeypatch):
        # radial quantities read the integer levels |k|^2: one weighted bincount of the n^q points per propagator,
        # and the bin edges are searched for the levels, never for the grid points
        bincount, searchsorted, linspace = np.bincount, np.searchsorted, np.linspace
        weighted, searched = [], []

        class Edges(np.ndarray):
            def searchsorted(self, v, *args, **kwargs):
                searched.append(np.size(v))
                return np.asarray(self).searchsorted(v, *args, **kwargs)

        def counted_bincount(x, weights=None, minlength=0):
            if weights is not None:
                weighted.append(np.size(x))
            return bincount(x, weights, minlength)

        def counted_searchsorted(a, v, *args, **kwargs):
            searched.append(np.size(v))
            return searchsorted(np.asarray(a), v, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counted_bincount)
        monkeypatch.setattr(np, "searchsorted", counted_searchsorted)
        monkeypatch.setattr(np, "linspace", lambda *a, **k: linspace(*a, **k).view(Edges))
        result = locality_probe(q, max_freq, sigma, 0.3, 0.1, grid_points=grid)
        assert result.resolved
        assert weighted.count(result.grid**q) == 2
        assert searched and max(searched) < result.grid**q

    @pytest.mark.parametrize("q, max_freq, sigma, grid", [(3, 24, 0.035, 64), (2, 32, 0.04, 512)])
    def test_peak_memory_per_grid_point(self, q, max_freq, sigma, grid):
        # the figure PROBE_GRID_CAP's comment states: at most 42 bytes per grid point live at the peak
        tracemalloc.start()
        try:
            result = locality_probe(q, max_freq, sigma, 0.3, 0.1, grid_points=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.grid == grid
        assert peak <= 42 * grid**q

    def test_profile_masses_sum_to_one(self):
        result = locality_probe(2, 32, 0.04, 0.3, 0.1, grid_points=128)
        assert float(np.sum(result.deformed_profile)) == pytest.approx(1.0, abs=1e-12)
        assert float(np.sum(result.classical_profile)) == pytest.approx(1.0, abs=1e-12)
