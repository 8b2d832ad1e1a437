"""Profile family: exact coefficients, closed forms, ODE and recursion checks."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from besselwave import besselfn
from besselwave.besselfn import (
    BesselDomainError,
    ode_residual,
    phi,
    phi_array,
    phi_derivative,
    psi,
    series_coefficient,
)
from besselwave import oracles
from besselwave.domains import DomainSizeError

from _oracles import decay_envelope, phi_mpmath, series_sums_fraction

# Frozen at calibration time: sup over r in [10, 200] of |psi_{q+2}(r)| r^((q-1)/2).
DECAY_CONSTANTS = {
    1: 1.000000,
    2: 1.596769,
    3: 3.009285,
    4: 6.441694,
    5: 15.183629,
    6: 38.944253,
    7: 107.217791,
    8: 314.097938,
}

# Frozen: sup of |psi_{q+2}| on [0, 500].
BOUNDEDNESS_CONSTANTS = {
    1: 1.000000,
    2: 1.163709,
    3: 1.306232,
    4: 1.439339,
    5: 1.560401,
    6: 1.672646,
    7: 1.778051,
    8: 1.877833,
}


class TestSeriesCoefficient:
    def test_cos_second_coefficient(self):
        assert series_coefficient(1, 1) == Fraction(-1, 2)

    def test_empty_product(self):
        for n in (1, 2, 5, 9):
            assert series_coefficient(n, 0) == 1

    def test_sinc_coefficient(self):
        assert series_coefficient(3, 1) == Fraction(-1, 6)

    def test_n2_k2_against_j0_series(self):
        # direct product (-2)(2) * (-4)(4) = 64
        assert series_coefficient(2, 2) == Fraction(1, 64)
        # J0 series coefficient oracle: (-1)^k / (4^k (k!)^2)
        for k in range(8):
            expect = Fraction((-1) ** k, 4**k * math.factorial(k) ** 2)
            assert series_coefficient(2, k) == expect

    def test_confluent_hypergeometric_coefficients(self):
        # the series is 0F1(n/2; -r^2/4): b_k = (-1)^k / (4^k k! (n/2)_k)
        for n in range(1, 9):
            for k in range(7):
                rising = Fraction(1)
                for j in range(k):
                    rising *= Fraction(n, 2) + j
                expect = Fraction((-1) ** k) / (4**k * math.factorial(k) * rising)
                assert series_coefficient(n, k) == expect

    def test_domain_errors(self):
        with pytest.raises(BesselDomainError):
            series_coefficient(0, 1)
        with pytest.raises(BesselDomainError):
            series_coefficient(3, -1)


class TestPhi:
    def test_cos_at_pi(self):
        assert phi(1, math.pi) == pytest.approx(-1.0, abs=1e-14)

    def test_sinc_at_pi(self):
        assert abs(phi(3, math.pi)) < 1e-15

    def test_n5_closed_form(self):
        expect = 3.0 * (math.sin(2.0) - 2.0 * math.cos(2.0)) / 8.0
        assert phi(5, 2.0) == pytest.approx(expect, abs=1e-15)
        # cross-check against a deep series tail: 30 terms explicitly
        total = sum(float(series_coefficient(5, k)) * 2.0 ** (2 * k) for k in range(30))
        assert phi(5, 2.0) == pytest.approx(total, abs=1e-14)

    def test_j0_series_oracle(self):
        assert phi(2, 1.0) == pytest.approx(oracles.bessel_j_exact(0, 1.0), abs=1e-14)

    def test_evenness_exact(self):
        for n in (1, 2, 5, 8):
            for r in (0.37, 3.1, 19.5, 55.0):
                assert phi(n, r) == phi(n, -r)

    def test_value_at_zero(self):
        for n in (1, 4, 7):
            assert phi(n, 0.0) == 1.0
            assert phi_derivative(n, 0.0) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(BesselDomainError):
            phi(1, math.inf)
        with pytest.raises(BesselDomainError):
            phi(2, math.nan)

    def test_integer_n_required(self):
        with pytest.raises(BesselDomainError):
            phi(2.5, 1.0)

    def test_numpy_integer_n_accepted_bool_refused(self):
        # n is taken by operator.index, as velocity_solution's q and simplicial vertex ids are
        assert phi(np.int64(3), 1.0) == phi(3, 1.0)
        assert phi_array(np.int64(3), [1.0]).tolist() == phi_array(3, [1.0]).tolist()
        assert series_coefficient(np.int32(4), 2) == series_coefficient(4, 2)
        for n in (True, np.float64(3.0)):
            with pytest.raises(BesselDomainError, match="must be an integer"):
                phi(n, 1.0)

    def test_series_asymptotic_seam(self):
        # Exact series still converges a little past the switch; both
        # branches must agree there.
        for n in (1, 2, 3, 6, 9):
            exact = float(series_sums_fraction(n, 42.0)[0])
            assert besselfn._phi_large(n, 42.0) == pytest.approx(exact, abs=1e-12)

    def test_every_order_across_the_seam(self):
        # The large-r branch must hold for every order, not only for r >> nu^2.
        pytest.importorskip("mpmath")
        for n in range(1, 61):
            for r in np.linspace(38.0, 46.0, 17):
                r = float(r)
                err = abs(phi(n, r) - phi_mpmath(n, r))
                assert err <= 1e-13 * decay_envelope(n, r), (n, r, err)

    def test_order_past_the_float_gamma_range(self):
        # Gamma(200) overflows a float; the phi recurrence carries no Gamma scale.
        pytest.importorskip("mpmath")
        assert phi(400, 300.0) == pytest.approx(phi_mpmath(400, 300.0), rel=1e-12)

    def test_order_above_argument_uses_the_series(self):
        # nu = 49 >= r = 45: the upward recurrence is unstable there
        assert phi(100, 45.0) == float(series_sums_fraction(100, 45.0)[0])
        with pytest.raises(BesselDomainError):
            phi(2000, 900.0)

    def test_integer_series_matches_the_fraction_oracle(self):
        # The integer sums are rounded once by int / int; the oracle rounds
        # the same rationals as reduced Fractions, so the bits must agree.
        # The sums multiply by the one-limb 2k(n - 2 + 2k) and shift by the exponent of r^2's power-of-two
        # denominator; the oracle multiplies by the whole denominator.  The second grid has full 53-bit
        # mantissas in [35, 40], integers (no shift) and tiny r (long shifts) at orders up to 401.
        points = [(n, float(r)) for n in range(1, 61) for r in np.linspace(0.0, 40.0, 49)[1:]]
        radii = [float(r) for r in np.random.default_rng(29).uniform(35.0, 40.0, 6)] + [1.0, 7.0, 40.0]
        radii += [float(r) for r in np.random.default_rng(30).uniform(0.0, 1e-3, 2)] + [1e-3, 2.0**-40, 5e-324]
        points += [(n, r) for n in [*range(1, 16), 21, 101, 401] for r in radii]
        for n, x in points + [(100, 45.0), (90, 41.0)]:
            for r in (x, -x):
                p0, p1, p2 = series_sums_fraction(n, r)
                assert repr(phi(n, r)) == repr(float(p0)), (n, r)
                assert repr(psi(n, r)) == repr(r * float(p0)), (n, r)
                if abs(r) > besselfn.SERIES_CUTOFF:
                    continue
                assert repr(phi_derivative(n, r)) == repr(float(p1)), (n, r)
                if r > 0.0:
                    assert repr(ode_residual(n, r)) == repr(float(p2 + (n - 1) * p1 / Fraction(r) + p0)), (n, r)

    def test_one_entry_memo(self):
        # One sum serves phi, psi, phi' and the residual at one (n, |r|); it is kept for one point only.
        assert besselfn._series_sums.cache_info().maxsize == 1
        points = [(7, 36.123456789), (7, 2.5), (12, 36.123456789)]
        fresh = {}
        for n, r in points:
            besselfn._series_sums.cache_clear()
            fresh[n, r] = [repr(f(n, r)) for f in (phi, psi, phi_derivative, ode_residual)]
        besselfn._series_sums.cache_clear()
        for n, r in points * 3:  # every visit follows another point, so each one sums the series again
            misses = besselfn._series_sums.cache_info().misses
            assert [repr(f(n, r)) for f in (phi, psi, phi_derivative, ode_residual)] == fresh[n, r]
            assert besselfn._series_sums.cache_info().misses == misses + 1
        for n, r in points:  # phi' is odd through the entry it shares with |r|
            misses = besselfn._series_sums.cache_info().misses
            assert phi_derivative(n, -r) == -phi_derivative(n, r)
            assert besselfn._series_sums.cache_info().misses == misses + 1


class TestPhiArray:
    """The float array path against the exact scalar phi, relative to the size of phi_n (decay_envelope)."""

    @staticmethod
    def worst(n: int, xs) -> float:
        xs = np.asarray(xs, dtype=float)
        exact = np.array([phi(n, x) for x in xs.tolist()])
        envelope = np.array([decay_envelope(n, x) for x in xs.tolist()])
        return float(np.max(np.abs(phi_array(n, xs) - exact) / envelope))

    def test_within_envelope_of_exact_phi(self):
        xs = np.linspace(0.0, 150.0, 3001)
        for n in range(1, 15):
            assert self.worst(n, xs) <= 1e-12, n

    def test_large_orders_keep_the_envelope(self):
        # a float series up to x = nu + 2 would cancel here, and Gamma(n/2) overflows a float past n ~ 344
        xs = np.concatenate([np.linspace(0.05, 60.0, 240), [39.9, 40.0, 40.1]])
        for n in (21, 30, 41, 60, 84, 400, 401):
            assert self.worst(n, xs) <= 1e-12, n

    def test_tiny_arguments(self):
        # Miller's recurrence serves every x > 0 below the recurrence range, down to where x^2 underflows
        xs = np.geomspace(1e-300, 2.0, 400)
        for n in [*range(1, 15), 21, 401]:
            assert self.worst(n, xs) <= 1e-12, n

    def test_continuous_across_the_seams(self):
        for n in range(1, 15):
            nu = 0.5 * n - 1.0
            for seam in {2.0, besselfn.SERIES_CUTOFF, nu, nu + 2.0} - {-0.5, 0.0}:
                xs = np.array([np.nextafter(seam, 0.0), seam, np.nextafter(seam, np.inf)])
                values = phi_array(n, xs)
                assert np.all(np.abs(np.diff(values)) <= 1e-13 * decay_envelope(n, seam)), (n, seam)
                assert self.worst(n, xs) <= 1e-12, (n, seam)

    def test_one_at_zero(self):
        for n in range(1, 15):
            assert phi_array(n, 0.0) == 1.0
            assert phi_array(n, np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    def test_even_to_the_bit(self):
        xs = np.linspace(0.0, 150.0, 601)
        for n in range(1, 15):
            assert phi_array(n, -xs).tolist() == phi_array(n, xs).tolist()

    def test_each_value_depends_on_its_own_argument(self):
        # Miller's recurrence starts each element at its own order, on (0, max(40, nu)] (x <= nu = 19.5 for
        # n = 41), and past that range the Hankel series sums the same terms at every r, so no value follows
        # the largest or smallest argument beside it
        xs = np.concatenate([np.geomspace(1e-3, 39.9, 2000), np.geomspace(40.001, 1e6, 2000), [40.5, 0.3, 0.0]])
        for n in (1, 2, 3, 4, 6, 12, 41):
            alone = np.array([phi_array(n, [x])[0] for x in xs.tolist()])
            assert np.array_equal(phi_array(n, xs).view(np.int64), alone.view(np.int64)), n

    def test_scalar_phi_runs_the_array_recurrence_past_the_series(self):
        # Past max(40, nu) phi and phi_array run the same _phi_large, bit for bit
        for n in (2, 4, 8, 12, 30, 100, 1, 3, 41):
            seam = max(besselfn.SERIES_CUTOFF, 0.5 * n - 1.0)
            xs = np.concatenate([[np.nextafter(seam, np.inf)], np.geomspace(seam + 1e-3, 1e5, 1500)])
            exact = np.array([phi(n, x) for x in xs.tolist()])
            assert np.array_equal(phi_array(n, xs).view(np.int64), exact.view(np.int64)), n

    def test_scalar_recurrence_runs_on_python_floats(self):
        # phi's Python-float r past max(40, nu) keeps the recurrence out of numpy scalar arithmetic
        for n in (3, 21, 41, 4, 12):
            assert type(besselfn._phi_large(n, 40.5)) is float, n
        assert isinstance(besselfn._phi_large(21, np.array([40.5, 50.0])), np.ndarray)

    def test_keeps_shape(self):
        assert phi_array(3, 1.5).shape == ()
        assert phi_array(3, np.array([])).shape == (0,)
        grid = np.linspace(0.0, 50.0, 12).reshape(3, 4)
        assert phi_array(4, grid).shape == (3, 4)
        assert phi_array(4, grid).ravel().tolist() == phi_array(4, grid.ravel()).tolist()

    @pytest.mark.parametrize("n, x", [(True, 1.0), (2.0, 1.0), (0, 1.0), (-3, 1.0),
                                      (3, math.nan), (3, math.inf), (3, -math.inf)])
    def test_domain_errors_as_phi(self, n, x):
        with pytest.raises(BesselDomainError) as scalar:
            phi(n, x)
        with pytest.raises(BesselDomainError, match=re.escape(str(scalar.value))):
            phi_array(n, np.array([0.5, x]))

    def test_miller_table_is_charged_before_it_is_allocated(self, monkeypatch):
        # n = 4,000,001 needs about 2e6 orders on 150 points, 2.4 GB: refused before np.outer builds the table
        def refuse(*args):
            raise AssertionError("the Miller table was allocated")

        monkeypatch.setattr(np, "outer", refuse)
        with pytest.raises(DomainSizeError, match="Miller table of phi_4000001 on 150 points"):
            phi_array(4_000_001, np.linspace(0.1, 8.0, 150))


class TestPsi:
    def test_sin_identity(self):
        for x in (0.2, 1.0, 2.9):
            assert psi(3, x) == pytest.approx(math.sin(x), abs=1e-15)

    def test_zero_at_origin(self):
        for n in (3, 5, 8):
            assert psi(n, 0.0) == 0.0

    def test_two_j1(self):
        assert psi(4, 2.0) == pytest.approx(2.0 * oracles.bessel_j_exact(1, 2.0), abs=1e-14)


class TestDerivative:
    def test_minus_sin(self):
        for r in (0.1, 1.2, 2.2):
            assert phi_derivative(1, r) == pytest.approx(-math.sin(r), abs=1e-14)

    def test_finite_difference_oracle(self):
        step = 1e-5
        central = (phi(7, 1.3 + step) - phi(7, 1.3 - step)) / (2 * step)
        assert phi_derivative(7, 1.3) == pytest.approx(central, abs=1e-8)

    def test_recursion_identity_large_r(self):
        # derivative branch above the series cutoff uses -(r/n) phi_{n+2}
        r = 50.0
        assert phi_derivative(4, r) == pytest.approx(-(r / 4) * phi(6, r), abs=1e-12)


class TestOdeResidual:
    def test_cos_case(self):
        assert abs(ode_residual(1, 2.0)) < 1e-12

    def test_examples(self):
        assert abs(ode_residual(4, 5.0)) < 1e-9
        assert abs(ode_residual(9, 25.0)) < 1e-8

    def test_zero_rejected(self):
        with pytest.raises(BesselDomainError):
            ode_residual(3, 0.0)

    @pytest.mark.parametrize("n, r", [(8, 1e60), (3, 1e125), (2, 1e140), (1, 1e200), (1, 1e300)])
    def test_unresolved_large_r_rejected(self, n, r):
        # phi_{n+4}(r) underflows to 0 (the defect would be phi_n itself) or r^2 overflows (nan)
        with pytest.raises(BesselDomainError, match=re.escape(f"n={n}, r={r!r}")):
            ode_residual(n, r)

    def test_resolved_large_r_kept(self):
        # phi_5(1e154) is still a normal double and r^2 is finite: the recurrence identity holds
        assert abs(ode_residual(1, 1e154)) <= 1e-15

    def test_sweep(self):
        rs = np.linspace(0.15, 30.0, 120)
        worst = max(abs(ode_residual(n, float(r))) for n in range(1, 9) for r in rs)
        assert worst < 1e-9

    def test_sweep_relative_to_decay_envelope(self):
        # |phi_n| decays like the envelope, so an absolute 1e-9 cannot see a
        # wrong large-order value past the series cutoff
        for n in range(1, 61):
            for r in np.linspace(30.0, 60.0, 31):
                r = float(r)
                assert abs(ode_residual(n, r)) <= 1e-13 * decay_envelope(n, r), (n, r)


class TestInvariants:
    def test_recursion_lemma(self):
        rs = np.linspace(0.1, 20.0, 150)
        for q in range(1, 9):
            for r in rs:
                r = float(r)
                lhs = phi_derivative(q + 2, r) * r**q + q * phi(q + 2, r) * r ** (q - 1)
                rhs = q * phi(q, r) * r ** (q - 1)
                assert abs(lhs - rhs) < 1e-8

    def test_hypergeometric_consistency(self):
        for q in (2, 3, 4, 5):
            gam = math.gamma(q / 2.0)
            for r in np.linspace(0.1, 10.0, 80):
                r = float(r)
                closed = oracles.bessel_j_ascending(q - 2, r) * gam * (r / 2.0) ** (1 - q / 2.0)
                assert phi(q, r) == pytest.approx(closed, abs=1e-10)

    def test_decay_band(self):
        rs = np.linspace(10.0, 200.0, 600)
        for q, frozen in DECAY_CONSTANTS.items():
            sup = max(abs(psi(q + 2, float(r))) * float(r) ** ((q - 1) / 2.0) for r in rs)
            assert 0.8 * frozen <= sup <= 1.2 * frozen

    def test_boundedness(self):
        rs = np.linspace(0.0, 500.0, 1200)
        for q, frozen in BOUNDEDNESS_CONSTANTS.items():
            sup = max(abs(psi(q + 2, float(r))) for r in rs)
            assert sup <= frozen * 1.2
            assert math.isfinite(sup)


class TestConcurrency:
    def test_parallel_evaluation_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        args = [(n, 0.3 * k) for n in (1, 3, 6) for k in range(1, 40)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda a: phi(*a), args))
        serial = [phi(*a) for a in args]
        assert parallel == serial
