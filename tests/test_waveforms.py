"""Wave solutions: residual harness, d'Alembert anchor, exact accelerations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from besselwave.domains import build_circle_domain, build_torus_domain
from besselwave.specops import deformed_d
from besselwave.waveforms import (
    LaurentPoly,
    bessel_acceleration,
    classical_wave,
    factorization_check,
    monomial_source_solution,
    pde_residual,
    position_solution,
    radial_acceleration,
    velocity_solution,
)

from _oracles import dalembert_shift_coefficients

# Frozen: sup over t in [50, 100] of the k=1 mode solution norm times
# t^((q-1)/2); the initial rate df carries the 2 pi mode factor.
ASYMPTOTIC_BANDS = {1: 0.999992, 2: 0.636619, 3: 0.477465, 4: 0.405284}


def unit_rate_f(dom, rng):
    raw = rng.standard_normal(dom.grading[0])
    return dom.cochain(0, raw / np.linalg.norm(dom.d_blocks[0] @ raw))


class TestClassical:
    def test_initial_position(self, circle4, rng):
        u0 = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        v0 = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        out = classical_wave(circle4, u0, v0).at(0.0)
        assert np.abs(out.coefficients - u0.coefficients).max() < 1e-14

    def test_dalembert(self, circle4, rng):
        raw = rng.standard_normal(circle4.grading[0])
        raw /= np.linalg.norm(raw)
        f = circle4.cochain(0, raw)
        df = circle4.cochain(1, circle4.d_blocks[0] @ raw)
        sol = classical_wave(circle4, circle4.zero_cochain(1), df)
        for t in (0.1, 1.0 / 3.0, 0.9):
            got = sol.at(t).coefficients
            expect = dalembert_shift_coefficients(circle4, raw, t)
            assert np.abs(got - expect).max() < 1e-12

    def test_energy_conserved(self, circle4, rng):
        u0 = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        v0 = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        sol = classical_wave(circle4, u0, v0)
        lap = circle4.dirac @ circle4.dirac

        def energy(t, dt=1e-6):
            u = sol.at(t).coefficients
            ut = (sol.at(t + dt).coefficients - sol.at(t - dt).coefficients) / (2 * dt)
            full = circle4.embed(circle4.cochain(0, u))
            return float(ut @ ut + full @ (lap @ full))

        values = [energy(t) for t in np.linspace(0.2, 3.0, 7)]
        assert max(values) - min(values) < 1e-7 * max(values)

    def test_degree_mismatch_rejected(self, circle4, rng):
        u0 = circle4.zero_cochain(0)
        v0 = circle4.cochain(1, rng.standard_normal(circle4.grading[1]))
        with pytest.raises(ValueError):
            classical_wave(circle4, u0, v0)


class TestDeformedSolutions:
    def test_velocity_zero_at_start(self, circle4, rng):
        sol = velocity_solution(circle4, unit_rate_f(circle4, rng))
        assert sol.at(0.0).norm() == 0.0

    def test_velocity_matches_deformed_d(self, circle4, rng):
        f = unit_rate_f(circle4, rng)
        sol = velocity_solution(circle4, f, q=1)
        for t in (0.2, 0.8):
            direct = deformed_d(circle4, t, f)
            assert np.abs(sol.at(t).coefficients - direct.coefficients).max() < 1e-13

    def test_velocity_q1_is_classical(self, circle4, rng):
        raw = rng.standard_normal(circle4.grading[0])
        f = circle4.cochain(0, raw)
        df = circle4.cochain(1, circle4.d_blocks[0] @ raw)
        vs = velocity_solution(circle4, f, q=1)
        cs = classical_wave(circle4, circle4.zero_cochain(1), df)
        for t in (0.1, 1.0 / 3.0, 0.9):
            assert np.abs(vs.at(t).coefficients - cs.at(t).coefficients).max() < 1e-12

    def test_position_initial_data(self, torus2, rng):
        raw = rng.standard_normal(torus2.grading[0])
        f = torus2.cochain(0, raw)
        sol = position_solution(torus2, f)
        df = torus2.d_blocks[0] @ raw
        assert np.abs(sol.at(0.0).coefficients - df).max() < 1e-12
        eps = 1e-4
        rate = np.linalg.norm((sol.at(eps).coefficients - sol.at(-eps).coefficients) / (2 * eps))
        assert rate < 1e-6

    def test_initial_rate_is_df(self, circle4, rng):
        f = unit_rate_f(circle4, rng)
        df = circle4.d_blocks[0] @ f.coefficients
        sol = velocity_solution(circle4, f)
        # one-sided limit with Richardson extrapolation from t = 1e-4
        t1, t2 = 1e-4, 5e-5
        r1 = sol.at(t1).coefficients / t1
        r2 = sol.at(t2).coefficients / t2
        extrap = (4.0 * r2 - r1) / 3.0
        assert np.abs(extrap - df).max() < 1e-10

    def test_linearity(self, circle4, rng):
        f1 = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        f2 = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        mixed = circle4.cochain(0, 2.0 * f1.coefficients - 3.0 * f2.coefficients)
        t = 0.7
        lhs = velocity_solution(circle4, mixed, q=3).at(t).coefficients
        rhs = (2.0 * velocity_solution(circle4, f1, q=3).at(t).coefficients
               - 3.0 * velocity_solution(circle4, f2, q=3).at(t).coefficients)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_degree_bookkeeping(self, torus2, rng):
        f = torus2.cochain(1, rng.standard_normal(torus2.grading[1]))
        assert velocity_solution(torus2, f).at(0.4).degree == 2


class TestResidualHarness:
    def test_sweep_all_kinds(self, torus2, rng):
        f = unit_rate_f(torus2, rng)
        for q in (1, 2, 3, 4, 5, 6):
            for t in (0.5, 1.0, 2.0):
                assert pde_residual(velocity_solution(torus2, f, q=q), t) < 1e-6
                assert pde_residual(position_solution(torus2, f, q=q), t) < 1e-6

    def test_single_mode_tight(self, torus3):
        idx = next(i for i, l in enumerate(torus3.labels)
                   if l.degree == 2 and l.subset == (1, 2)
                   and l.phase == "cos" and l.mode == (1, 0, 0))
        coeffs = np.zeros(torus3.grading[2])
        coeffs[idx - torus3.offsets[2]] = 1.0
        f = torus3.cochain(2, coeffs)
        vs = velocity_solution(torus3, f, q=3)
        assert vs.at(0.5).norm() > 1e-3  # mode actually propagates
        assert pde_residual(vs, 1.0) < 1e-7
        assert pde_residual(position_solution(torus3, f, q=3), 1.0) < 1e-7

    def test_circle_reused_with_formal_q(self, circle4, rng):
        f = unit_rate_f(circle4, rng)
        assert pde_residual(position_solution(circle4, f, q=5), 2.0) < 1e-6

    def test_classical_anchor(self, circle4, rng):
        u0 = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        v0 = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        norm = math.sqrt(u0.norm() ** 2 + v0.norm() ** 2)
        u0 = circle4.cochain(0, u0.coefficients / norm)
        v0 = circle4.cochain(0, v0.coefficients / norm)
        assert pde_residual(classical_wave(circle4, u0, v0), 1.0) < 1e-6

    def test_default_step_follows_the_spectrum(self, rng):
        # |lambda| reaches 16 pi on circle8 and 6 pi sqrt 2 on torus2-3, where a fixed
        # dt = 1e-3 reports 1e-4 and 3e-6 for these exact solutions.
        for dom in (build_circle_domain(8), build_torus_domain(2, 3)):
            f = unit_rate_f(dom, rng)
            for t in (0.5, 1.0, 2.0):
                assert pde_residual(position_solution(dom, f, q=1), t) < 1e-6

    def test_fourth_order_convergence(self, torus2, rng):
        # the defect is stencil truncation: halving dt divides it by ~16
        f = unit_rate_f(torus2, rng)
        for build in (velocity_solution, position_solution):
            sol = build(torus2, f, q=2)
            coarse = pde_residual(sol, 1.0, dt=2e-3)
            fine = pde_residual(sol, 1.0, dt=1e-3)
            assert 10.0 < coarse / fine < 24.0

    def test_singularity_guard(self, circle4, rng):
        sol = velocity_solution(circle4, unit_rate_f(circle4, rng))
        with pytest.raises(ValueError):
            pde_residual(sol, 1e-3, dt=1e-3)

    def test_asymptotic_amplitude_band(self):
        dom = build_circle_domain(1)
        idx = next(i for i, l in enumerate(dom.labels)
                   if l.degree == 0 and l.phase == "sin" and l.mode == (1,))
        coeffs = np.zeros(dom.grading[0])
        coeffs[idx] = 1.0
        f = dom.cochain(0, coeffs)
        for q, frozen in ASYMPTOTIC_BANDS.items():
            sol = velocity_solution(dom, f, q=q)
            sup = max(sol.at(float(t)).norm() * float(t) ** ((q - 1) / 2.0)
                      for t in np.linspace(50.0, 100.0, 400))
            assert 0.7 * frozen <= sup <= 1.2 * frozen


class TestExactAccelerations:
    def test_factorization_polynomials(self):
        assert factorization_check(3, [0, 1]) == 0.0          # h = t
        assert factorization_check(3, [0, 0, 1]) == 0.0       # h = t^2
        assert factorization_check(7, [0, 0, 0, 0, 0, 1]) == 0.0  # h = t^5
        assert factorization_check(2, [5, -1, 3, 0, 2]) == 0.0

    def test_monomial_source_family(self):
        cert = monomial_source_solution(3, 2)
        assert cert.solution == LaurentPoly({1: Fraction(-1, 10), 3: Fraction(1, 10)})
        assert cert.residual.is_zero
        assert cert.value_at_zero == 0
        assert cert.rate_at_zero == Fraction(-1, 10)

        cert = monomial_source_solution(1, 1)
        assert cert.solution == LaurentPoly({1: Fraction(-1, 2), 2: Fraction(1, 2)})
        assert cert.residual.is_zero

        for q in (1, 2, 4, 7):
            for n in (1, 2, 3, 6):
                cert = monomial_source_solution(q, n)
                assert cert.residual.is_zero
                assert cert.rate_at_zero == Fraction(-1, n * (q + n))

    def test_homogeneous_family(self):
        # a t^2/(q+1) + c t solves B_tt u = a for any c
        for q in (1, 3, 6):
            h = LaurentPoly({2: Fraction(5, q + 1), 1: Fraction(9, 2)})
            out = bessel_acceleration(h, q)
            assert out == LaurentPoly({0: Fraction(5)})

    def test_radial_acceleration(self):
        # R_tt t^2 = 2 + 2(q-1) = 2q
        for q in (1, 2, 5):
            out = radial_acceleration(LaurentPoly({2: 1}), q)
            assert out == LaurentPoly({0: Fraction(2 * q)})

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            monomial_source_solution(0, 1)
        with pytest.raises(ValueError):
            monomial_source_solution(2, 0)
