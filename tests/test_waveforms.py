"""Wave solutions: residual harness, d'Alembert anchor, exact accelerations."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from besselwave import waveforms
from besselwave.domains import SimplicialComplex, build_circle_domain, build_simplicial_domain, build_torus_domain
from besselwave.specops import deformed_d
from besselwave.waveforms import (
    LaurentPoly,
    WaveSolution,
    bessel_acceleration,
    classical_wave,
    factorization_check,
    monomial_source_solution,
    pde_residual,
    position_solution,
    radial_acceleration,
    velocity_solution,
)

from _oracles import dalembert_shift_coefficients, embed

# Frozen: sup over t in [50, 100] of the k=1 mode solution norm times
# t^((q-1)/2); the initial rate df carries the 2 pi mode factor.
ASYMPTOTIC_BANDS = {1: 0.999992, 2: 0.636619, 3: 0.477465, 4: 0.405284}

OCTAHEDRON = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
              [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]


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
            full = embed(circle4, circle4.cochain(0, u))
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
        # velocity is the sin(tD)/D half of the classical pair, position the cos(tD) half
        pairs = ((velocity_solution(circle4, f, q=1), classical_wave(circle4, circle4.zero_cochain(1), df)),
                 (position_solution(circle4, f, q=1), classical_wave(circle4, df, circle4.zero_cochain(1))))
        for deformed, classical in pairs:
            for t in (0.1, 1.0 / 3.0, 0.9):
                assert np.abs(deformed.at(t).coefficients - classical.at(t).coefficients).max() < 1e-12

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

    def test_classical_is_the_q1_pair(self, torus2):
        zero = torus2.zero_cochain(0)
        assert classical_wave(torus2, zero, zero).q == 1

    def test_kind_checked_on_construction(self, circle4):
        with pytest.raises(ValueError, match="unknown solution kind 'bogus'"):
            WaveSolution(domain=circle4, kind="bogus", q=1, u0=circle4.zero_cochain(0))
        with pytest.raises(ValueError, match="the classical solution is the q = 1 pair"):
            WaveSolution(domain=circle4, kind="classical", q=3, u0=circle4.zero_cochain(0))

    def test_q_below_one_rejected(self, circle4, rng):
        f = unit_rate_f(circle4, rng)
        for build in (velocity_solution, position_solution):
            for q in (0, -1):
                with pytest.raises(ValueError, match=f"needs q >= 1, got q={q}"):
                    build(circle4, f, q=q)

    def test_non_integer_q_rejected(self, circle4, rng):
        f = unit_rate_f(circle4, rng)
        for build in (velocity_solution, position_solution):
            for q in (2.5, 2.0, True):
                with pytest.raises(ValueError, match=f"needs an integer q, got q={q!r}"):
                    build(circle4, f, q=q)
            assert build(circle4, f, q=np.int64(2)).q == 2

    def test_non_finite_time_rejected(self, circle4, rng):
        f = unit_rate_f(circle4, rng)
        zero = circle4.zero_cochain(0)
        for sol in (velocity_solution(circle4, f), position_solution(circle4, f), classical_wave(circle4, zero, zero)):
            for t in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="a wave solution needs a finite time"):
                    sol.at(t)
                with pytest.raises(ValueError, match="a wave solution needs a finite time"):
                    sol.at([0.5, t])
                with pytest.raises(ValueError, match="a wave solution needs a finite time"):
                    pde_residual(sol, t)


def _three_kinds(dom, rng):
    f = unit_rate_f(dom, rng)
    df = dom.cochain(1, dom.apply_d(0, f.coefficients))
    v0 = dom.cochain(1, rng.standard_normal(dom.grading[1]))
    return velocity_solution(dom, f, q=2), position_solution(dom, f, q=2), classical_wave(dom, df, v0)


class TestTimeSweeps:
    # A sweep of times is one _profile call per family row, and each of its values equals the time alone.

    @pytest.mark.parametrize("name", ["torus2", "octahedron"])
    def test_a_sweep_equals_its_times_alone(self, name, torus2, rng):
        dom = torus2 if name == "torus2" else build_simplicial_domain(SimplicialComplex.from_maximal(OCTAHEDRON))
        times = [0.3, 0.7, 1.3, 2.5, 3.1, 0.0, -0.4]  # t |lambda| reaches past 40 on torus2
        for sol in _three_kinds(dom, rng):
            sweep = sol.at(times)
            assert isinstance(sweep, list) and len(sweep) == len(times)
            for t, u in zip(times, sweep):
                alone = sol.at(t)
                assert u.degree == alone.degree == sol.degree
                assert np.array_equal(u.coefficients.view(np.int64), alone.coefficients.view(np.int64)), (sol.kind, t)
            assert sol.at(np.array(times))[2].coefficients.tolist() == sweep[2].coefficients.tolist()

    def test_the_residual_makes_one_profile_call_per_family_row(self, torus2, rng, monkeypatch):
        # a residual evaluates its five stencil times, and a sweep of three its fifteen, in one call per row
        profile, shapes = waveforms._profile, []
        monkeypatch.setattr(waveforms, "_profile", lambda n, t, r: shapes.append(np.shape(t)) or profile(n, t, r))
        for sol, rows in zip(_three_kinds(torus2, rng), (1, 1, 2)):
            shapes.clear()
            pde_residual(sol, 1.0)
            assert shapes == [(5,)] * rows, sol.kind
            shapes.clear()
            assert len(pde_residual(sol, (0.5, 1.0, 2.0))) == 3
            assert shapes == [(15,)] * rows, sol.kind

    def test_a_residual_sweep_equals_its_times_alone(self, torus2, rng):
        for sol in _three_kinds(torus2, rng):
            times = (0.5, 1.0, 2.0)
            assert pde_residual(sol, times) == [pde_residual(sol, t) for t in times]

    def test_the_residual_refuses_before_it_evaluates(self, circle4, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("the profile was evaluated")

        sol = velocity_solution(circle4, unit_rate_f(circle4, rng))
        monkeypatch.setattr(waveforms, "_profile", refuse)
        with pytest.raises(ValueError, match="are not five distinct floats"):
            pde_residual(sol, 0.5, dt=1e-17)
        with pytest.raises(ValueError, match=re.escape("dt=1e-165: 12 dt^2 = ")):
            pde_residual(sol, 1e-164, dt=1e-165)
        with pytest.raises(ValueError, match="at t=0.5: the stencil times"):  # a sweep is checked whole
            pde_residual(sol, [1e-12, 0.5], dt=1e-17)
        with pytest.raises(ValueError, match="residual stencil needs t >= 5 dt"):
            pde_residual(sol, [1.0, 1e-3], dt=1e-3)
        with pytest.raises(ValueError, match="a wave solution needs a finite time"):
            pde_residual(sol, [1.0, math.inf])


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

    def test_non_finite_step_rejected(self, circle4, rng):
        sol = velocity_solution(circle4, unit_rate_f(circle4, rng))
        for dt in (math.nan, math.inf, 0.0, -1e-3):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                pde_residual(sol, 1.0, dt=dt)

    def test_step_below_float_resolution_rejected(self, circle4, rng):
        # every stencil time rounds to t, so the quotient is rounding noise (2965 at dt = 1e-17), inf or nan
        sol = velocity_solution(circle4, unit_rate_f(circle4, rng))
        for dt in (1e-17, 1e-100, 1e-165):
            with pytest.raises(ValueError, match=f"dt={dt!r} is below the spacing of floats at t=0.5"):
                pde_residual(sol, 0.5, dt=dt)
        for t, dt in ((1e-164, 1e-165), (5e-160, 1e-160)):  # distinct times, 12 dt^2 below the normal floats
            with pytest.raises(ValueError, match=re.escape(f"dt={dt!r}: 12 dt^2 = ")):
                pde_residual(sol, t, dt=dt)
        assert pde_residual(sol, 0.5, dt=1e-3) < 1e-6

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

    def test_coefficients_are_exact(self):
        # a float coefficient is refused, as MultiPoly refuses it, not stored as its binary expansion
        for build in (lambda: LaurentPoly({0: 0.1}), lambda: LaurentPoly.monomial(2, 0.5),
                      lambda: LaurentPoly({1: 1}).scale(0.5)):
            with pytest.raises(TypeError, match="exact rational"):
                build()
        assert LaurentPoly({0: 1, 1: Fraction(1, 10)}).scale(2) == LaurentPoly({0: 2, 1: Fraction(1, 5)})

    @pytest.mark.parametrize("build", [lambda: LaurentPoly({1.5: 1}), lambda: LaurentPoly({True: 1}),
                                       lambda: LaurentPoly.monomial(0.5), lambda: LaurentPoly({1: 1}).shift_power(0.5)])
    def test_powers_are_integers(self, build):
        # a fractional power is refused, not truncated to the integer below it
        with pytest.raises(ValueError, match="power must be an integer"):
            build()
        assert LaurentPoly({np.int64(-2): 1}).shift_power(np.int64(3)) == LaurentPoly.monomial(1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            monomial_source_solution(0, 1)
        with pytest.raises(ValueError):
            monomial_source_solution(2, 0)
