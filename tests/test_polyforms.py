"""Exact polynomial forms: ring ops, Cartan calculus, worked 2-form example."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from besselwave.polyforms import MultiPoly, PolyKForm, random_kform, random_multipoly

from _oracles import (FractionMultiPoly, kform_d_oracle, kform_interior_oracle, kform_lie_oracle,
                      laplacian_by_diff)


def x_(n, i):
    return MultiPoly.variable(n, i)


class TestMultiPoly:
    def test_binomial_square(self):
        x, y = x_(2, 0), x_(2, 1)
        expanded = (x + y) ** 2
        assert expanded == x * x + x * y * 2 + y * y

    def test_no_zero_terms_stored(self):
        x = x_(2, 0)
        assert (x - x).terms == {}
        assert (x - x).is_zero

    def test_diff_and_laplacian(self):
        x, y = x_(2, 0), x_(2, 1)
        p = x**3 * y + y**2
        assert p.diff(0) == x**2 * y * 3
        assert p.laplacian() == x * y * 6 + 2

    def test_laplacian_matches_the_diff_oracle(self, rng):
        for nvars in range(1, 7):
            for degree in range(0, 11, 2 if nvars > 4 else 1):
                g = random_multipoly(rng, nvars, degree)
                assert g.laplacian() == laplacian_by_diff(g), (nvars, degree)

    def test_evaluate(self):
        x, y = x_(2, 0), x_(2, 1)
        p = x * y * 5 - y**3
        assert p.evaluate([Fraction(1, 2), Fraction(2)]) == Fraction(5) - Fraction(8)

    def test_exact_rationals(self):
        p = MultiPoly(1, {(1,): Fraction(1, 3)})
        q = p * 3
        assert q == MultiPoly(1, {(1,): 1})

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            x_(2, 0) + x_(3, 0)

    def test_degree(self):
        assert (x_(2, 0) ** 3 * x_(2, 1)).degree() == 4
        assert MultiPoly.zero(2).degree() == 0

    @pytest.mark.parametrize("build", [
        lambda: MultiPoly(2, {(1, 2): 1}).diff(-1),
        lambda: MultiPoly(2, {(1, 2): 1}).diff(2),
        lambda: MultiPoly(1, {(1.5,): 1}),
        lambda: MultiPoly(1, {(True,): 1}),
        lambda: MultiPoly.variable(3, -1),
        lambda: MultiPoly.variable(3, 3),
        lambda: x_(2, 0) ** 1.5,
        lambda: x_(2, 0) ** True,
    ], ids=["diff-negative-axis", "diff-axis-past-end", "fractional-exponent", "bool-exponent",
            "variable-negative-axis", "variable-axis-past-end", "fractional-power", "bool-power"])
    def test_bad_exponents_axes_and_powers_raise(self, build):
        with pytest.raises(ValueError):
            build()

    def test_numpy_integer_exponents_and_axes_pass(self):
        p = MultiPoly(2, {(np.int64(2), np.int32(1)): 3})
        assert p == x_(2, 0) ** np.int64(2) * x_(2, 1) * 3
        assert p.diff(np.int64(1)) == x_(2, 0) ** 2 * 3 == MultiPoly.variable(2, np.int64(0)) ** 2 * 3

    def test_hash_agrees_with_equality(self):
        assert MultiPoly.constant(1, 3) == 3 and hash(MultiPoly.constant(1, 3)) == hash(3)
        assert {MultiPoly.constant(1, 3), 3} == {3}
        assert hash(MultiPoly.constant(2, Fraction(-5, 6))) == hash(Fraction(-5, 6))
        assert hash(MultiPoly.zero(3)) == hash(0)
        assert hash(x_(2, 0) * Fraction(1, 2) + x_(2, 0) * Fraction(1, 2)) == hash(x_(2, 0))

    def test_lowest_terms(self, rng):
        half_x = x_(1, 0) * Fraction(1, 2)
        assert (half_x + half_x).den == 1 and (half_x + half_x).nums == {(1,): 1}
        assert MultiPoly(2, {(1, 0): Fraction(2, 4), (0, 1): Fraction(1, 6)}).nums == {(1, 0): 3, (0, 1): 1}
        assert (half_x - half_x).den == 1 and (half_x * 0).den == 1
        for _ in range(40):
            p, r = random_multipoly(rng, 3, 4), random_multipoly(rng, 3, 4)
            for out in (p + r, p - r, p * r, p.diff(0), p.laplacian(), p * Fraction(6, 7), -p):
                assert out.den >= 1 and 0 not in out.nums.values()
                assert math.gcd(out.den, *out.nums.values()) == 1

    def test_agrees_with_the_fraction_oracle(self, rng):
        for _ in range(60):
            nvars, degree = int(rng.integers(1, 5)), int(rng.integers(0, 6))
            p, r = random_multipoly(rng, nvars, degree), random_multipoly(rng, nvars, degree)
            fp, fr = FractionMultiPoly(nvars, p.terms), FractionMultiPoly(nvars, r.terms)
            c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            k, axis = int(rng.integers(0, 4)), int(rng.integers(nvars))
            pairs = [(p + r, fp + fr), (p - r, fp - fr), (p * r, fp * fr), (p**k, fp**k), (-p, -fp),
                     (p.diff(axis), fp.diff(axis)), (p.laplacian(), fp.laplacian()),
                     (p * c, fp * c), (c * p, fp * c), (p * 3, fp * 3), (p + c, fp + c), (c - p, c - fp),
                     (p.laplacian().laplacian(), fp.laplacian().laplacian())]
            for got, want in pairs:
                assert got.terms == want.terms and repr(got) == repr(want)
                assert got.degree() == want.degree() and got.value_at_origin() == want.value_at_origin()
            point = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(nvars)]
            assert p.evaluate(point) == fp.evaluate(point)

    def test_no_fraction_is_built_by_the_arithmetic(self, rng):
        p, r = random_multipoly(rng, 3, 6), random_multipoly(rng, 3, 6)
        assert any(c.denominator > 1 for c in p.terms.values())
        assert any(c.denominator > 1 for c in r.terms.values())
        calls = []

        def count_fractions(frame, event, arg):
            if event == "call" and frame.f_code is Fraction.__new__.__code__:
                calls.append(frame.f_back.f_code.co_name)  # the caller, to name it on failure

        sys.setprofile(count_fractions)
        try:
            p.laplacian().laplacian(), p.diff(0), p.diff(2), p + r, p - r, r * p, p * 3, p**2
        finally:
            sys.setprofile(None)
        assert not calls


class TestPolyKForm:
    def test_component_key_validation(self):
        with pytest.raises(ValueError):
            PolyKForm(3, 2, {(1, 0): MultiPoly.constant(3, 1)})
        with pytest.raises(ValueError):
            PolyKForm(2, 1, {(0,): MultiPoly.constant(3, 1)})

    @pytest.mark.parametrize("key", [(0.7,), (True,), (-1,), (2,)])
    def test_component_axes_must_be_in_range_integers(self, key):
        with pytest.raises(ValueError):
            PolyKForm(2, 1, {key: x_(2, 0)})

    def test_agrees_with_the_fraction_oracle(self, rng):
        for _ in range(20):
            nvars = int(rng.integers(2, 5))
            degree = int(rng.integers(0, nvars + 1))
            form = random_kform(rng, nvars, degree, int(rng.integers(0, 5)))
            comps = {key: FractionMultiPoly(nvars, p.terms) for key, p in form.components.items()}
            x_field = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(nvars)]
            checks = [(form.lie_derivative(x_field), kform_lie_oracle(nvars, comps, x_field))]
            if degree < nvars:
                checks.append((form.exterior_derivative(), kform_d_oracle(nvars, comps)))
            if degree > 0:
                checks.append((form.interior_product(x_field), kform_interior_oracle(nvars, comps, x_field)))
            for got, want in checks:
                assert {k: p.terms for k, p in got.components.items()} == {k: p.terms for k, p in want.items()}
                assert {k: repr(p) for k, p in got.components.items()} == {k: repr(p) for k, p in want.items()}

    def test_d_squared_zero_random(self, rng):
        for _ in range(10):
            form = random_kform(rng, 3, 1, 3)
            assert form.exterior_derivative().exterior_derivative().is_zero

    def test_interior_product_signs(self):
        # i_X(dx ^ dy) = X_1 dy - X_2 dx
        form = PolyKForm(2, 2, {(0, 1): MultiPoly.constant(2, 1)})
        out = form.interior_product((Fraction(2), Fraction(3)))
        assert out.component((1,)) == MultiPoly.constant(2, 2)
        assert out.component((0,)) == MultiPoly.constant(2, -3)

    def test_lie_derivative_example(self):
        # L_X (x^2 dy) with X = (1, 0): 2x dy
        form = PolyKForm(2, 1, {(1,): x_(2, 0) ** 2})
        out = form.lie_derivative((1, 0))
        assert out == PolyKForm(2, 1, {(1,): x_(2, 0) * 2})

    def test_worked_two_form(self):
        # g = (x+y-z)^n d(x-y)^dy = (x+y-z)^n dx^dy, X = (1,-1,0)
        n = 4
        base = (x_(3, 0) + x_(3, 1) - x_(3, 2)) ** n
        g = PolyKForm(3, 2, {(0, 1): base})
        x_field = (1, -1, 0)
        assert g.lie_derivative(x_field).is_zero
        # exact interior product has components on dx and dy both
        ixg = g.interior_product(x_field)
        assert ixg == PolyKForm(3, 1, {(0,): base, (1,): base})
        # Cartan anticommutation under L_X g = 0
        lhs = ixg.exterior_derivative()
        rhs = g.exterior_derivative().interior_product(x_field)
        assert (lhs + rhs).is_zero

    def test_anticommutation_random_invariant_forms(self, rng):
        x_field = (2, 1, 0)
        killed = x_(3, 0) - x_(3, 1) * 2  # x - 2y, annihilated by X . grad
        other = x_(3, 2)
        for _ in range(10):
            a = int(rng.integers(-3, 4))
            b = int(rng.integers(0, 3))
            c = int(rng.integers(0, 3))
            poly = (killed**b) * (other**c) * a + killed
            form = PolyKForm(3, 2, {(0, 2): poly, (1, 2): poly * 2})
            assert form.lie_derivative(x_field).is_zero
            anti = (form.interior_product(x_field).exterior_derivative()
                    + form.exterior_derivative().interior_product(x_field))
            assert anti.is_zero

    def test_top_degree_derivative_rejected(self):
        form = PolyKForm(2, 2, {(0, 1): MultiPoly.constant(2, 1)})
        with pytest.raises(ValueError):
            form.exterior_derivative()

    def test_zero_form_interior_rejected(self):
        form = PolyKForm(2, 0, {(): x_(2, 0)})
        with pytest.raises(ValueError):
            form.interior_product((1, 0))

    def test_vector_dimension_mismatch(self):
        form = PolyKForm(3, 1, {(0,): MultiPoly.constant(3, 1)})
        with pytest.raises(ValueError):
            form.interior_product((1, 0))


class TestRandomGenerators:
    def test_reproducible(self):
        rng1 = np.random.default_rng(np.random.Philox(5))
        rng2 = np.random.default_rng(np.random.Philox(5))
        assert random_multipoly(rng1, 2, 4) == random_multipoly(rng2, 2, 4)

    def test_degree_bound(self, rng):
        for _ in range(5):
            assert random_multipoly(rng, 3, 6).degree() <= 6

    @pytest.mark.parametrize("degree", [-1, -5])
    def test_negative_degree_rejected(self, rng, degree):
        with pytest.raises(ValueError, match="degree"):
            random_multipoly(rng, 2, degree)
        with pytest.raises(ValueError, match="degree"):
            random_kform(rng, 3, 2, degree)
