"""Exact polynomial forms: ring ops, Cartan calculus, worked 2-form example."""

from fractions import Fraction

import numpy as np
import pytest

from besselwave.polyforms import MultiPoly, PolyKForm, random_kform, random_multipoly

from _oracles import laplacian_by_diff


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


class TestPolyKForm:
    def test_component_key_validation(self):
        with pytest.raises(ValueError):
            PolyKForm(3, 2, {(1, 0): MultiPoly.constant(3, 1)})
        with pytest.raises(ValueError):
            PolyKForm(2, 1, {(0,): MultiPoly.constant(3, 1)})

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
        form = PolyKForm.from_scalar(x_(2, 0))
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
