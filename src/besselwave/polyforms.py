"""Exact multivariate polynomials and polynomial differential k-forms.

A polynomial holds integer numerators over one positive denominator, in
lowest terms; every operation (sum, product, derivative, exterior
derivative, interior product, Lie derivative) runs on integers and is exact,
so identities can be asserted with zero tolerance.  Coefficients are read
as Fractions.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations

__all__ = ["MultiPoly", "PolyKForm", "random_multipoly", "random_kform"]

# Share of monomials drawn, and the bound on numerators and denominators, in random polynomials.
RANDOM_DENSITY = 0.4
RANDOM_MAX_ABS = 9


def _ratio(c) -> tuple[int, int]:
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def _as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(*_ratio(c))


def _index(v, what: str, stop: int | None = None) -> int:
    """v as an int, by operator.index (numpy integers pass); bools, fractional values and v outside [0, stop) raise."""
    if type(v) is not int:
        if isinstance(v, bool) or not hasattr(type(v), "__index__"):
            raise ValueError(f"{what} must be an integer, got {v!r}")
        v = operator.index(v)
    if stop is not None and not 0 <= v < stop:
        raise ValueError(f"{what} {v} out of range for {stop} variables")
    return v


class MultiPoly:
    """Polynomial in nvars variables: exponent tuple -> integer numerator, all over one denominator den > 0.

    Zero numerators are never stored and gcd(den, *nums) == 1 (den == 1 for 0),
    so equality is term-by-term; terms gives the Fraction coefficients.
    """

    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars: int, terms=None):
        nvars = _index(nvars, "variable count")
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        ratios = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(_index(e, "exponent") for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo} for {nvars} variables")
            num, den = _ratio(coeff)
            if num:
                ratios[expo] = num, den
        # each ratio is in lowest terms, so over the lcm of their denominators the numerators stay in lowest terms
        self.nvars, self.den = nvars, math.lcm(*(den for _, den in ratios.values()))
        self.nums = {expo: num * (self.den // den) for expo, (num, den) in ratios.items()}

    @classmethod
    def _of(cls, nvars: int, nums: dict, den: int) -> "MultiPoly":
        """A result from well-formed numerators over den > 0: zeros dropped, then one gcd pass."""
        nums = {e: c for e, c in nums.items() if c}
        g = math.gcd(den, *nums.values())
        out = cls.__new__(cls)
        out.nvars, out.den, out.nums = nvars, den // g, {e: c // g for e, c in nums.items()} if g > 1 else nums
        return out

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        return {e: Fraction(c, self.den) for e, c in self.nums.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, expo, c=1) -> "MultiPoly":
        return cls(nvars, {tuple(expo): c})

    @classmethod
    def variable(cls, nvars: int, axis: int) -> "MultiPoly":
        expo = [0] * nvars
        expo[_index(axis, "axis", nvars)] = 1
        return cls(nvars, {tuple(expo): 1})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        den = math.lcm(self.den, other.den)
        mine, theirs = den // self.den, den // other.den
        out = {e: c * mine for e, c in self.nums.items()}
        for e, c in other.nums.items():
            out[e] = out.get(e, 0) + c * theirs
        return MultiPoly._of(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            num, den = _ratio(other)
            return MultiPoly._of(self.nvars, {e: c * num for e, c in self.nums.items()}, self.den * den)
        other = self._coerce(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly._of(self.nvars, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = _index(k, "power")
        if k < 0:
            raise ValueError("negative power")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        return (isinstance(other, MultiPoly)
                and (self.nvars, self.den, self.nums) == (other.nvars, other.den, other.nums))

    def __hash__(self):
        if self.nums.keys() <= {(0,) * self.nvars}:  # a constant equals its value, so it hashes as that Fraction
            return hash(self.value_at_origin())
        return hash((self.nvars, self.den, tuple(sorted(self.nums.items()))))

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int) -> "MultiPoly":
        axis = _index(axis, "axis", self.nvars)
        out = {}
        for expo, c in self.nums.items():
            e = expo[axis]
            if e:  # distinct exponents stay distinct
                out[expo[:axis] + (e - 1,) + expo[axis + 1 :]] = c * e
        return MultiPoly._of(self.nvars, out, self.den)

    def laplacian(self) -> "MultiPoly":
        """Sum over axes a of e_a (e_a - 1) x^(e - 2 1_a), in one pass over the terms."""
        out: dict[tuple[int, ...], int] = {}
        for expo, c in self.nums.items():
            for axis, e in enumerate(expo):
                if e > 1:
                    key = expo[:axis] + (e - 2,) + expo[axis + 1 :]
                    out[key] = out.get(key, 0) + c * (e * (e - 1))
        return MultiPoly._of(self.nvars, out, self.den)

    def evaluate(self, point) -> Fraction:
        point = [_as_fraction(p) for p in point]
        total = sum((c * math.prod(p**e for p, e in zip(point, expo)) for expo, c in self.nums.items()), Fraction(0))
        return total / self.den

    def value_at_origin(self) -> Fraction:
        return Fraction(self.nums.get((0,) * self.nvars, 0), self.den)

    def degree(self) -> int:
        return max((sum(e) for e in self.nums), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __repr__(self):
        if not self.nums:
            return "MultiPoly(0)"
        bits = []
        for expo, coeff in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(expo) if e)
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


class PolyKForm:
    """Polynomial differential k-form: ordered axis subset -> MultiPoly."""

    __slots__ = ("nvars", "degree", "components")

    def __init__(self, nvars: int, degree: int, components=None):
        if not (0 <= degree <= nvars):
            raise ValueError(f"form degree {degree} out of range for {nvars} variables")
        self.nvars = nvars
        self.degree = degree
        clean: dict[tuple[int, ...], MultiPoly] = {}
        for key, poly in (components or {}).items():
            key = tuple(_index(a, "component axis", nvars) for a in key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError(f"component key {key} must be a strictly increasing {degree}-subset")
            if not isinstance(poly, MultiPoly):
                poly = MultiPoly.constant(nvars, poly)
            if poly.nvars != nvars:
                raise ValueError("component polynomial has wrong variable count")
            if not poly.is_zero:
                clean[key] = poly
        self.components = clean

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "PolyKForm":
        return cls(nvars, degree)

    def component(self, key) -> MultiPoly:
        return self.components.get(tuple(key), MultiPoly.zero(self.nvars))

    def __add__(self, other):
        if not isinstance(other, PolyKForm) or (other.nvars, other.degree) != (self.nvars, self.degree):
            raise ValueError("can only add forms of equal dimension and degree")
        out = dict(self.components)
        for key, poly in other.components.items():
            out[key] = out.get(key, MultiPoly.zero(self.nvars)) + poly
        return PolyKForm(self.nvars, self.degree, out)

    def __neg__(self):
        return PolyKForm(self.nvars, self.degree, {k: -p for k, p in self.components.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PolyKForm":
        return PolyKForm(self.nvars, self.degree, {k: p * c for k, p in self.components.items()})

    def __eq__(self, other):
        return (
            isinstance(other, PolyKForm)
            and (self.nvars, self.degree) == (other.nvars, other.degree)
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(sorted((k, hash(p)) for k, p in self.components.items()))))

    @property
    def is_zero(self) -> bool:
        return not self.components

    def exterior_derivative(self) -> "PolyKForm":
        """d F; raises for top-degree input."""
        if self.degree >= self.nvars:
            raise ValueError("exterior derivative of a top-degree form")
        out: dict[tuple[int, ...], MultiPoly] = {}
        for key, poly in self.components.items():
            for axis in range(self.nvars):
                if axis in key:
                    continue
                d = poly.diff(axis)
                if d.is_zero:
                    continue
                pos = sum(1 for a in key if a < axis)
                new_key = tuple(sorted(key + (axis,)))
                signed = d if pos % 2 == 0 else -d
                out[new_key] = out.get(new_key, MultiPoly.zero(self.nvars)) + signed
        return PolyKForm(self.nvars, self.degree + 1, out)

    def interior_product(self, x_field) -> "PolyKForm":
        """i_X F for a constant vector field X (rational components)."""
        x = [_as_fraction(v) for v in x_field]
        if len(x) != self.nvars:
            raise ValueError("vector field dimension mismatch")
        if self.degree == 0:
            raise ValueError("interior product of a 0-form")
        out: dict[tuple[int, ...], MultiPoly] = {}
        for key, poly in self.components.items():
            for pos, axis in enumerate(key):
                if not x[axis]:
                    continue
                new_key = key[:pos] + key[pos + 1 :]
                signed = poly * x[axis]
                if pos % 2 == 1:
                    signed = -signed
                out[new_key] = out.get(new_key, MultiPoly.zero(self.nvars)) + signed
        return PolyKForm(self.nvars, self.degree - 1, out)

    def lie_derivative(self, x_field) -> "PolyKForm":
        """L_X F = i_X dF + d i_X F (Cartan anticommutator), X constant."""
        parts = []
        if self.degree < self.nvars:
            parts.append(self.exterior_derivative().interior_product(x_field))
        if self.degree > 0:
            parts.append(self.interior_product(x_field).exterior_derivative())
        result = PolyKForm.zero(self.nvars, self.degree)
        for p in parts:
            result = result + p
        return result

    def __repr__(self):
        if not self.components:
            return f"PolyKForm({self.nvars}, {self.degree}, 0)"
        bits = [f"[{','.join(map(str, k))}]: {p!r}" for k, p in sorted(self.components.items())]
        return "PolyKForm(" + "; ".join(bits) + ")"


def random_multipoly(rng, nvars: int, degree: int) -> MultiPoly:
    """Random polynomial with small rational coefficients, for property tests."""
    if degree < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {degree}")
    ratios = {}
    for expo in _exponents_up_to(nvars, degree):
        if rng.random() < RANDOM_DENSITY:
            num = int(rng.integers(-RANDOM_MAX_ABS, RANDOM_MAX_ABS + 1))
            den = int(rng.integers(1, RANDOM_MAX_ABS + 1))
            if num:
                ratios[expo] = num, den
    den = math.lcm(*(d for _, d in ratios.values()))
    return MultiPoly._of(nvars, {e: n * (den // d) for e, (n, d) in ratios.items()} or {(0,) * nvars: 1}, den)


def random_kform(rng, nvars: int, degree: int, poly_degree: int) -> PolyKForm:
    comps = {
        key: random_multipoly(rng, nvars, poly_degree)
        for key in combinations(range(nvars), degree)
    }
    return PolyKForm(nvars, degree, comps)


def _exponents_up_to(nvars: int, degree: int):
    if nvars == 1:
        for e in range(degree + 1):
            yield (e,)
        return
    for head in range(degree + 1):
        for rest in _exponents_up_to(nvars - 1, degree - head):
            yield (head,) + rest
