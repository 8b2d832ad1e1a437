"""Exact multivariate polynomials and polynomial differential k-forms.

Coefficients are Fractions throughout; every operation (sum, product,
derivative, exterior derivative, interior product, Lie derivative) is
exact, so identities can be asserted with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

__all__ = ["MultiPoly", "PolyKForm", "random_multipoly", "random_kform"]

# Share of monomials drawn, and the bound on numerators and denominators, in random polynomials.
RANDOM_DENSITY = 0.4
RANDOM_MAX_ABS = 9


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


class MultiPoly:
    """Polynomial in nvars variables, exponent tuple -> Fraction coefficient.

    Zero coefficients are never stored, so equality is term-by-term.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent {expo} for {nvars} variables")
            coeff = _as_fraction(coeff)
            if coeff:
                clean[expo] = coeff
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "MultiPoly":
        """A result built from well-formed terms: only the zero coefficients are dropped."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: _as_fraction(c)})

    @classmethod
    def monomial(cls, nvars: int, expo, c=1) -> "MultiPoly":
        return cls(nvars, {tuple(expo): _as_fraction(c)})

    @classmethod
    def variable(cls, nvars: int, axis: int) -> "MultiPoly":
        expo = [0] * nvars
        expo[axis] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        return MultiPoly.constant(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + coeff
        return MultiPoly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = _as_fraction(other)
            return MultiPoly._of(self.nvars, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return MultiPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
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
        return isinstance(other, MultiPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int) -> "MultiPoly":
        out = {}
        for expo, coeff in self.terms.items():
            e = expo[axis]
            if e:
                key = expo[:axis] + (e - 1,) + expo[axis + 1 :]
                out[key] = out.get(key, Fraction(0)) + coeff * e
        return MultiPoly._of(self.nvars, out)

    def laplacian(self) -> "MultiPoly":
        """Sum over axes a of e_a (e_a - 1) x^(e - 2 1_a), in one pass over the terms."""
        out: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in self.terms.items():
            for axis, e in enumerate(expo):
                if e > 1:
                    key = expo[:axis] + (e - 2,) + expo[axis + 1 :]
                    out[key] = out.get(key, Fraction(0)) + coeff * (e * (e - 1))
        return MultiPoly._of(self.nvars, out)

    def evaluate(self, point) -> Fraction:
        point = [_as_fraction(p) for p in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            v = coeff
            for p, e in zip(point, expo):
                v *= p**e
            total += v
        return total

    def value_at_origin(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
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
            key = tuple(int(a) for a in key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError(f"component key {key} must be a strictly increasing {degree}-subset")
            if any(a < 0 or a >= nvars for a in key):
                raise ValueError(f"component key {key} out of range")
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

    @classmethod
    def from_scalar(cls, poly: MultiPoly) -> "PolyKForm":
        return cls(poly.nvars, 0, {(): poly})

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
    terms = {}
    for expo in _exponents_up_to(nvars, degree):
        if rng.random() < RANDOM_DENSITY:
            num = int(rng.integers(-RANDOM_MAX_ABS, RANDOM_MAX_ABS + 1))
            den = int(rng.integers(1, RANDOM_MAX_ABS + 1))
            if num:
                terms[expo] = Fraction(num, den)
    if not terms:
        terms[(0,) * nvars] = Fraction(1)
    return MultiPoly(nvars, terms)


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
