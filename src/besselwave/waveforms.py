"""Closed-form wave solutions and independent residual verification.

Three solution families on a spectral domain:

* classical:  u(t) = cos(tD) u0 + t sinc(tD) v0  solves  u_tt + L u = 0,
* velocity:   u(t) = t phi_{q+2}(tD) d f          solves  B_tt u + L u = 0
              with u(0) = 0 and initial rate d f,
* position:   u(t) = phi_q(tD) d f                solves  R_tt u + L u = 0
              with u(0) = d f and zero initial rate,

where B_tt h = h'' + (q-1)(h'/t - h/t^2) is the singular radial
acceleration with unit angular momentum and R_tt h = h'' + (q-1) h'/t the
zero-angular-momentum one.  The residual harness never differentiates
symbolically in t: it uses 4th-order finite-difference stencils, so it is
an independent check of the closed forms.

The same accelerations act symbolically on exact Laurent polynomials for
the factorization identity and the monomial source problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import besselfn
from .domains import Cochain, SpectralDomain, spectrum_by_degree
from .specops import functional_calculus

__all__ = [
    "LaurentPoly",
    "WaveSolution",
    "classical_wave",
    "velocity_solution",
    "position_solution",
    "pde_residual",
    "residual_step",
    "bessel_acceleration",
    "radial_acceleration",
    "factorization_check",
    "MonomialSourceCertificate",
    "monomial_source_solution",
]


# ---------------------------------------------------------------------------
# exact Laurent polynomials in t
# ---------------------------------------------------------------------------


class LaurentPoly:
    """Finite Laurent polynomial in one variable with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for power, coeff in (coeffs or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[int(power)] = coeff
        self.coeffs = clean

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "LaurentPoly":
        return cls({power: Fraction(coeff)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) - c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({p: -c for p, c in self.coeffs.items()})

    def scale(self, c) -> "LaurentPoly":
        c = Fraction(c)
        return LaurentPoly({p: c * v for p, v in self.coeffs.items()})

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({p - 1: c * p for p, c in self.coeffs.items() if p})

    def shift_power(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({p + k: c for p, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t: float) -> float:
        return float(sum(float(c) * t**p for p, c in self.coeffs.items()))

    def coefficient(self, power: int) -> Fraction:
        return self.coeffs.get(power, Fraction(0))

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        bits = [f"{c}*t^{p}" for p, c in sorted(self.coeffs.items())]
        return "LaurentPoly(" + " + ".join(bits) + ")"


def bessel_acceleration(h: LaurentPoly, q: int) -> LaurentPoly:
    """h'' + (q-1)(h'/t - h/t^2), exactly."""
    return (
        h.derivative().derivative()
        + h.derivative().shift_power(-1).scale(q - 1)
        - h.shift_power(-2).scale(q - 1)
    )


def radial_acceleration(h: LaurentPoly, q: int) -> LaurentPoly:
    """h'' + (q-1) h'/t, exactly."""
    return h.derivative().derivative() + h.derivative().shift_power(-1).scale(q - 1)


def factorization_check(q: int, poly_coeffs) -> float:
    """Max deviation on t = 0.5, 0.55, ..., 3.0 between the factored and expanded accelerations.

    (d/dt + q/t)(d/dt - 1/t) h  versus  h'' + (q-1)(h'/t - h/t^2) for a
    polynomial h given by its ascending coefficients.  The symbolic
    difference is identically zero, so the returned max is exactly 0.0.
    """
    h = LaurentPoly({p: Fraction(c) for p, c in enumerate(poly_coeffs)})
    inner = h.derivative() - h.shift_power(-1)
    factored = inner.derivative() + inner.shift_power(-1).scale(q)
    direct = bessel_acceleration(h, q)
    diff = factored - direct
    return max(abs(diff(0.5 + 0.05 * i)) for i in range(51)) if not diff.is_zero else 0.0


@dataclass(frozen=True)
class MonomialSourceCertificate:
    """Solution of B_tt f = t^(n-1) with its exact residual."""

    q: int
    n: int
    solution: LaurentPoly
    residual: LaurentPoly
    value_at_zero: Fraction
    rate_at_zero: Fraction


def monomial_source_solution(q: int, n: int) -> MonomialSourceCertificate:
    """f(t) = -t (1 - t^n) / (n (q + n)) with an exact zero-residual certificate."""
    if q < 1 or n < 1:
        raise ValueError("need q >= 1 and n >= 1")
    denom = Fraction(1, n * (q + n))
    solution = LaurentPoly({1: -denom, n + 1: denom})
    residual = bessel_acceleration(solution, q) - LaurentPoly.monomial(n - 1)
    return MonomialSourceCertificate(
        q=q,
        n=n,
        solution=solution,
        residual=residual,
        value_at_zero=solution.coefficient(0),
        rate_at_zero=solution.coefficient(1),
    )


# ---------------------------------------------------------------------------
# spectral solutions
# ---------------------------------------------------------------------------


def _sinc_multiplier(t: float):
    # t*sinc(t lam) = sin(t lam)/lam with the lam -> 0 limit equal to t.
    def fn(lam: float) -> float:
        x = t * lam
        if abs(x) < 1e-8:
            return t * (1.0 - x * x / 6.0)
        return math.sin(x) / lam

    return fn


@dataclass(frozen=True)
class WaveSolution:
    """Evaluation map t -> Cochain for one solution family."""

    domain: SpectralDomain
    kind: str  # "classical" | "velocity" | "position"
    q: int
    u0: Cochain
    v0: Cochain | None = None

    @property
    def degree(self) -> int:
        return self.u0.degree

    def at(self, t: float) -> Cochain:
        dom = self.domain
        if self.kind == "classical":
            pos = functional_calculus(dom, lambda lam: math.cos(t * lam), self.u0)
            vel = functional_calculus(dom, _sinc_multiplier(t), self.v0)
            return Cochain(self.degree, pos.coefficients + vel.coefficients)
        if self.kind == "velocity":
            n = self.q + 2
            return functional_calculus(dom, lambda lam: t * besselfn.phi(n, t * lam), self.u0)
        if self.kind == "position":
            return functional_calculus(dom, lambda lam: besselfn.phi(self.q, t * lam), self.u0)
        raise ValueError(f"unknown solution kind {self.kind!r}")


def classical_wave(domain: SpectralDomain, u0: Cochain, v0: Cochain) -> WaveSolution:
    """Solution cos(tD) u0 + t sinc(tD) v0: initial position u0, initial rate v0."""
    if u0.degree != v0.degree:
        raise ValueError("classical solution needs u0, v0 of one common degree")
    return WaveSolution(domain=domain, kind="classical", q=domain.q, u0=u0, v0=v0)


def _solution_from_df(domain: SpectralDomain, f: Cochain, kind: str, q) -> WaveSolution:
    if f.degree >= domain.top_degree:
        raise ValueError(f"{kind} solution needs f below the top degree")
    df = domain.cochain(f.degree + 1, domain.d_blocks[f.degree] @ f.coefficients)
    return WaveSolution(domain=domain, kind=kind, q=domain.q if q is None else int(q), u0=df)


def velocity_solution(domain: SpectralDomain, f: Cochain, q: int | None = None) -> WaveSolution:
    """Solution t phi_{q+2}(tD) df: zero initial position, initial rate df."""
    return _solution_from_df(domain, f, "velocity", q)


def position_solution(domain: SpectralDomain, f: Cochain, q: int | None = None) -> WaveSolution:
    """Solution phi_q(tD) df: initial position df, zero initial rate."""
    return _solution_from_df(domain, f, "position", q)


def residual_step(solution: WaveSolution) -> float:
    """Default step of `pde_residual`: min(1e-3, 0.005 / max |lambda|) on the solution's degree.

    The stencils' truncation error on a mode grows like dt^4 lambda^6 / 90,
    so a fixed step of 1e-3 reports more than 1e-6 for an exact solution
    once |lambda| passes ~20; holding dt |lambda| <= 0.005 keeps it far below.
    """
    top = float(spectrum_by_degree(solution.domain, solution.degree)[-1])
    lam = math.sqrt(max(top, 0.0))
    return min(1e-3, 0.005 / lam) if lam > 0.0 else 1e-3


def pde_residual(solution: WaveSolution, t: float, dt: float | None = None) -> float:
    """Finite-difference defect of the governing equation at time t.

    Second derivative by the 5-point 4th-order stencil, first derivative by
    the 4-point 4th-order stencil; the singular 1/t coefficients keep the
    harness away from t < 5 dt.  dt defaults to `residual_step(solution)`.
    """
    if dt is None:
        dt = residual_step(solution)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 5.0 * dt:
        raise ValueError(f"residual stencil needs t >= 5 dt, got t={t}, dt={dt}")
    samples = [solution.at(t + j * dt).coefficients for j in (-2, -1, 0, 1, 2)]
    um2, um1, u0, up1, up2 = samples
    u_tt = (-um2 + 16.0 * um1 - 30.0 * u0 + 16.0 * up1 - up2) / (12.0 * dt * dt)
    u_t = (um2 - 8.0 * um1 + 8.0 * up1 - up2) / (12.0 * dt)
    lap = solution.domain.laplacian(solution.degree) @ u0
    if solution.kind == "classical":
        defect = u_tt + lap
    elif solution.kind == "velocity":
        defect = u_tt + (solution.q - 1) * (u_t / t - u0 / (t * t)) + lap
    elif solution.kind == "position":
        defect = u_tt + (solution.q - 1) * (u_t / t) + lap
    else:
        raise ValueError(f"unknown solution kind {solution.kind!r}")
    return float(np.linalg.norm(defect))
