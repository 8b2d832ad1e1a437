"""Closed-form wave solutions and independent residual verification.

Each family is one row (offset, power): u(t) = t^power phi_{q+offset}(tD) u0.

* velocity (2, 1): t phi_{q+2}(tD) d f, with u(0) = 0 and initial rate d f,
* position (0, 0): phi_q(tD) d f, with u(0) = d f and zero initial rate.

Both solve u_tt + (q-1)(u_t/t - power u/t^2) + L u = 0: the singular radial
acceleration B_tt h = h'' + (q-1)(h'/t - h/t^2) for velocity and
R_tt h = h'' + (q-1) h'/t for position.  The classical solution
cos(tD) u0 + (sin(tD)/D) v0 of u_tt + L u = 0 is the q = 1 pair, where
phi_1 = cos, t phi_3(t lam) = sin(t lam)/lam and both accelerations are h''.
The residual harness never differentiates symbolically in t: its 4th-order
finite-difference stencils check the closed forms independently.

The same accelerations act symbolically on exact Laurent polynomials for
the factorization identity and the monomial source problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .domains import Cochain, SpectralDomain
from .specops import _profile

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
        return self + (-other)

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
    return radial_acceleration(h, q) - h.shift_power(-2).scale(q - 1)


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


# (profile offset, power of t) per family: u(t) = t^power phi_{q+offset}(tD) u0.
_FAMILIES = {"velocity": (2, 1), "position": (0, 0)}


@dataclass(frozen=True)
class WaveSolution:
    """Evaluation map t -> Cochain for one solution family."""

    domain: SpectralDomain
    kind: str  # "classical" | "velocity" | "position"
    q: int
    u0: Cochain
    v0: Cochain | None = None

    def __post_init__(self):
        if self.kind != "classical" and self.kind not in _FAMILIES:
            raise ValueError(f"unknown solution kind {self.kind!r}")
        if self.kind == "classical" and self.q != 1:
            raise ValueError(f"the classical solution is the q = 1 pair, got q={self.q}")

    @property
    def degree(self) -> int:
        return self.u0.degree

    def at(self, t):
        """u(t) as a Cochain at one time t, or a list of them along a sequence of times, one `_profile` call per row."""
        times = _times(t)
        dom, (radii, index) = self.domain, self.domain.roots
        # classical is the q = 1 pair: the position family on u0 plus the velocity family on v0
        rows = (("position", self.u0), ("velocity", self.v0)) if self.kind == "classical" else ((self.kind, self.u0),)
        terms = []
        for kind, u in rows:
            offset, power = _FAMILIES[kind]
            profile = _profile(self.q + offset, times, radii)[..., index[self.degree]]
            terms.append((times[..., None] ** power * profile if power else profile, u.coefficients))
        out = [Cochain(self.degree, reduce(np.add, [dom.even_apply(self.degree, p[j], u) for p, u in terms]))
               for j in np.ndindex(times.shape)]
        return out if times.ndim else out[0]


def _times(t) -> np.ndarray:
    times = np.asarray(t, dtype=float)
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"a wave solution needs a finite time, got {float(bad[0])}")
    return times


def classical_wave(domain: SpectralDomain, u0: Cochain, v0: Cochain) -> WaveSolution:
    """Solution cos(tD) u0 + (sin(tD)/D) v0: initial position u0, initial rate v0."""
    if u0.degree != v0.degree:
        raise ValueError("classical solution needs u0, v0 of one common degree")
    return WaveSolution(domain=domain, kind="classical", q=1, u0=u0, v0=v0)


def _solution_from_df(domain: SpectralDomain, f: Cochain, kind: str, q) -> WaveSolution:
    q = domain.q if q is None else q
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
        raise ValueError(f"{kind} solution needs an integer q, got q={q!r}")
    if q < 1:
        raise ValueError(f"{kind} solution needs q >= 1, got q={q}")
    if f.degree >= domain.top_degree:
        raise ValueError(f"{kind} solution needs f below the top degree")
    df = domain.cochain(f.degree + 1, domain.apply_d(f.degree, f.coefficients))
    return WaveSolution(domain=domain, kind=kind, q=int(q), u0=df)


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
    lam = math.sqrt(solution.domain.laplacian_spectrum(solution.degree).max())
    return min(1e-3, 0.005 / lam) if lam > 0.0 else 1e-3


def pde_residual(solution: WaveSolution, t, dt: float | None = None):
    """Finite-difference defect of the governing equation at time t, or a list of them along a sequence of times.

    Second derivative by the 5-point 4th-order stencil, first derivative by
    the 4-point 4th-order stencil; the singular 1/t coefficients keep the
    harness away from t < 5 dt.  dt defaults to `residual_step(solution)`.
    One `WaveSolution.at` call, after every check, evaluates all the stencil times.  ValueError where a time is
    not finite, the five stencil times are not distinct or 12 dt^2 is not a normal float.
    """
    if dt is None:
        dt = residual_step(solution)
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    sweep = _times(t)
    stencils = np.add.outer(sweep, dt * np.arange(-2, 3))  # t + j dt, j = -2..2
    for s, times in zip(sweep.ravel().tolist(), stencils.reshape(-1, 5)):
        if s < 5.0 * dt:
            raise ValueError(f"residual stencil needs t >= 5 dt, got t={s}, dt={dt}")
        if len(set(times.tolist())) < 5:
            raise ValueError(f"dt={dt!r} is below the spacing of floats at t={s!r}: the stencil times t + j dt, "
                             "j = -2..2, are not five distinct floats")
    scale = 12.0 * dt * dt
    if not 2.0**-1022 <= scale < math.inf:  # 2^-1022 is the smallest normal double
        raise ValueError(f"dt={dt!r}: 12 dt^2 = {scale!r} is not a normal float")
    values = [u.coefficients for u in solution.at(stencils.ravel())]
    spectrum = solution.domain.laplacian_spectrum(solution.degree)
    _, power = _FAMILIES.get(solution.kind, (0, 0))  # classical has q = 1, where power drops out
    defects = []
    for i, s in enumerate(sweep.ravel().tolist()):
        um2, um1, u0, up1, up2 = values[5 * i : 5 * i + 5]
        u_tt = (-um2 + 16.0 * um1 - 30.0 * u0 + 16.0 * up1 - up2) / scale
        u_t = (um2 - 8.0 * um1 + 8.0 * up1 - up2) / (12.0 * dt)
        lap = solution.domain.even_apply(solution.degree, spectrum, u0)
        defect = u_tt + (solution.q - 1) * (u_t / s - power * u0 / (s * s)) + lap
        defects.append(float(np.linalg.norm(defect)))
    return defects if sweep.ndim else defects[0]
