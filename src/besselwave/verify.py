"""Named verification suites behind the verify-all command.

Each case measures one property and reports (name, status, measured,
bound): the case passes when measured <= bound, a literal; a case that
compares two measurements reports their ratio.  Exact-arithmetic checks
report the deviation (0.0 on success) against a bound of 0.0.  Random
inputs come from a counter-based Philox generator so runs with one seed
are reproducible.

Measurements the acceptance tests share are plain functions of explicit
inputs; the suites pass their quick or full inputs, the acceptance tests
their pinned ones, and each side keeps its own bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import besselfn, geomfront, huygens, oracles, specops, waveforms
from .domains import build_circle_domain, build_simplicial_domain, build_torus_domain, SimplicialComplex
from .polyforms import MultiPoly, PolyKForm, random_kform, random_multipoly

__all__ = ["CaseResult", "run_all", "SUITES"]

SPHERE_POINT = (math.pi / 2, 0.3)
# The full run also checks the exact Pizzetti and flux identities past q = 3.
HIGH_QS = (4, 5, 6)
HIGH_Q_COUNT = 9


@dataclass(frozen=True)
class CaseResult:
    name: str
    status: str
    measured: float
    bound: float

    @classmethod
    def check(cls, name: str, measured: float, bound: float) -> "CaseResult":
        return cls(name, "pass" if measured <= bound else "fail", float(measured), float(bound))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# Measurements shared with the acceptance tests


def bessel_identities(qs, rs) -> tuple[float, float, float]:
    """Worst ODE residual, recursion-lemma defect (r <= 20) and closed-form deviation (n <= 5)."""
    worst_ode = worst_rec = worst_closed = 0.0
    for r in rs:  # each (n, r) once, so one series sum serves every call at that point
        near, phis, slopes = r <= 20.0, {}, {}
        for n in sorted({*qs, *range(1, 6), *(q + 2 for q in qs if near)}):
            phis[n], slopes[n] = besselfn.phi(n, r), besselfn.phi_derivative(n, r) if near and n - 2 in qs else 0.0
            worst_ode = max(worst_ode, abs(besselfn.ode_residual(n, r)) if n in qs else 0.0)
            worst_closed = max(worst_closed, abs(phis[n] - oracles.phi_closed_form(n, r)) if n <= 5 else 0.0)
        for q in qs if near else ():
            lhs = slopes[q + 2] * r**q + q * phis[q + 2] * r ** (q - 1)
            worst_rec = max(worst_rec, abs(lhs - q * phis[q] * r ** (q - 1)))
    return worst_ode, worst_rec, worst_closed


def large_r_worst(ns, rs) -> float:
    """Worst |phi(n, r) - exact integer series| over min(1, Gamma(n/2) (r/2)^(1 - n/2) sqrt(2/(pi r))), r > 40.

    The integer series cannot suffer cancellation; `phi` takes the recurrence there.
    """
    worst = 0.0
    for n, r in itertools.product(ns, rs):
        s0, _, _, den = besselfn._series_sums(n, r)
        log_env = math.lgamma(0.5 * n) - (0.5 * n - 1.0) * math.log(0.5 * r) + 0.5 * math.log(2.0 / (math.pi * r))
        worst = max(worst, abs(besselfn.phi(n, r) - s0 / den) / min(1.0, math.exp(log_env)))
    return worst


def residual_worst(domains, qs, rng: np.random.Generator, dt: float | None = None) -> float:
    """Worst wave-equation defect of the velocity and position solutions, one datum per domain."""
    worst = 0.0
    for dom in domains:
        raw = rng.standard_normal(dom.grading[0])
        f = dom.cochain(0, raw / np.linalg.norm(dom.apply_d(0, raw)))
        for q in qs:
            for s in (waveforms.velocity_solution(dom, f, q=q), waveforms.position_solution(dom, f, q=q)):
                worst = max(worst, *waveforms.pde_residual(s, (0.3, 0.7, 1.3), dt))
    return worst


def dalembert_worst(circle, rng: np.random.Generator, draws: int) -> float:
    """Worst coefficient deviation of d_t from d'Alembert's formula on random unit 0-cochains."""
    worst = 0.0
    for _ in range(draws):
        raw = rng.standard_normal(circle.grading[0])
        raw /= np.linalg.norm(raw)
        f = circle.cochain(0, raw)
        for t in (0.1, 1.0 / 3.0, 0.9):
            got = specops.deformed_d(circle, t, f).coefficients
            expect = oracles.dalembert_shift_coefficients(circle, raw, t)
            worst = max(worst, float(np.max(np.abs(got - expect))))
    return worst


def pizzetti_rows(rng: np.random.Generator, count: int, qs, degree: int = 8) -> list[tuple[int, int, bool, bool]]:
    """(q, polynomial degree, ball exact, sphere exact) per random polynomial, the dimensions qs in turn."""
    polys = [(q, random_multipoly(rng, q, degree)) for q in itertools.islice(itertools.cycle(qs), count)]
    return [(q, g.degree(), huygens.pizzetti_ball(g, q) == huygens.ball_average_exact(g, q),
             huygens.pizzetti_sphere(g, q) == huygens.sphere_average_exact(g, q)) for q, g in polys]


def pizzetti_mismatches(rng: np.random.Generator, count: int, qs) -> int:
    """Pizzetti ball and sphere series that differ from the exact averages, the dimensions qs in turn."""
    return sum((not ball) + (not sphere) for _, _, ball, sphere in pizzetti_rows(rng, count, qs))


def flux_worst(rng: np.random.Generator, count: int, qs) -> float:
    """Worst flux-corollary deviation over random (q-1)-forms, the dimensions qs in turn."""
    return max(huygens.flux_corollary_check(random_kform(rng, q, q - 1, 4), q)
               for q in itertools.islice(itertools.cycle(qs), count))


def polarization_failures(max_degree: int) -> tuple[int, int, int]:
    """(monomials checked, failed reconstructions, failed difference-table entries for n <= 10)."""
    exponents = [e for nvars in range(1, 5) for e in itertools.product(range(1, max_degree + 1), repeat=nvars)
                 if sum(e) <= max_degree]
    bad = sum(huygens.polarization_reconstruct(e) != MultiPoly.monomial(len(e), e) for e in exponents)
    bad_table = 0
    for n in range(1, 11):
        for j in range(n + 1):
            expect = (-1) ** n * math.factorial(n) if j == n else 0
            bad_table += huygens.finite_difference_identity(n, j) != expect
        bad_table += huygens.polarization_normalization(n) != 2**n
    return len(exponents), bad, bad_table


def symmetry_worst(pairs) -> float:
    """Worst ||[U, d_t]|| over (domain, U) pairs at t = 0.3, 1.7."""
    return max(specops.symmetry_commutator(dom, u, t) for dom, u in pairs for t in (0.3, 1.7))


def probe_runs() -> tuple:
    """The base, refined and band-only q = 2 locality probes."""
    return (huygens.locality_probe(2, 64, 0.02, 0.3, 0.05, grid_points=256),
            huygens.locality_probe(2, 128, 0.01, 0.3, 0.05, grid_points=512),
            huygens.locality_probe(2, 128, 0.02, 0.3, 0.05, grid_points=512))


def sphere_front_worst(ts) -> float:
    """Worst deviation of the unit sphere's front length from 2 pi sin t."""
    sphere = geomfront.sphere_chart()
    return max(abs(geomfront.wavefront_length(sphere, SPHERE_POINT, t, 64) - 2 * math.pi * math.sin(t)) for t in ts)


def r2d2_curvatures(h: float) -> tuple[float, float]:
    """Two-radius curvature at step h on the unit sphere at SPHERE_POINT and the hyperbolic plane at (0, 1)."""
    return (geomfront.r2d2_curvature(geomfront.sphere_chart(), SPHERE_POINT, h),
            geomfront.r2d2_curvature(geomfront.hyperbolic_chart(), (0.0, 1.0), h))


def wave_map_orbit(domain, h: float, rng: np.random.Generator, steps: int) -> dict:
    """`discrete_wave_orbit` with step h from a unit state (u, v) drawn from rng."""
    state = rng.standard_normal(2 * domain.total_dim)
    state /= np.linalg.norm(state)
    return specops.discrete_wave_orbit(domain, h, state[: domain.total_dim], state[domain.total_dim :], steps)


def torus_cancellation(centers: int) -> float:
    """|mean line integral| of sin(2 pi x) dy over radius-0.2 fronts on the flat torus."""
    oneform = (lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
               lambda x, y: np.sin(2 * math.pi * np.asarray(x, dtype=float)))
    return abs(geomfront.global_cancellation(geomfront.torus_chart(), oneform, 0.2, centers, n_theta=512))


# ---------------------------------------------------------------------------


def suite_bessel(seed: int, quick: bool) -> list[CaseResult]:
    qs = (1, 2, 3, 4) if quick else (1, 2, 3, 4, 5, 6, 7, 8)
    points = 40 if quick else 200
    rs = [30.0 * (i + 1) / points for i in range(points)]
    worst_ode, worst_rec, worst_closed = bessel_identities(qs, rs)
    cases = [
        CaseResult.check("ode_residual_max", worst_ode, 1e-9),
        CaseResult.check("recursion_lemma_max", worst_rec, 1e-8),
        CaseResult.check("closed_form_agreement", worst_closed, 1e-10),
    ]

    worst_hyper = 0.0
    for q in (2, 3, 4, 5):
        nu2 = q - 2  # two_nu = q - 2 since nu = q/2 - 1
        gam = math.gamma(q / 2.0)
        for r in [10.0 * (i + 1) / 50 for i in range(50)]:
            closed = oracles.bessel_j_ascending(nu2, r) * gam * (r / 2.0) ** (1 - q / 2.0)
            worst_hyper = max(worst_hyper, abs(besselfn.phi(q, r) - closed))
    cases.append(CaseResult.check("hypergeometric_consistency", worst_hyper, 1e-10))

    worst_even = max(
        abs(besselfn.phi(n, r) - besselfn.phi(n, -r)) for n in qs for r in (0.3, 2.7, 17.0, 55.0)
    )
    cases.append(CaseResult.check("evenness", worst_even, 0.0))
    # Past r = 40 the ODE residual is an identity of the recurrence; this row checks the values.
    worst_large = large_r_worst((1, 2, 3, 5, 8, 12, 20, 30), (40.5, 57.3, 83.9, 118.2, 150.0))
    cases.append(CaseResult.check("large_r_against_exact_series", worst_large, 1e-12))
    return cases


def _up_plus_down(dom, v: np.ndarray, up, down) -> np.ndarray:
    """up(c) + down(c) summed over the degree parts c of v; up raises the degree by one, down lowers it.

    With d and d^T this is D v; with d_t and d_t^* it is D_t v.
    """
    out = np.zeros(dom.total_dim)
    for k in range(dom.top_degree + 1):
        c = dom.cochain(k, v[dom.degree_slice(k)])
        if k < dom.top_degree:
            out[dom.degree_slice(k + 1)] += up(c)
        if k > 0:
            out[dom.degree_slice(k - 1)] += down(c)
    return out


def suite_spectral(seed: int, quick: bool) -> list[CaseResult]:
    rng = _rng(seed)
    cases = []
    circle = build_circle_domain(4)
    torus = build_torus_domain(2, 2)
    octa = build_simplicial_domain(
        SimplicialComplex.from_maximal(
            [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]
        )
    )
    domains = [circle, torus] if quick else [circle, torus, octa]

    worst_sq = 0.0
    for dom in domains:
        u = dom.cochain(0, rng.standard_normal(dom.grading[0]))
        for t in (0.1, 0.7, 2.5):
            w = specops.deformed_d(dom, t, u)
            if w.degree < dom.top_degree:
                worst_sq = max(worst_sq, specops.deformed_d(dom, t, w).norm())
    cases.append(CaseResult.check("deformed_d_squared_zero", worst_sq, 1e-10))

    worst_vec = 0.0
    for dom in (circle, torus):
        t = 0.8
        d_pair = (lambda c: dom.apply_d(c.degree, c.coefficients),
                  lambda c: dom.apply_d_adjoint(c.degree - 1, c.coefficients))
        dt_pair = (lambda c: specops.deformed_d(dom, t, c).coefficients,
                   lambda c: specops.deformed_d_adjoint(dom, t, c).coefficients)
        for k in range(dom.top_degree + 1):
            for j in range(0, dom.grading[k], max(dom.grading[k] // 6, 1)):
                # The trig basis diagonalizes L_k: L_k e_j = mu_j e_j.  With lambda = sqrt(mu_j) > 0, (e_j + D e_j /
                # lambda) / sqrt 2 is an eigenvector of D for lambda; apply_d, not mu, gives D e_j, so a wrong mu shows.
                lam = math.sqrt(dom.laplacian_spectrum(k)[j])
                v = np.zeros(dom.total_dim)
                v[dom.offsets[k] + j] = 1.0
                if lam > 1e-6:
                    v = (v + _up_plus_down(dom, v, *d_pair) / lam) / math.sqrt(2.0)
                worst_vec = max(
                    worst_vec,
                    float(np.linalg.norm(_up_plus_down(dom, v, *dt_pair) - besselfn.psi(dom.q + 2, t * lam) * v)),
                )
    cases.append(CaseResult.check("eigenvector_preservation", worst_vec, 1e-9))

    low = build_circle_domain(2)
    u_low = low.cochain(0, rng.standard_normal(low.grading[0]))
    du_low = low.apply_d(0, u_low.coefficients)
    ratios = []
    for t in (1e-1, 1e-2, 1e-3):
        diff = specops.deformed_d(low, t, u_low).coefficients / t - du_low
        ratios.append(float(np.linalg.norm(diff)) / t**2)
    spread = max(ratios) / min(ratios) - 1.0
    cases.append(CaseResult.check("small_t_quadratic_rate", spread, 0.25))

    u = circle.cochain(0, rng.standard_normal(circle.grading[0]))
    w = circle.cochain(1, rng.standard_normal(circle.grading[1]))
    lhs = float(specops.deformed_d(circle, 0.6, u).coefficients @ w.coefficients)
    rhs = float(u.coefficients @ specops.deformed_d_adjoint(circle, 0.6, w).coefficients)
    cases.append(CaseResult.check("adjoint_consistency", abs(lhs - rhs), 1e-10))

    b_irr = specops.betti_numbers(circle, 1 / math.sqrt(5))
    cases.append(CaseResult.check("betti_circle_irrational", abs(b_irr[0] - 1) + abs(b_irr[1] - 1), 0))
    b_half = specops.betti_numbers(circle, 0.5)
    cases.append(CaseResult.check("betti_circle_half", sum(abs(b - circle.grading[0]) for b in b_half), 0))
    b_tor = specops.betti_numbers(torus, 1 / math.sqrt(7))
    cases.append(CaseResult.check("betti_torus", sum(abs(b - e) for b, e in zip(b_tor, (1, 2, 1))), 0))

    pairs = [(circle, specops.torus_translation(circle, [1.0 / 3.0])), (torus, specops.torus_quarter_turn(torus))]
    cases.append(CaseResult.check("symmetry_commutator", symmetry_worst(pairs), 1e-8))

    orbit = wave_map_orbit(circle, math.asin(0.9) / (2.0 * math.pi * 4), rng, 500 if quick else 10_000)
    cases.append(CaseResult.check("wave_map_orbit_bound", orbit["max_norm"] / orbit["bound"], 1 + 1e-12))
    return cases


def suite_wave(seed: int, quick: bool) -> list[CaseResult]:
    rng = _rng(seed)
    cases = []
    circle = build_circle_domain(3)
    domains = [circle] if quick else [circle, build_torus_domain(2, 2)]
    qs = (1, 3) if quick else (1, 2, 3, 4, 5, 6)
    cases.append(CaseResult.check("deformed_residuals", residual_worst(domains, qs, rng), 1e-6))

    u0_raw = rng.standard_normal(circle.grading[0])
    v0_raw = rng.standard_normal(circle.grading[0])
    u0 = circle.cochain(0, u0_raw / np.linalg.norm(u0_raw))
    v0 = circle.cochain(0, v0_raw / np.linalg.norm(v0_raw))
    cases.append(
        CaseResult.check(
            "classical_residual", waveforms.pde_residual(waveforms.classical_wave(circle, u0, v0), 1.0), 1e-6
        )
    )

    cases.append(CaseResult.check("dalembert_anchor", dalembert_worst(circle, rng, 5 if quick else 20), 1e-14))

    worst_fact = max(
        waveforms.factorization_check(q, coeffs)
        for q in (1, 3, 7)
        for coeffs in ([0, 1], [0, 0, 1], [0, 0, 0, 0, 0, 1])
    )
    cases.append(CaseResult.check("factorization_identity", worst_fact, 0.0))

    bad = 0.0
    for q, n in ((3, 2), (1, 1), (7, 2), (2, 5)):
        cert = waveforms.monomial_source_solution(q, n)
        if not cert.residual.is_zero or cert.value_at_zero != 0:
            bad += 1.0
        if cert.rate_at_zero != Fraction(-1, n * (q + n)):
            bad += 1.0
    cases.append(CaseResult.check("monomial_source_certificates", bad, 0.0))
    return cases


def suite_pizzetti(seed: int, quick: bool) -> list[CaseResult]:
    count = 30 if quick else 200
    mismatches = pizzetti_mismatches(_rng(seed), count, (1, 2, 3))
    cases = [CaseResult.check(f"pizzetti_exactness_{count}", float(mismatches), 0.0)]
    if not quick:
        mismatches = pizzetti_mismatches(_rng(seed), HIGH_Q_COUNT, HIGH_QS)
        cases.append(CaseResult.check(f"pizzetti_exactness_q4_6_{HIGH_Q_COUNT}", float(mismatches), 0.0))

    coeff_bad = 0
    for n in range(2, 13):
        for k in range(6):
            lhs = Fraction(1, huygens.pizzetti_constant(n, k))
            rhs = abs(besselfn.series_coefficient(n, k))
            if lhs != rhs:
                coeff_bad += 1
    cases.append(CaseResult.check("pizzetti_matches_profile_series", float(coeff_bad), 0.0))
    return cases


def suite_polarization(seed: int, quick: bool) -> list[CaseResult]:
    _, bad, bad_table = polarization_failures(4 if quick else 6)
    return [
        CaseResult.check("monomial_reconstruction", float(bad), 0.0),
        CaseResult.check("finite_difference_table", float(bad_table), 0.0),
    ]


def suite_cartan(seed: int, quick: bool) -> list[CaseResult]:
    rng = _rng(seed)
    cases = []
    bad_d2 = 0
    for _ in range(4 if quick else 12):
        form = random_kform(rng, 3, 1, 3)
        if not form.exterior_derivative().exterior_derivative().is_zero:
            bad_d2 += 1
    cases.append(CaseResult.check("d_squared_zero_exact", float(bad_d2), 0.0))

    bad = 0
    for _ in range(6 if quick else 20):
        x_field = (1, -1, 0)
        invariant1 = MultiPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1})  # x + y, killed by X
        invariant2 = MultiPoly.variable(3, 2)  # z
        g_poly = MultiPoly.constant(3, 0)
        for _ in range(3):
            a = int(rng.integers(-4, 5))
            p1 = int(rng.integers(0, 3))
            p2 = int(rng.integers(0, 3))
            g_poly = g_poly + (invariant1**p1) * (invariant2**p2) * a
        form = PolyKForm(3, 2, {(0, 1): g_poly, (1, 2): g_poly * 2})
        if not form.lie_derivative(x_field).is_zero:
            bad += 1
            continue
        anti = form.interior_product(x_field).exterior_derivative() + form.exterior_derivative().interior_product(x_field)
        if not anti.is_zero:
            bad += 1
    cases.append(CaseResult.check("cartan_anticommutation", float(bad), 0.0))
    return cases


def suite_flux(seed: int, quick: bool) -> list[CaseResult]:
    count = 10 if quick else 50
    cases = [CaseResult.check(f"flux_corollary_{count}", flux_worst(_rng(seed), count, (2, 3)), 0.0)]
    if not quick:
        worst = flux_worst(_rng(seed), HIGH_Q_COUNT, HIGH_QS)
        cases.append(CaseResult.check(f"flux_corollary_q4_6_{HIGH_Q_COUNT}", worst, 0.0))
    return cases


def suite_geometry(seed: int, quick: bool) -> list[CaseResult]:
    cases = []
    worst_len = sphere_front_worst((0.5,) if quick else (0.3, 0.7, 1.0))
    cases.append(CaseResult.check("sphere_front_length", worst_len, 1e-6))

    sphere_k, hyper_k = r2d2_curvatures(0.1)
    cases.append(CaseResult.check("r2d2_sphere", abs(sphere_k - 0.9975), 3e-3))
    cases.append(CaseResult.check("r2d2_hyperbolic", abs(hyper_k + 1.0025), 3e-3))
    flat_k = geomfront.r2d2_curvature(geomfront.flat_chart(), (0, 0), 0.1)
    cases.append(CaseResult.check("r2d2_flat", abs(flat_k), 1e-8))

    seq = [geomfront.r2d2_boundary(1.0, r) for r in (0.1, 0.05, 0.025)]
    rich1 = (4 * seq[1] - seq[0]) / 3
    rich2 = (4 * seq[2] - seq[1]) / 3
    extrap = (16 * rich2 - rich1) / 15
    cases.append(CaseResult.check("r2d2_boundary_limit", abs(extrap - 1.0), 1e-3))

    cases.append(CaseResult.check("torus_global_cancellation", torus_cancellation(64 if quick else 256), 1e-6))

    sphere = geomfront.sphere_chart()
    worst_k = max(abs(geomfront.gauss_curvature_brioschi(sphere, x, 0.4) - 1.0) for x in (0.8, 1.3, 2.0))
    cases.append(CaseResult.check("brioschi_consistency", worst_k, 1e-12))
    return cases


def suite_probe(seed: int, quick: bool) -> list[CaseResult]:
    if quick:
        base = huygens.locality_probe(2, 32, 0.04, 0.3, 0.1, grid_points=128)
        contrast = base.deformed_leakage / base.classical_leakage if base.resolved else math.inf
        return [
            CaseResult.check("probe_resolved", 0.0 if base.resolved else 1.0, 0.0),
            CaseResult.check("probe_contrast", contrast, 0.2),
        ]
    base, refined, band_only = probe_runs()
    return [
        CaseResult.check("probe_resolved", 0.0 if base.resolved and refined.resolved else 1.0, 0.0),
        CaseResult.check("probe_deformed_leakage", base.deformed_leakage, 1e-3),
        CaseResult.check("probe_contrast_10x", base.deformed_leakage / base.classical_leakage, 0.1),
        CaseResult.check("probe_deformed_shrinks", refined.deformed_leakage / base.deformed_leakage, 0.1),
        CaseResult.check("probe_classical_wake_persists", 1e-3 / band_only.classical_leakage, 1.0),
        CaseResult.check("probe_classical_band_stable",
                         abs(band_only.classical_leakage - base.classical_leakage) / base.classical_leakage, 0.1),
    ]


SUITES = {
    "bessel": suite_bessel,
    "spectral": suite_spectral,
    "wave": suite_wave,
    "pizzetti": suite_pizzetti,
    "polarization": suite_polarization,
    "cartan": suite_cartan,
    "flux": suite_flux,
    "geometry": suite_geometry,
    "huygens-probe": suite_probe,
}


def run_all(seed: int = 42, quick: bool = False) -> dict:
    report = {"seed": seed, "quick": quick, "suites": [], "status": "pass"}
    for name, suite in SUITES.items():
        cases = suite(seed, quick)
        report["suites"].append({"suite": name, "cases": [asdict(c) for c in cases]})
        if any(c.status != "pass" for c in cases):
            report["status"] = "fail"
    return report
