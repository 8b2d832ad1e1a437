"""Named verification suites behind the verify-all command.

Each case measures one property and reports (name, status, measured,
bound): the case passes when measured <= bound.  Exact-arithmetic checks
report the deviation (0.0 on success) against a bound of 0.0.  Random
inputs come from a counter-based Philox generator so runs with one seed
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import besselfn, geomfront, huygens, oracles, specops, waveforms
from .domains import build_circle_domain, build_simplicial_domain, build_torus_domain, SimplicialComplex
from .polyforms import MultiPoly, PolyKForm, random_kform, random_multipoly

__all__ = ["CaseResult", "run_suite", "run_all", "SUITES"]


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


def suite_bessel(seed: int, quick: bool) -> list[CaseResult]:
    cases = []
    qs = (1, 2, 3, 4) if quick else (1, 2, 3, 4, 5, 6, 7, 8)
    points = 40 if quick else 200
    rs = [30.0 * (i + 1) / points for i in range(points)]

    worst_ode = max(abs(besselfn.ode_residual(q, r)) for q in qs for r in rs)
    cases.append(CaseResult.check("ode_residual_max", worst_ode, 1e-9))

    worst_rec = 0.0
    for q in qs:
        for r in rs:
            if r > 20.0:
                continue
            lhs = besselfn.phi_derivative(q + 2, r) * r**q + q * besselfn.phi(q + 2, r) * r ** (q - 1)
            rhs = q * besselfn.phi(q, r) * r ** (q - 1)
            worst_rec = max(worst_rec, abs(lhs - rhs))
    cases.append(CaseResult.check("recursion_lemma_max", worst_rec, 1e-8))

    worst_closed = 0.0
    for n in (1, 2, 3, 4, 5):
        for r in rs:
            worst_closed = max(worst_closed, abs(besselfn.phi(n, r) - oracles.phi_closed_form(n, r)))
    cases.append(CaseResult.check("closed_form_agreement", worst_closed, 1e-10))

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
    return cases


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
        dt_mat = specops.deformed_dirac(dom, t)
        for k in range(dom.top_degree + 1):
            mu, w = dom.hodge_eigenpairs(k)
            for j in range(0, dom.grading[k], max(dom.grading[k] // 6, 1)):
                # For L_k w = mu w with lambda = sqrt(mu) > 0, (w + D w / lambda) / sqrt 2
                # is an eigenvector of D with eigenvalue lambda; a harmonic w has lambda = 0.
                lam = math.sqrt(max(float(mu[j]), 0.0))
                v = dom.embed(dom.cochain(k, w[:, j]))
                if lam > 1e-6:
                    v = (v + dom.dirac @ v / lam) / math.sqrt(2.0)
                worst_vec = max(
                    worst_vec,
                    float(np.linalg.norm(dt_mat @ v - besselfn.psi(dom.q + 2, t * lam) * v)),
                )
    cases.append(CaseResult.check("eigenvector_preservation", worst_vec, 1e-9))

    low = build_circle_domain(2)
    u_low = low.cochain(0, rng.standard_normal(low.grading[0]))
    du_low = low.d_blocks[0] @ u_low.coefficients
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

    b_irr = [specops.betti(circle, 1 / math.sqrt(5), k) for k in (0, 1)]
    cases.append(CaseResult.check("betti_circle_irrational", abs(b_irr[0] - 1) + abs(b_irr[1] - 1), 0))
    b_half = [specops.betti(circle, 0.5, k) for k in (0, 1)]
    cases.append(
        CaseResult.check("betti_circle_half", sum(abs(b - circle.grading[0]) for b in b_half), 0)
    )
    b_tor = [specops.betti(torus, 1 / math.sqrt(7), k) for k in (0, 1, 2)]
    cases.append(
        CaseResult.check("betti_torus", sum(abs(b - e) for b, e in zip(b_tor, (1, 2, 1))), 0)
    )

    u_rot = specops.circle_translation(circle, 1.0 / 3.0)
    u_turn = specops.torus_quarter_turn(torus)
    worst_comm = max(
        specops.symmetry_commutator(circle, u_rot, t) for t in (0.3, 1.7)
    )
    worst_comm = max(
        worst_comm, max(specops.symmetry_commutator(torus, u_turn, t) for t in (0.3, 1.7))
    )
    cases.append(CaseResult.check("symmetry_commutator", worst_comm, 1e-8))

    h = math.asin(0.9) / (2.0 * math.pi * 4)
    state = rng.standard_normal(2 * circle.total_dim)
    state /= np.linalg.norm(state)
    orbit = specops.discrete_wave_orbit(
        circle, h, state[: circle.total_dim], state[circle.total_dim :], 500 if quick else 10_000
    )
    cases.append(
        CaseResult.check("wave_map_orbit_bound", orbit["max_norm"], orbit["bound"] * (1 + 1e-12))
    )
    return cases


def suite_wave(seed: int, quick: bool) -> list[CaseResult]:
    rng = _rng(seed)
    cases = []
    circle = build_circle_domain(3)
    torus = build_torus_domain(2, 2)
    domains = [circle] if quick else [circle, torus]
    qs = (1, 3) if quick else (1, 2, 3, 4, 5, 6)

    worst = 0.0
    for dom in domains:
        raw = rng.standard_normal(dom.grading[0])
        f = dom.cochain(0, raw / np.linalg.norm(dom.d_blocks[0] @ raw))
        for q in qs:
            for t in (0.5, 1.0, 2.0):
                worst = max(worst, waveforms.pde_residual(waveforms.velocity_solution(dom, f, q=q), t))
                worst = max(worst, waveforms.pde_residual(waveforms.position_solution(dom, f, q=q), t))
    cases.append(CaseResult.check("deformed_residuals", worst, 1e-6))

    u0_raw = rng.standard_normal(circle.grading[0])
    v0_raw = rng.standard_normal(circle.grading[0])
    u0 = circle.cochain(0, u0_raw / np.linalg.norm(u0_raw))
    v0 = circle.cochain(0, v0_raw / np.linalg.norm(v0_raw))
    cases.append(
        CaseResult.check(
            "classical_residual", waveforms.pde_residual(waveforms.classical_wave(circle, u0, v0), 1.0), 1e-6
        )
    )

    worst_dal = 0.0
    for _ in range(5 if quick else 20):
        raw = rng.standard_normal(circle.grading[0])
        raw /= np.linalg.norm(raw)
        f = circle.cochain(0, raw)
        for t in (0.1, 1.0 / 3.0, 0.9):
            got = specops.deformed_d(circle, t, f).coefficients
            expect = oracles.dalembert_shift_coefficients(circle, raw, t)
            worst_dal = max(worst_dal, float(np.max(np.abs(got - expect))))
    cases.append(CaseResult.check("dalembert_anchor", worst_dal, 1e-12))

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
        from fractions import Fraction

        if cert.rate_at_zero != Fraction(-1, n * (q + n)):
            bad += 1.0
    cases.append(CaseResult.check("monomial_source_certificates", bad, 0.0))
    return cases


def suite_pizzetti(seed: int, quick: bool) -> list[CaseResult]:
    rng = _rng(seed)
    count = 30 if quick else 200
    mismatches = 0
    done = 0
    while done < count:
        for q in (1, 2, 3):
            if done >= count:
                break
            g = random_multipoly(rng, q, 8)
            if huygens.pizzetti_ball(g, q) != huygens.ball_average_exact(g, q):
                mismatches += 1
            if huygens.pizzetti_sphere(g, q) != huygens.sphere_average_exact(g, q):
                mismatches += 1
            done += 1
    cases = [CaseResult.check(f"pizzetti_exactness_{count}", float(mismatches), 0.0)]

    from fractions import Fraction

    coeff_bad = 0
    for n in (2, 3, 4, 5, 6):
        for k in range(6):
            lhs = Fraction(1, huygens.pizzetti_constant(n, k))
            rhs = abs(besselfn.series_coefficient(n, k))
            if lhs != rhs:
                coeff_bad += 1
    cases.append(CaseResult.check("pizzetti_matches_profile_series", float(coeff_bad), 0.0))
    return cases


def suite_polarization(seed: int, quick: bool) -> list[CaseResult]:
    cases = []
    bad = 0
    max_deg = 4 if quick else 6
    for nvars in range(1, 5):
        for expo in _positive_exponents(nvars, max_deg):
            target = MultiPoly.monomial(nvars, expo)
            if huygens.polarization_reconstruct(expo) != target:
                bad += 1
    cases.append(CaseResult.check("monomial_reconstruction", float(bad), 0.0))

    bad_fd = 0
    for n in range(1, 11):
        for j in range(n + 1):
            value = huygens.finite_difference_identity(n, j)
            expect = (-1) ** n * math.factorial(n) if j == n else 0
            if value != expect:
                bad_fd += 1
        if huygens.polarization_normalization(n) != 2**n:
            bad_fd += 1
    cases.append(CaseResult.check("finite_difference_table", float(bad_fd), 0.0))
    return cases


def _positive_exponents(nvars: int, max_total: int):
    if nvars == 1:
        for e in range(1, max_total + 1):
            yield (e,)
        return
    for head in range(1, max_total - nvars + 2):
        for rest in _positive_exponents(nvars - 1, max_total - head):
            yield (head,) + rest


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
    rng = _rng(seed)
    worst = 0.0
    count = 10 if quick else 50
    for i in range(count):
        q = 2 if i % 2 == 0 else 3
        f = random_kform(rng, q, q - 1, 4)
        worst = max(worst, huygens.flux_corollary_check(f, q))
    return [CaseResult.check(f"flux_corollary_{count}", worst, 0.0)]


def suite_geometry(seed: int, quick: bool) -> list[CaseResult]:
    cases = []
    sphere = geomfront.sphere_chart()
    hyper = geomfront.hyperbolic_chart()
    flat = geomfront.flat_chart()
    torus = geomfront.torus_chart()
    p_sph = (math.pi / 2, 0.3)
    p_hyp = (0.0, 1.0)

    worst_len = max(
        abs(geomfront.wavefront_length(sphere, p_sph, t, 64) - 2 * math.pi * math.sin(t))
        for t in ((0.5,) if quick else (0.3, 0.7, 1.0))
    )
    cases.append(CaseResult.check("sphere_front_length", worst_len, 1e-6))

    cases.append(
        CaseResult.check(
            "r2d2_sphere", abs(geomfront.r2d2_curvature(sphere, p_sph, 0.1) - 0.9975), 3e-3
        )
    )
    cases.append(
        CaseResult.check(
            "r2d2_hyperbolic", abs(geomfront.r2d2_curvature(hyper, p_hyp, 0.1) + 1.0025), 3e-3
        )
    )
    cases.append(CaseResult.check("r2d2_flat", abs(geomfront.r2d2_curvature(flat, (0, 0), 0.1)), 1e-8))

    seq = [geomfront.r2d2_boundary(1.0, r) for r in (0.1, 0.05, 0.025)]
    rich1 = (4 * seq[1] - seq[0]) / 3
    rich2 = (4 * seq[2] - seq[1]) / 3
    extrap = (16 * rich2 - rich1) / 15
    cases.append(CaseResult.check("r2d2_boundary_limit", abs(extrap - 1.0), 1e-3))

    oneform = (lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
               lambda x, y: np.sin(2 * math.pi * np.asarray(x, dtype=float)))
    centers = 64 if quick else 256
    avg = geomfront.global_cancellation(torus, oneform, 0.2, centers, n_theta=512)
    cases.append(CaseResult.check("torus_global_cancellation", abs(avg), 1e-6))

    plain = geomfront.make_chart("sphere-metric-only", sphere.g11, sphere.g12, sphere.g22, sphere.bounds)
    worst_k = max(
        abs(geomfront.gauss_curvature_brioschi(plain, x, 0.4) - 1.0) for x in (0.8, 1.3, 2.0)
    )
    cases.append(CaseResult.check("brioschi_consistency", worst_k, 1e-5))
    return cases


def suite_probe(seed: int, quick: bool) -> list[CaseResult]:
    if quick:
        base = huygens.locality_probe(2, 32, 0.04, 0.3, 0.1, grid_points=128)
        ratio_bound = 5.0
        cases = [
            CaseResult.check("probe_resolved", 0.0 if base.resolved else 1.0, 0.0),
            CaseResult.check(
                "probe_contrast",
                ratio_bound - base.classical_leakage / base.deformed_leakage
                if base.resolved
                else math.inf,
                0.0,
            ),
        ]
        return cases
    base = huygens.locality_probe(2, 64, 0.02, 0.3, 0.05, grid_points=256)
    refined = huygens.locality_probe(2, 128, 0.01, 0.3, 0.05, grid_points=512)
    band_only = huygens.locality_probe(2, 128, 0.02, 0.3, 0.05, grid_points=512)
    cases = [
        CaseResult.check("probe_resolved", 0.0 if base.resolved and refined.resolved else 1.0, 0.0),
        CaseResult.check("probe_deformed_leakage", base.deformed_leakage, 1e-3),
        CaseResult.check(
            "probe_contrast_10x", 10.0 * base.deformed_leakage, base.classical_leakage
        ),
        CaseResult.check(
            "probe_deformed_shrinks", refined.deformed_leakage, base.deformed_leakage / 10.0
        ),
        CaseResult.check("probe_classical_wake_persists", 1e-3, band_only.classical_leakage),
        CaseResult.check(
            "probe_classical_band_stable",
            abs(band_only.classical_leakage - base.classical_leakage),
            0.1 * base.classical_leakage,
        ),
    ]
    return cases


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


def run_suite(name: str, seed: int = 42, quick: bool = False) -> list[CaseResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    return SUITES[name](seed, quick)


def run_all(seed: int = 42, quick: bool = False, names=None) -> dict:
    report = {"seed": seed, "quick": quick, "suites": [], "status": "pass"}
    for name in names or SUITES:
        cases = run_suite(name, seed, quick)
        report["suites"].append({"suite": name, "cases": [asdict(c) for c in cases]})
        if any(c.status != "pass" for c in cases):
            report["status"] = "fail"
    return report
