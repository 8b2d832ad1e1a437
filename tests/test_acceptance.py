"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is pinned here exactly as contracted; runtime budgets are
asserted where the criteria state them.  Each measurement is verify-all's own.
"""

import math
import time

import numpy as np
import pytest

from besselwave import verify
from besselwave.domains import build_circle_domain, build_torus_domain
from besselwave.geomfront import hyperbolic_chart, r2d2_curvature, sphere_chart
from besselwave.specops import (
    betti,
    deformed_dirac_norm,
    discrete_wave_orbit,
    torus_quarter_turn,
    torus_translation,
)


def _report(number, name, detail):
    print(f"ACCEPTANCE {number} {name}: PASS ({detail})")


def _philox(seed):
    return np.random.default_rng(np.random.Philox(seed))


def test_criterion_1_bessel_identity_suite():
    start = time.perf_counter()
    rs = [30.0 * (i + 1) / 200.0 for i in range(200)]
    worst_ode, worst_rec, worst_closed = verify.bessel_identities(range(1, 9), rs)
    elapsed = time.perf_counter() - start
    assert worst_ode < 1e-9
    assert worst_rec < 1e-8
    assert worst_closed < 1e-10
    assert elapsed < 5.0
    _report(1, "bessel identity suite",
            f"ode={worst_ode:.2e} recursion={worst_rec:.2e} closed={worst_closed:.2e} "
            f"runtime={elapsed:.2f}s")


def test_criterion_2_theorem1_residuals():
    start = time.perf_counter()
    domains = [build_circle_domain(3), build_torus_domain(2, 2), build_torus_domain(3, 2)]
    worst = verify.residual_worst(domains, range(1, 7), _philox(2), dt=1e-3)
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 30.0
    _report(2, "deformed wave-equation residuals",
            f"worst={worst:.2e} over circle/torus2/torus3, q=1..6, runtime={elapsed:.1f}s")


def test_criterion_3_dalembert_anchor():
    worst = verify.dalembert_worst(build_circle_domain(8), _philox(3), 20)
    assert worst < 1e-12
    _report(3, "d'Alembert anchor", f"worst coefficient deviation={worst:.2e}")


def test_criterion_4_pizzetti_exactness():
    start = time.perf_counter()
    mismatches = verify.pizzetti_mismatches(_philox(4), 200)
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    _report(4, "Laplacian-series averages exact",
            f"200 random rational polynomials, zero tolerance, runtime={elapsed:.1f}s")


def test_criterion_5_flux_corollary():
    assert verify.flux_worst(_philox(5), 50) == 0.0
    _report(5, "flux corollary", "50 random (q-1)-forms, q in {2,3}, exact")


def test_criterion_6_polarization():
    count, bad_monomials, bad_table = verify.polarization_failures(6)
    assert bad_monomials == 0
    assert bad_table == 0
    _report(6, "polarization identities", f"{count} monomials, difference table n<=10, R=2^n")


def test_criterion_7_harmonic_persistence():
    circle = build_circle_domain(8)
    assert betti(circle, 1.0 / math.sqrt(5.0), 0) == 1
    assert betti(circle, 1.0 / math.sqrt(5.0), 1) == 1
    # t = 1/2: the full deformed Laplacian L_t = D_t^2 is numerically zero
    assert deformed_dirac_norm(circle, 0.5) ** 2 < 1e-24
    for k in (0, 1):
        assert betti(circle, 0.5, k) == 2 * 8 + 1
    # t = 1/4: the extra kernel sits exactly at the even frequencies
    predicted_zero_modes = sum(1 for k in range(1, 9) if abs(math.sin(math.pi * k / 2.0)) < 1e-12)
    expected = 1 + 2 * predicted_zero_modes
    for k in (0, 1):
        assert betti(circle, 0.25, k) == expected
    _report(7, "harmonic-form persistence",
            f"t=1/sqrt5 -> (1,1); t=1/2 -> all {2 * 8 + 1}; t=1/4 -> {expected} per degree")


def test_criterion_8_symmetry_commutators():
    circle = build_circle_domain(4)
    torus = build_torus_domain(2, 2)
    worst = verify.symmetry_worst([
        (circle, torus_translation(circle, [1.0 / 3.0])),
        (torus, torus_translation(torus, (0.2, 0.45))),
        (torus, torus_quarter_turn(torus)),
    ])
    assert worst < 1e-8
    _report(8, "symmetry commutation", f"worst ||[U, d_t]||={worst:.2e}")


def test_criterion_9_huygens_locality_probe():
    start = time.perf_counter()
    base, refined, band_only = verify.probe_runs()
    elapsed = time.perf_counter() - start
    assert base.resolved and refined.resolved and band_only.resolved
    assert base.deformed_leakage < 1e-3
    assert 10.0 * base.deformed_leakage <= base.classical_leakage
    # refinement sharpens the bump with the doubled band: the bounded
    # propagator's leakage collapses, the classical wake stays put
    assert refined.deformed_leakage < base.deformed_leakage / 10.0
    assert band_only.classical_leakage > 1e-3
    assert abs(band_only.classical_leakage - base.classical_leakage) < 0.1 * base.classical_leakage
    assert elapsed < 120.0
    _report(9, "sharp-front locality probe",
            f"deformed={base.deformed_leakage:.2e} classical={base.classical_leakage:.2e} "
            f"refined deformed={refined.deformed_leakage:.2e} runtime={elapsed:.1f}s")


def test_criterion_10_geometry():
    worst_len = verify.sphere_front_worst((0.25, 0.5, 0.75, 1.0))
    assert worst_len < 1e-6
    sphere_k = r2d2_curvature(sphere_chart(), (math.pi / 2, 0.3), 0.1)
    assert abs(sphere_k - 0.9975) < 3e-3
    hyper_k = r2d2_curvature(hyperbolic_chart(), (0.0, 1.0), 0.1)
    assert abs(hyper_k + 1.0025) < 3e-3
    cancellation = verify.torus_cancellation(256)
    assert cancellation < 1e-6
    _report(10, "wave-front geometry",
            f"front length err={worst_len:.2e}, r2d2 sphere={sphere_k:.6f}, "
            f"hyperbolic={hyper_k:.6f}, cancellation={cancellation:.2e}")


def test_criterion_11_discrete_wave_map():
    circle = build_circle_domain(4)
    h = math.asin(0.9) / (2.0 * math.pi * 4)
    rng = _philox(11)
    state = rng.standard_normal(2 * circle.total_dim)
    state /= np.linalg.norm(state)
    orbit = discrete_wave_orbit(
        circle, h, state[: circle.total_dim], state[circle.total_dim:], 10_000
    )
    assert orbit["dirac_norm"] == pytest.approx(0.9, abs=1e-12)
    # zero violations of the per-mode ellipse bound along the whole orbit
    assert orbit["max_norm"] <= orbit["bound"] * (1 + 1e-12)
    _report(11, "discrete wave map boundedness",
            f"10^4 steps, max norm={orbit['max_norm']:.6f} <= bound={orbit['bound']:.6f}")
