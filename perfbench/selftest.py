"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Every checker must reject a deliberately perturbed result, the seeded
inputs must be ones on which the program is right, and a smoke run of
every workload must reach its end and print the contracted result line.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from besselwave import domains, polyforms, waveforms  # noqa: E402
from besselwave.geomfront import LineIntegralResult  # noqa: E402
from besselwave.huygens import LocalityProbeResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def perturb(op, out):
    """A copy of an operation's output with one value wrong by a small, realistic amount."""
    if isinstance(out, dict) and "betti" in out:  # spectral request: a Betti number off by one
        return {**out, "betti": [out["betti"][0] + 1] + out["betti"][1:]}
    if isinstance(out, dict) and "max_norm" in out:  # wave orbit above its bound
        return {**out, "max_norm": out["bound"] * 1.001}
    if isinstance(out, domains.Cochain):
        c = np.array(out.coefficients)
        c[int(np.argmax(np.abs(c)))] *= 1 + 1e-6
        return domains.Cochain(out.degree, c)
    if isinstance(out, list) and len(out[0]) == 5:  # bessel rows: phi off by the size of the Hankel fault
        r, phi, psi, dphi, res = out[0]
        n = int(re.search(r"n=(\d+)", op.name).group(1))
        return [(r, phi + 1e-3 * checks.envelope(n, r), psi, dphi, res)] + out[1:]
    if isinstance(out, list) and len(out[0]) == 3:  # wave rows: u(t) off by 1e-6
        t, residual, coefficients = out[-1]
        return out[:-1] + [(t, residual, np.asarray(coefficients) * (1 + 1e-6))]
    if isinstance(out, LocalityProbeResult):
        return dataclasses.replace(out, deformed_leakage=2e-3)
    if isinstance(out, tuple) and len(out) == 4:  # Pizzetti: the ball average off by 1e-6
        return (out[0], out[1] + Fraction(1, 10**6), out[2], out[3])
    if isinstance(out, polyforms.MultiPoly):
        return out * Fraction(10**9 + 1, 10**9)
    if isinstance(out, polyforms.PolyKForm):
        if out.is_zero:
            return polyforms.PolyKForm(out.nvars, out.degree, {tuple(range(out.degree)): polyforms.MultiPoly.constant(out.nvars, 1)})
        return out.scale(Fraction(10**9 + 1, 10**9))
    if isinstance(out, waveforms.MonomialSourceCertificate):
        c = out.solution.coeffs
        return dataclasses.replace(out, solution=waveforms.LaurentPoly({p: v * 2 for p, v in c.items()}))
    if isinstance(out, LineIntegralResult):
        return LineIntegralResult(out.value * (1 + 1e-9), out.front_self_intersects)
    if isinstance(out, float):
        return out + 1e-5
    raise TypeError(f"no perturbation for {type(out).__name__}")


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def outputs(request):
    ops = workloads.WORKLOADS[request.param](SEED)
    return request.param, [(op, op.run()) for op in ops]


def test_checks_accept_every_output_but_the_known_faults(outputs):
    _, results = outputs
    for op, out in results:
        problem = op.check(out)
        if op.known_fault:
            assert problem is not None, f"{op.name} was expected to show the large-order Hankel fault"
        else:
            assert problem is None, f"{op.name}: {problem}"


def test_checks_reject_perturbed_outputs(outputs):
    _, results = outputs
    for op, out in results:
        if not op.known_fault:
            assert op.check(perturb(op, out)) is not None, f"{op.name} accepted a perturbed result"


def test_flux_check_rejects_any_deviation():
    op = next(op for op in workloads.setup_exact_algebra(SEED) if op.name.startswith("flux"))
    assert op.check(0.0) is None
    assert op.check(1e-300) is not None


def test_spectra_checks_reject_a_shifted_eigenvalue():
    want = [checks.torus_laplacian_spectrum(2, 2, k) for k in range(3)]
    got = [{"degree": k, "eigenvalues": list(w)} for k, w in enumerate(want)]
    assert checks.check_spectra_equal(got, want) is None
    got[1]["eigenvalues"][-1] *= 1 + 1e-7
    assert checks.check_spectra_equal(got, want) is not None

    faces = workloads.random_sphere(np.random.default_rng(0), 10)
    dom = domains.build_simplicial_domain(domains.SimplicialComplex.from_maximal(faces))
    spectra = domains.domain_spectra_json(dom)
    counts = checks.sphere_face_counts(faces)
    assert checks.check_simplicial_spectra(spectra, counts) is None
    spectra[2]["eigenvalues"][-1] += 1e-6
    assert checks.check_simplicial_spectra(spectra, counts) is not None


def test_profile_reference_matches_closed_forms():
    for r in (0.5, 7.25, 39.0, 52.0):
        assert checks.profile_reference(1, r) == pytest.approx(math.cos(r), abs=1e-14)
        assert checks.profile_reference(3, r) == pytest.approx(math.sin(r) / r, abs=1e-14)
        assert checks.profile_reference_mp(5, r) == pytest.approx(
            3 * (math.sin(r) - r * math.cos(r)) / r**3, abs=1e-15)


def test_fault_points_are_in_the_named_region():
    for n, r in workloads.FAULT_POINTS:
        assert 21 <= n <= 40 and 40.0 < r <= 45.0


def test_betti_times_keep_clear_of_the_kernel_threshold():
    """At each t every deformed eigenvalue psi_{q+2}(t lambda)^2 is 0 or far above betti's threshold."""
    spectra = {q: np.sqrt(np.unique(checks.torus_laplacian_spectrum(q, size, 0)))
               for q, size in ((1, 64), (2, 5), (3, 2))}
    sphere = []
    for seed in range(20):
        faces = workloads.random_sphere(workloads._rng(seed), workloads.SPHERE_SUBDIVISIONS)
        dom = domains.build_simplicial_domain(domains.SimplicialComplex.from_maximal(faces))
        sphere.append(np.unique(np.round(np.abs(dom.eigenvalues), 9)))
    spectra[2.0] = np.unique(np.concatenate(sphere))  # a 2-sphere: q = 2
    for t in workloads.IRRATIONAL_T:
        for q, lams in spectra.items():
            n = int(q) + 2
            psi_sq = np.array([(t * lam * checks.profile_reference(n, t * lam)) ** 2 for lam in lams])
            live = psi_sq[lams > 1e-6]
            assert live.min() > 100 * 1e-8 * psi_sq.max(), f"t={t}, q={q}: an eigenvalue nears the kernel threshold"


def test_every_workload_has_a_gauge():
    assert set(workloads.GAUGES) == set(workloads.WORKLOADS)
    assert all(kernels and set(kernels) <= set(hostspeed.KERNELS) for kernels in workloads.GAUGES.values())


def test_gauge_scales_by_the_mean_speed_of_its_kernels():
    gauge = hostspeed.SpeedGauge(workloads.INTERPRETER_MIX)
    slow = {"interpreter": 2.0, "bigint": 3.0, "array": 4.0, "eigh_small": 6.0}  # times over reference
    for name, ratio in slow.items():
        ref = hostspeed.REFERENCE_S[name]
        gauge.samples[name] = [ratio * ref, 100.0 * ref, 0.5 * ref]
    assert gauge.factor() == pytest.approx((2.0 * 3.0 * 4.0 * 6.0) ** -0.25)
    assert all(times == [] for times in gauge.samples.values())  # each round is gauged by its own samples
    gauge.sample()
    gauge.sample()
    assert 0.05 < gauge.factor() < 20.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_contracted_line(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"] + SPEC["end_to_end"]}
    assert all(result["metrics"][k]["unit"] == units[k] for k in names)
    n_faults = sum(op.known_fault for op in workloads.WORKLOADS[workload](SEED))
    assert result["failed"] * len(workloads.WORKLOADS[workload](SEED)) == n_faults * result["attempted"]


def test_run_without_the_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_algebra", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
