"""Command-line surface: outputs, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from besselwave import besselfn, cli, huygens, specops, verify
from besselwave.cli import main
from besselwave.domains import SimplicialComplex


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestBessel:
    def test_sinc_at_pi(self, capsys):
        code, out, _ = run_cli(capsys, "bessel", "--n", "3", "--r", "3.14159265")
        assert code == 0
        header, rows = csv_rows(out)
        value = float(rows[0][header.index("phi")])
        assert abs(value) < 1e-8

    def test_high_order_large_argument(self, capsys):
        # Gamma(n/2) as a float overflows past n ~ 344; the phi recurrence needs no Gamma scale.
        code, out, _ = run_cli(capsys, "bessel", "--n", "400", "--r", "300")
        assert code == 0
        header, rows = csv_rows(out)
        assert 0.0 < float(rows[0][header.index("phi")]) < 1e-60

    def test_sweep_and_plot(self, capsys, tmp_path):
        out_path = tmp_path / "bessel.csv"
        code, _, _ = run_cli(capsys, "bessel", "--n", "2", "--points", "12",
                             "--out", str(out_path), "--plot")
        assert code == 0
        assert out_path.exists()
        assert (tmp_path / "bessel.svg").exists()
        text = out_path.read_text()
        assert text.startswith("# subcommand=bessel")
        assert "seed=" in text.splitlines()[0]
        assert "np." not in text  # plain decimal floats only
        header, rows = csv_rows(text)
        assert all(len(row) == len(header) for row in rows)
        float(rows[0][0])  # first column parses as a number

    def test_negative_r_residual_mirrors_positive(self, capsys):
        # phi is even and the ODE is invariant under r -> -r, so the residual column is even too
        code, out, _ = run_cli(capsys, "bessel", "--n", "3", "--r-min", "-2", "--r-max", "2", "--points", "5")
        assert code == 0
        header, rows = csv_rows(out)
        col = header.index("ode_residual")
        by_r = {float(row[0]): row[col] for row in rows}
        assert [by_r[-r] for r in (1.0, 2.0)] == [by_r[r] for r in (1.0, 2.0)]


class TestSpectral:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "spectral", "--domain", "circle", "--max-freq", "2",
                               "--format", "json", "--t", "0.37")
        assert code == 0
        payload = json.loads(out)
        assert payload["grading"] == [5, 5]
        assert [e["degree"] for e in payload["spectra"]] == [0, 1]
        assert payload["betti"]["by_degree"] == [1, 1]

    def test_simplicial_from_file(self, capsys, tmp_path):
        path = tmp_path / "octa.json"
        faces = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
                 [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]
        simplices = set()
        for f in faces:
            for size in (1, 2, 3):
                from itertools import combinations
                simplices.update(combinations(sorted(f), size))
        path.write_text(json.dumps({"simplices": [list(s) for s in simplices]}))
        code, out, _ = run_cli(capsys, "spectral", "--domain", "simplicial",
                               "--complex", str(path), "--format", "json", "--t", "0.43")
        assert code == 0
        payload = json.loads(out)
        assert payload["betti"]["by_degree"] == [1, 0, 1]

    def test_symmetry_and_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "spectral", "--domain", "circle", "--max-freq", "3",
                               "--symmetry", "translation", "--shift", "0.25",
                               "--wave-steps", "200", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["symmetry"]["commutator"] < 1e-9
        assert payload["wave_orbit"]["max_norm"] <= payload["wave_orbit"]["bound"] * (1 + 1e-12)

    def test_orbit_step_from_torus_spectrum(self, capsys):
        # The largest |lambda| of the q-torus is 2 pi max_freq sqrt(q), not 2 pi max_freq.
        code, out, _ = run_cli(capsys, "spectral", "--domain", "torus2", "--max-freq", "3",
                               "--wave-steps", "10", "--format", "json")
        assert code == 0
        orbit = json.loads(out)["wave_orbit"]
        assert orbit["dirac_norm"] == pytest.approx(besselfn.psi(4, 0.9), rel=1e-9)
        assert orbit["max_norm"] <= orbit["bound"] * (1 + 1e-12)

    def test_orbit_step_from_simplicial_spectrum(self, capsys, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"simplices": [[0], [1], [2], [0, 1], [1, 2], [0, 2], [0, 1, 2]]}))
        code, out, _ = run_cli(capsys, "spectral", "--domain", "simplicial", "--complex", str(path),
                               "--wave-steps", "10", "--format", "json")
        assert code == 0
        orbit = json.loads(out)["wave_orbit"]
        assert orbit["dirac_norm"] == pytest.approx(besselfn.psi(4, 0.9), rel=1e-9)

    def test_orbit_step_for_every_q(self, capsys, tmp_path):
        # The full 4-simplex has q = 4, where psi_6(asin 0.9) passes 1; psi_6(0.9) does not.
        path = tmp_path / "simplex4.json"
        path.write_text(json.dumps(SimplicialComplex.from_maximal([range(5)]).to_json()))
        code, out, _ = run_cli(capsys, "spectral", "--domain", "simplicial", "--complex", str(path),
                               "--wave-steps", "5", "--format", "json")
        assert code == 0
        orbit = json.loads(out)["wave_orbit"]
        assert orbit["dirac_norm"] == pytest.approx(besselfn.psi(6, 0.9), rel=1e-9)
        assert orbit["max_norm"] <= orbit["bound"] * (1 + 1e-12)

    def test_no_full_size_eigensolve(self, capsys, monkeypatch):
        # A torus3 request with a symmetry and an orbit runs no eigensolver at all (the trig
        # spectrum is known by construction) and passes no N x N matrix to an SVD; numpy's
        # 2-norm reaches svd through numpy.linalg._linalg.
        seen = []

        def recording(name, fn):
            def wrapper(a, *args, **kwargs):
                seen.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)
            return wrapper

        for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
            for name in ("eigh", "eigvalsh", "svd"):
                monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
        code, out, _ = run_cli(capsys, "spectral", "--domain", "torus3", "--max-freq", "2", "--t", "0.3",
                               "--symmetry", "translation", "--wave-steps", "3", "--format", "json")
        assert code == 0
        total_dim = sum(json.loads(out)["grading"])
        assert [name for name, _ in seen if name != "svd"] == []
        assert seen and max(max(shape) for _, shape in seen) < total_dim

    def test_one_profile_evaluation_per_request(self, capsys, monkeypatch):
        # the Betti table of every degree shares one profile evaluation, the commutator takes one more
        calls = []
        deformed = specops._deformed_table

        def counting(*args):
            calls.append(args)
            return deformed(*args)

        monkeypatch.setattr(specops, "_deformed_table", counting)
        code, out, _ = run_cli(capsys, "spectral", "--domain", "torus2", "--max-freq", "3", "--t", "0.3",
                               "--symmetry", "quarter-turn", "--format", "json")
        assert code == 0
        assert json.loads(out)["betti"]["by_degree"] == [1, 2, 1]
        assert len(calls) <= 2

    @staticmethod
    def torus_complex(tmp_path, n: int) -> str:
        """A JSON file of the n x n triangulated torus: (n^2, 3 n^2, 2 n^2) simplices."""
        v = [[(i % n) * n + j % n for j in range(n + 1)] for i in range(n + 1)]
        faces = [f for i in range(n) for j in range(n)
                 for f in ([v[i][j], v[i + 1][j], v[i + 1][j + 1]], [v[i][j], v[i][j + 1], v[i + 1][j + 1]])]
        path = tmp_path / f"torus{n}.json"
        path.write_text(json.dumps(SimplicialComplex.from_maximal(faces).to_json()))
        return str(path)

    def test_oversized_complex_is_refused(self, capsys, tmp_path):
        # the 100 x 100 triangulated torus: (10000, 30000, 20000) simplices, a 7.2 GB W_1
        code, out, err = run_cli(capsys, "spectral", "--domain", "simplicial", "--complex",
                                 self.torus_complex(tmp_path, 100))
        assert code == 2 and out == ""
        assert err.startswith("error: a complex of (10000, 30000, 20000) simplices needs"), err

    def test_oversized_orbit_is_refused_before_the_build(self, capsys, tmp_path, monkeypatch):
        # The 27 x 27 torus builds under the cap, but its orbit's D_h, 16 N^2 bytes at N = 4374, does not:
        # the request is refused from the simplex counts, without building the domain.
        def no_build(complex_):
            raise AssertionError("the domain was built before the orbit was charged")

        monkeypatch.setattr(cli, "build_simplicial_domain", no_build)
        code, out, err = run_cli(capsys, "spectral", "--domain", "simplicial", "--complex",
                                 self.torus_complex(tmp_path, 27), "--wave-steps", "5", "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error: the wave orbit on simplicial (N = 4374) needs 306110016 bytes"), err

    def test_missing_complex_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "spectral", "--domain", "simplicial")
        assert code == 2
        assert "complex" in err

    @pytest.mark.parametrize("complex_json", ['{"simplices": 5}', '{"simplices": [1, 2]}'])
    def test_malformed_complex_is_usage_error(self, capsys, complex_json):
        code, _, err = run_cli(capsys, "spectral", "--domain", "simplicial", "--complex", complex_json)
        assert code == 2
        assert err.startswith("error:"), err


class TestWave:
    def test_residual_columns(self, capsys):
        code, out, _ = run_cli(capsys, "wave", "--kind", "velocity", "--q", "3",
                               "--t-values", "0.5,1.0")
        assert code == 0
        header, rows = csv_rows(out)
        assert header[:3] == ["t", "residual", "norm"]
        for row in rows:
            assert float(row[1]) < 1e-6

    def test_default_times_show_a_nonzero_solution(self, capsys):
        # t phi_3(t lambda) = sin(t lambda) / lambda on the circle vanishes at every half-integer t
        code, out, _ = run_cli(capsys, "wave")
        assert code == 0
        header, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["0.3", "0.7", "1.3"]
        assert all(float(row[header.index("norm")]) > 1e-3 for row in rows)

    @pytest.mark.parametrize("kind", ["velocity", "position", "classical"])
    def test_simplicial_torus(self, capsys, tmp_path, kind):
        # wave builds its domain without the orbit charge that spectral --wave-steps makes
        code, out, err = run_cli(capsys, "wave", "--domain", "simplicial", "--kind", kind,
                                 "--complex", TestSpectral.torus_complex(tmp_path, 4))
        assert code == 0, err
        assert [row[0] for row in csv_rows(out)[1]] == ["0.3", "0.7", "1.3"]

    EDGES = [
        (("--kind", "velocity", "--q", "-1"), "velocity solution needs q >= 1, got q=-1"),
        (("--kind", "velocity", "--q", "0"), "velocity solution needs q >= 1, got q=0"),
        (("--kind", "position", "--q", "0"), "position solution needs q >= 1, got q=0"),
        (("--dt", "nan"), "--dt must be finite and positive, got nan"),
        (("--dt", "inf"), "--dt must be finite and positive, got inf"),
        (("--kind", "classical", "--t-values", "inf"), "a wave solution needs a finite time, got inf"),
        (("--kind", "velocity", "--t-values", "inf"), "a wave solution needs a finite time, got inf"),
        (("--kind", "classical", "--t-values", "0.001,0.5"),
         "residual stencil needs t >= 5 dt, got t=0.001, dt=0.00026525823848649226"),
        (("--t-values", "0"), "residual stencil needs t >= 5 dt, got t=0.0, dt=0.00026525823848649226"),
    ]

    @pytest.mark.parametrize("argv, message", EDGES, ids=[" ".join(argv) for argv, _ in EDGES])
    def test_edges_fail_loudly(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "wave", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestPizzettiPolarize:
    def test_pizzetti_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "pizzetti", "--count", "6", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "pizzetti", "--count", "6", "--seed", "7")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "failures=0" in out1

    def test_polarize_parallelogram(self, capsys):
        code, out, _ = run_cli(capsys, "polarize", "--exponents", "1,1")
        assert code == 0
        header, rows = csv_rows(out)
        assert len(rows) == 4
        assert "reproduces the monomial: True" in out

    def test_polarize_checks_its_printed_table(self, capsys, monkeypatch):
        # One row's sign flipped in the table the command prints: the verified line must say so.
        expand = huygens.polarization_expand

        def flipped(exponents):
            rows = expand(exponents)
            sign, coeffs, power = rows[3]
            return rows[:3] + [(-sign, coeffs, power)] + rows[4:]

        monkeypatch.setattr(huygens, "polarization_expand", flipped)
        code, out, _ = run_cli(capsys, "polarize", "--exponents", "2,1")
        assert code == 1
        assert "reproduces the monomial: False" in out


class TestProbe:
    def test_small_resolved_run(self, capsys, tmp_path):
        out_path = tmp_path / "probe.csv"
        code, _, _ = run_cli(capsys, "huygens-probe", "--q", "2", "--max-freq", "32",
                             "--sigma", "0.04", "--t", "0.3", "--w", "0.1",
                             "--grid", "128", "--out", str(out_path), "--plot")
        assert code == 0
        text = out_path.read_text()
        assert "deformed_leakage=" in text
        assert (tmp_path / "probe.svg").exists()

    def test_unresolved_reports(self, capsys):
        code, out, _ = run_cli(capsys, "huygens-probe", "--q", "2", "--max-freq", "8",
                               "--sigma", "0.02", "--t", "0.3", "--w", "0.05")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "unresolved"

    @pytest.mark.parametrize("q, comment", [
        (2, "# subcommand=huygens-probe q=2 max-freq=64 sigma=0.02 t=0.3 w=0.05 grid=256 seed=42"),
        (3, "# subcommand=huygens-probe q=3 max-freq=24 sigma=0.035 t=0.3 w=0.1 grid=64 seed=42"),
    ])
    def test_defaults_per_q_run_resolved(self, capsys, q, comment):
        code, out, err = run_cli(capsys, "huygens-probe", "--q", str(q))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == comment
        leakage = dict(item.split("=") for item in out.splitlines()[1][2:].split())
        assert float(leakage["deformed_leakage"]) < float(leakage["classical_leakage"])

    def test_diameter_guard_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "huygens-probe", "--t", "0.4", "--w", "0.2")
        assert code == 2


PLOTS = [
    (("bessel", "--n", "2", "--points", "12"), 2),
    (("wave", "--kind", "position", "--q", "2", "--t-values", "0.5,1,2"), 1),
    (("huygens-probe", "--q", "2", "--max-freq", "32", "--sigma", "0.04", "--t", "0.3", "--w", "0.1",
      "--grid", "128"), 2),
    (("curvature", "--h", "0.1"), 2),
    (("front", "--ntheta", "32"), 1),
]


@pytest.mark.parametrize("argv, series", PLOTS, ids=[argv[0] for argv, _ in PLOTS])
def test_plot_next_to_out_repeats_byte_for_byte(capsys, tmp_path, argv, series):
    written = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        assert run_cli(capsys, *argv, "--out", str(tmp_path / run / "table.csv"), "--plot")[0] == 0
        written.append([(tmp_path / run / name).read_bytes() for name in ("table.csv", "table.svg")])
    assert written[0] == written[1]
    assert written[0][1].count(b"<polyline") == series


class TestCurvatureFront:
    def test_sphere_value(self, capsys):
        code, out, _ = run_cli(capsys, "curvature", "--chart", "sphere", "--h", "0.1")
        assert code == 0
        header, rows = csv_rows(out)
        value = float(rows[0][header.index("r2d2")])
        assert abs(value - 0.9975) < 3e-3

    def test_front_with_line_integral(self, capsys):
        code, out, _ = run_cli(capsys, "front", "--chart", "flat", "--point", "0.1,0.2",
                               "--t", "0.5", "--ntheta", "64", "--oneform=-y;x")
        assert code == 0
        assert "line_integral=" in out
        header, rows = csv_rows(out)
        assert len(rows) == 64

    def test_custom_chart(self, capsys):
        code, out, _ = run_cli(capsys, "curvature", "--chart", "custom",
                               "--g11", "1", "--g12", "0", "--g22", "sin(x)^2",
                               "--bounds", "0.05,3.09,-9,9", "--point", "1.5707963,0.0",
                               "--h", "0.1")
        assert code == 0
        header, rows = csv_rows(out)
        assert abs(float(rows[0][header.index("r2d2")]) - 0.9975) < 3e-3

    def test_custom_chart_from_json_config(self, capsys, tmp_path):
        config = tmp_path / "chart.json"
        config.write_text(json.dumps({
            "chart": "custom", "g11": "1", "g12": "0", "g22": "sin(x)^2",
            "bounds": "0.05,3.0915926,-9,9", "point": "1.5707963,0.0", "h": 0.1,
        }))
        code, out, _ = run_cli(capsys, "curvature", "--config", str(config))
        assert code == 0
        header, rows = csv_rows(out)
        assert abs(float(rows[0][header.index("r2d2")]) - 0.9975) < 3e-3

    @pytest.mark.parametrize("argv", [("front", "--chart", "torus", "--t", "nan"),
                                      ("curvature", "--chart", "torus", "--h", "inf"),
                                      ("front", "--chart", "flat", "--t", "nan"),
                                      ("front", "--chart", "sphere", "--t=-inf")], ids=" ".join)
    def test_non_finite_time_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: a geodesic needs a finite time"), err

    @pytest.mark.parametrize("command", [("front", "--t", "3"), ("curvature", "--h", "1.5")])
    def test_chart_exit_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command[0], "--chart", "hyperbolic", "--point", "0,0.1", *command[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: trajectory left the chart rectangle"), err


# The contracted acceptance literal of each verify-all case that measures a
# criterion; the exact cases are bounded by 0.  verify-all holds the
# d'Alembert anchor to 1e-14, below the acceptance test's 1e-12, so that a
# root rounded to 12 decimals shows.
ACCEPTANCE_BOUNDS = {
    "ode_residual_max": 1e-9, "recursion_lemma_max": 1e-8, "closed_form_agreement": 1e-10,
    "deformed_residuals": 1e-6, "dalembert_anchor": 1e-14, "pizzetti_exactness_30": 0.0,
    "flux_corollary_10": 0.0, "monomial_reconstruction": 0.0, "finite_difference_table": 0.0,
    "symmetry_commutator": 1e-8, "sphere_front_length": 1e-6, "r2d2_sphere": 3e-3,
    "r2d2_hyperbolic": 3e-3, "torus_global_cancellation": 1e-6, "large_r_against_exact_series": 1e-12,
}

# Each verify-all case that compares two measurements reports their ratio against a literal bound.
RATIO_BOUNDS = {
    "probe_contrast": 0.2, "wave_map_orbit_bound": 1 + 1e-12, "probe_contrast_10x": 0.1,
    "probe_deformed_shrinks": 0.1, "probe_classical_wake_persists": 1.0, "probe_classical_band_stable": 0.1,
}


class TestVerifyAll:
    @pytest.fixture(scope="class")
    def quick_runs(self, tmp_path_factory):
        """(exit code, report bytes) of two `verify-all --quick --seed 42` runs."""
        runs = []
        for _ in range(2):
            out_path = tmp_path_factory.mktemp("verify") / "report.json"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["verify-all", "--quick", "--seed", "42", "--out", str(out_path)])
            runs.append((code, out_path.read_bytes()))
        return runs

    def test_quick_passes(self, quick_runs):
        code, text = quick_runs[0]
        assert code == 0
        payload = json.loads(text)
        assert payload["status"] == "pass"
        assert {s["suite"] for s in payload["suites"]} >= {"bessel", "spectral", "wave",
                                                           "pizzetti", "polarization"}
        for suite in payload["suites"]:
            for case in suite["cases"]:
                assert case["status"] == "pass", (suite["suite"], case)

    def test_one_seed_gives_identical_json(self, quick_runs):
        assert quick_runs[0][1] == quick_runs[1][1]

    def test_contracted_cases_carry_the_acceptance_bounds(self, quick_runs):
        payload = json.loads(quick_runs[0][1])
        bounds = {case["name"]: case["bound"] for suite in payload["suites"] for case in suite["cases"]}
        for name, literal in ACCEPTANCE_BOUNDS.items():
            assert bounds[name] == literal, name

    def test_ratio_cases_carry_literal_bounds(self, quick_runs):
        payload = json.loads(quick_runs[0][1])
        cases = {case["name"]: case for suite in payload["suites"] for case in suite["cases"]}
        cases.update((c.name, dataclasses.asdict(c)) for c in verify.suite_probe(42, quick=False))
        for name, literal in RATIO_BOUNDS.items():
            assert (cases[name]["bound"], cases[name]["status"]) == (literal, "pass"), name


def test_large_r_row_fails_on_the_wrong_order(monkeypatch):
    # Past r = 40 phi comes from _phi_large; two orders too low must turn the row to fail.
    exact = besselfn._phi_large
    monkeypatch.setattr(besselfn, "_phi_large", lambda n, r: exact(n - 2, r))
    row = next(c for c in verify.suite_bessel(42, True) if c.name == "large_r_against_exact_series")
    assert row.status == "fail" and row.measured > 0.4


def _eigenvector_row():
    return next(c for c in verify.suite_spectral(42, True) if c.name == "eigenvector_preservation")


def test_eigenvector_row_fails_on_the_wrong_profile_order(monkeypatch):
    # d_t built from phi_{n-2} in place of phi_n no longer scales D's eigenvectors by psi_{q+2}(t lambda).
    profile = specops._profile
    monkeypatch.setattr(specops, "_profile", lambda n, t, radii: profile(n - 2, t, radii))
    row = _eigenvector_row()
    assert row.status == "fail" and row.measured > 1.0


def test_eigenvector_row_fails_on_a_wrong_spectrum(monkeypatch):
    # torus2's degree-1 spectrum rolled by one place: e_j no longer pairs with its own mu_j, while D e_j comes
    # from apply_d, which does not read the spectrum.
    build = verify.build_torus_domain

    def rolled(q, max_freq):
        dom = build(q, max_freq)
        spectra = list(dom.spectra)
        spectra[1] = np.roll(spectra[1], 1)
        return dataclasses.replace(dom, spectra=tuple(spectra))

    monkeypatch.setattr(verify, "build_torus_domain", rolled)
    row = _eigenvector_row()
    assert row.status == "fail" and row.measured > 0.1


def test_dalembert_row_fails_on_rounded_roots(monkeypatch):
    # Radii rounded to 12 decimals move d_t on the circle by ~1e-13, inside 1e-12 but not 1e-14.
    profile = specops._profile
    monkeypatch.setattr(specops, "_profile", lambda n, t, radii: profile(n, t, np.round(radii, 12)))
    row = next(c for c in verify.suite_wave(42, True) if c.name == "dalembert_anchor")
    assert row.status == "fail" and 1e-14 < row.measured < 1e-12


class TestConfigAndErrors:
    def test_config_file_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 1, "r": math.pi}))
        code, out, _ = run_cli(capsys, "bessel", "--config", str(config))
        assert code == 0
        header, rows = csv_rows(out)
        assert float(rows[0][header.index("phi")]) == pytest.approx(-1.0, abs=1e-12)

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 1, "r": math.pi}))
        code, out, _ = run_cli(capsys, "bessel", "--config", str(config), "--n", "3")
        header, rows = csv_rows(out)
        assert abs(float(rows[0][header.index("phi")])) < 1e-8

    def test_explicit_flag_before_config_beats_it(self, capsys, tmp_path):
        # The config's flags go in right after the subcommand, so `--max` (argparse's abbreviation of
        # --max-freq) wins even where it stands before --config.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_freq": 1}))
        code, out, _ = run_cli(capsys, "spectral", "--max", "2", "--config", str(config))
        assert code == 0
        assert out.startswith("# subcommand=spectral domain=circle max-freq=2 "), out

    def test_config_in_either_position_and_spelling(self, capsys, tmp_path):
        # Both positions and both spellings read the file, and a missing file exits 2 in each
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 1, "r": math.pi}))
        for form in (["--config={}", "bessel"], ["--config", "{}", "bessel"], ["bessel", "--config={}"],
                     ["bessel", "--config", "{}"]):
            code, out, _ = run_cli(capsys, *(word.format(config) for word in form))
            header, rows = csv_rows(out)
            assert code == 0 and float(rows[0][header.index("phi")]) == pytest.approx(-1.0, abs=1e-12), form
            code, out, err = run_cli(capsys, *(word.format(tmp_path / "missing.json") for word in form))
            assert (code, out) == (2, "") and err.startswith("error: cannot read config:"), (form, err)

    def test_config_file_named_like_the_subcommand(self, capsys, tmp_path, monkeypatch):
        # A config file named `bessel` before the subcommand `bessel`: the file's flags follow the
        # subcommand, not the file name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bessel").write_text(json.dumps({"n": 1, "r": math.pi}))
        for flag in ("--config", "--conf"):
            code, out, _ = run_cli(capsys, flag, "bessel", "bessel")
            header, rows = csv_rows(out)
            assert code == 0 and float(rows[0][header.index("phi")]) == pytest.approx(-1.0, abs=1e-12), flag

    def test_bad_arguments_exit_2(self, capsys):
        assert run_cli(capsys, "bessel", "--n", "not-a-number")[0] == 2
        assert run_cli(capsys, "no-such-command")[0] == 2

    def test_flags_a_subcommand_does_not_read_exit_2(self, capsys):
        assert run_cli(capsys, "bessel", "--r", "1.0", "--format", "json")[0] == 2
        assert run_cli(capsys, "pizzetti", "--count", "1", "--plot")[0] == 2
        assert run_cli(capsys, "curvature", "--h", "0.1", "--curvature", "1")[0] == 2

    def test_unevaluable_grammar_constant_exit_2(self, capsys):
        for g11 in ("10^400", "0^(-1)", "1/0"):
            code, _, err = run_cli(capsys, "curvature", "--chart", "custom", "--g11", g11,
                                   "--g12", "0", "--g22", "1", "--h", "0.1")
            assert code == 2, g11
            assert err.startswith("error:"), err

    @pytest.mark.parametrize("argv", [
        ("huygens-probe", "--grid", "0"), ("huygens-probe", "--grid", "-4"),
        ("curvature", "--h", "-0.1"), ("curvature", "--h", "0"),
        ("curvature", "--h", "0.1", "--ntheta", "0"), ("front", "--ntheta", "0"),
        ("wave", "--amplitudes", "-1"), ("spectral", "--wave-steps", "-3"),
        ("pizzetti", "--count", "0"), ("pizzetti", "--count", "-1"),
        ("bessel", "--points", "0"),
        ("spectral", "--wave-steps", "3", "--wave-norm", "0"),
        ("spectral", "--wave-steps", "3", "--wave-norm", "-0.5"),
        ("spectral", "--wave-steps", "3", "--wave-norm", "1"),
        ("spectral", "--tol", "1e-3"), ("wave", "--kind", "classical", "--q", "7"),
        ("spectral", "--shift", "0.2"),
        ("spectral", "--domain", "torus2", "--symmetry", "quarter-turn", "--shift", "0.2"),
        ("spectral", "--wave-norm", "0.5"),
        ("pizzetti", "--degree", "-1", "--count", "3"),
        ("front", "--point", "1"), ("curvature", "--point", "1,2,3"),
        ("curvature", "--chart", "sphere", "--g11", "2", "--h", "0.1"),
        ("curvature", "--chart", "sphere", "--bounds", "0,1,0,1", "--h", "0.1"),
        ("spectral", "--domain", "circle", "--max-freq", "1", "--complex", "/nonexistent.json"),
    ], ids=" ".join)
    def test_nonpositive_sizes_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:"), err

    LOUD = [
        (("huygens-probe", "--q", "2", "--max-freq", "32", "--grid", "128", "--sigma", "nan"),
         "sigma=nan, t=0.3 and annulus_width=0.05 must be finite and positive"),
        (("huygens-probe", "--q", "2", "--t", "0.1", "--w", "0.2"),
         "annulus_width=0.2 reaches t=0.1, so the probe interior is empty"),
        (("spectral", "--domain", "torus2", "--max-freq", "1", "--symmetry", "translation", "--shift", "nan"),
         "shift must be 2 finite numbers, got [nan, nan]"),
        (("spectral", "--domain", "torus2", "--max-freq", "1", "--symmetry", "translation", "--shift", "inf"),
         "shift must be 2 finite numbers, got [inf, inf]"),
        (("spectral", "--t", "inf"), "deformation parameter t must be finite, got inf"),
        (("spectral", "--domain", "torus2", "--max-freq", "1", "--symmetry", "quarter-turn", "--t", "nan"),
         "deformation parameter t must be finite, got nan"),
        (("front", "--chart", "torus", "--point", "nan,0"),
         "point (nan, 0.0) has a non-finite x coordinate; every point of torus is finite"),
        (("front", "--chart", "torus", "--point", "inf,0"),
         "point (inf, 0.0) has a non-finite x coordinate; every point of torus is finite"),
        (("curvature", "--chart", "torus", "--point", "nan,0.5", "--h", "0.1"),
         "point (nan, 0.5) has a non-finite x coordinate; every point of torus is finite"),
        (("front", "--chart", "sphere", "--point", "1,-inf"),
         "point (1.0, -inf) has a non-finite y coordinate; every point of sphere is finite"),
        (("front", "--ntheta", "16", "--oneform", "x"), """--oneform takes two expressions "P;Q", got 'x'"""),
        (("front", "--ntheta", "16", "--oneform", "x;y;z"), """--oneform takes two expressions "P;Q", got 'x;y;z'"""),
        (("curvature", "--chart", "custom", "--g11", "1", "--g12", "0", "--g22", "1", "--bounds", "1,2,3", "--h", "0.1"),
         "chart bounds must be four finite numbers x_min < x_max, y_min < y_max, got (1.0, 2.0, 3.0)"),
        (("curvature", "--chart", "custom", "--g11", "1", "--g12", "0", "--g22", "1", "--bounds=-1,1,-inf,inf",
          "--h", "0.1"),
         "chart bounds must be four finite numbers x_min < x_max, y_min < y_max, got (-1.0, 1.0, -inf, inf)"),
        (("curvature", "--chart", "custom", "--g11", "1", "--g12", "0", "--g22", "1", "--bounds=1,-1,-1,1", "--h", "0.1"),
         "chart bounds must be four finite numbers x_min < x_max, y_min < y_max, got (1.0, -1.0, -1.0, 1.0)"),
        (("front", "--chart", "custom", "--g11", "1", "--g12", "0", "--g22", "1", "--bounds=-1,1,-1,1",
          "--point", "0.9,0", "--t", "-1", "--ntheta", "8"),
         "trajectory left the chart rectangle near t = -0.100000"),
        (("curvature", "--chart", "sphere", "--h", "1e-110"),
         "radius h=1e-110 is too small: the estimate's rounding floor 2^-52 h / h^3 exceeds 1e-3"),
        (("curvature", "--chart", "flat", "--h", "1e-110"),
         "radius h=1e-110 is too small: the estimate's rounding floor 2^-52 h / h^3 exceeds 1e-3"),
        (("curvature", "--chart", "sphere", "--h", "1e-8"),
         "radius h=1e-08 is too small: the estimate's rounding floor 2^-52 h / h^3 exceeds 1e-3"),
        (("curvature", "--chart", "sphere", "--h", "1e200"), "trajectory left the chart rectangle near t = 1.550796"),
        (("wave", "--t-values", "0.5", "--dt", "1e-17"),
         "dt=1e-17 is below the spacing of floats at t=0.5: the stencil times t + j dt, j = -2..2, "
         "are not five distinct floats"),
        (("wave", "--t-values", "0.5", "--dt", "1e-100"),
         "dt=1e-100 is below the spacing of floats at t=0.5: the stencil times t + j dt, j = -2..2, "
         "are not five distinct floats"),
        (("wave", "--t-values", "1e-164", "--dt", "1e-165"), "dt=1e-165: 12 dt^2 = 0.0 is not a normal float"),
        (("bessel", "--n", "1", "--r", "1e200"),
         "ode_residual at n=1, r=1e+200: phi_5(r) = -0.000e+00 is below the normal doubles, or r^2 overflows"),
    ]

    @pytest.mark.parametrize("argv, message", LOUD, ids=[" ".join(argv) for argv, _ in LOUD])
    def test_non_finite_or_misshapen_input_fails_loudly(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_non_object_config_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _, err = run_cli(capsys, "bessel", "--config", str(config), "--r", "1")
        assert code == 2
        assert err.startswith("error: cannot read config:"), err

    def test_missing_config_exit_2(self, capsys):
        assert run_cli(capsys, "bessel", "--config", "/nonexistent.json")[0] == 2
