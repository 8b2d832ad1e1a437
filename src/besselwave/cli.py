"""Command-line surface: verification runs, datasets and static SVG plots.

Exit codes: 0 on success, 1 on a verification failure (with a JSON failure
report on stdout), 2 on usage or configuration errors.  Every CSV starts
with '#' comment lines naming the subcommand, its parameters and the seed,
so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import besselfn, geomfront, huygens, specops, verify, waveforms
from .domains import (
    SimplicialComplex,
    build_circle_domain,
    build_simplicial_domain,
    build_torus_domain,
    domain_spectra_json,
    spectrum_by_degree,
)
from .exprgrammar import compile_expression
from .polyforms import MultiPoly
from .svgfig import polyline_chart

__all__ = ["main", "console_main"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv(comments: list[str], header: list[str], rows: list[list]) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(args, comments: list[str], header: list[str], rows: list[list], plot=None) -> None:
    """Write the CSV; with --plot, also the SVG of plot = (title, x_label, y_label, [(name, xs, ys), ...])."""
    _emit(_csv(comments, header, rows), args.out)
    if plot is not None and args.plot:
        title, x_label, y_label, series = plot
        path = args.out.rsplit(".", 1)[0] + ".svg" if args.out else f"besselwave_{args.command}.svg"
        polyline_chart(path, series, title=title, x_label=x_label, y_label=y_label)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bessel(args) -> int:
    if args.r is None and args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    if args.r is not None:
        rs = [args.r]
    else:
        rs = list(np.linspace(args.r_min, args.r_max, args.points))
    rows = []
    for r in rs:
        residual = besselfn.ode_residual(args.n, abs(r)) if r else 0.0  # the ODE is invariant under r -> -r
        rows.append(
            [r, besselfn.phi(args.n, r), besselfn.psi(args.n, r), besselfn.phi_derivative(args.n, r), residual]
        )
    comments = [
        f"subcommand=bessel n={args.n} r={args.r} r_min={args.r_min} r_max={args.r_max} "
        f"points={args.points} seed={args.seed}"
    ]
    cols = list(zip(*rows))
    _table(args, comments, ["r", "phi", "psi", "phi_derivative", "ode_residual"], rows,
           (f"Bessel profile n={args.n}", "r", "value", [("phi", cols[0], cols[1]), ("psi", cols[0], cols[2])]))
    return 0


def _build_domain(args):
    if args.complex is not None and args.domain != "simplicial":
        raise ValueError("--complex names the simplicial complex and needs --domain simplicial")
    if args.domain == "circle":
        return build_circle_domain(args.max_freq)
    if args.domain in ("torus2", "torus3"):
        return build_torus_domain(int(args.domain[-1]), args.max_freq)
    if args.domain == "simplicial":
        if not args.complex:
            raise ValueError("--complex FILE.json is required for the simplicial domain")
        return build_simplicial_domain(SimplicialComplex.from_json(args.complex))
    raise ValueError(f"unknown domain {args.domain!r}")


def _cmd_spectral(args) -> int:
    if args.tol is not None and args.t is None:
        raise ValueError("--tol sets the Betti kernel threshold and needs --t")
    if args.shift is not None and args.symmetry != "translation":
        raise ValueError("--shift sets the translation and needs --symmetry translation")
    if args.wave_norm is not None and not args.wave_steps:
        raise ValueError("--wave-norm sets the orbit step and needs --wave-steps")
    shift = 1.0 / 3.0 if args.shift is None else args.shift
    wave_norm = 0.9 if args.wave_norm is None else args.wave_norm
    if args.wave_steps and not 0.0 < wave_norm < 1.0:
        raise ValueError(f"--wave-norm must lie in (0, 1), got {wave_norm}")
    domain = _build_domain(args)
    payload = {
        "domain": domain.name,
        "grading": list(domain.grading),
        "spectra": domain_spectra_json(domain),
    }
    if args.t is not None:
        payload["betti"] = {
            "t": args.t,
            "by_degree": specops.betti_numbers(domain, args.t, tol=args.tol),
        }
    if args.symmetry:
        if args.symmetry == "translation":
            unitary = specops.torus_translation(domain, [shift] * domain.q)
        else:
            unitary = specops.torus_quarter_turn(domain)
        t_val = args.t if args.t is not None else 0.3
        payload["symmetry"] = {
            "kind": args.symmetry,
            "t": t_val,
            "commutator": specops.symmetry_commutator(domain, unitary, t_val),
        }
    if args.wave_steps:
        # |psi_n(x)| <= |x|, so h = wave_norm / max|lambda| keeps ||D_h|| <= wave_norm for
        # every q; a zero spectrum has D_h = 0 for every h.
        top = max(float(spectrum_by_degree(domain, k)[-1]) for k in range(domain.top_degree + 1))
        h = wave_norm / (math.sqrt(max(top, 0.0)) or 1.0)
        rng = np.random.default_rng(np.random.Philox(args.seed))
        orbit = verify.wave_map_orbit(domain, h, rng, args.wave_steps)
        payload["wave_orbit"] = {
            "h": h,
            "steps": args.wave_steps,
            "dirac_norm": orbit["dirac_norm"],
            "max_norm": orbit["max_norm"],
            "bound": orbit["bound"],
        }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        rows = [
            [entry["degree"], i, v]
            for entry in payload["spectra"]
            for i, v in enumerate(entry["eigenvalues"])
        ]
        comments = [
            f"subcommand=spectral domain={args.domain} max-freq={args.max_freq} seed={args.seed}"
        ]
        if "betti" in payload:
            comments.append(f"betti t={args.t} by_degree={payload['betti']['by_degree']}")
        if "symmetry" in payload:
            comments.append(
                f"symmetry {payload['symmetry']['kind']} commutator={payload['symmetry']['commutator']!r}"
            )
        if "wave_orbit" in payload:
            o = payload["wave_orbit"]
            comments.append(f"wave_orbit max_norm={o['max_norm']!r} bound={o['bound']!r}")
        _table(args, comments, ["degree", "index", "laplacian_eigenvalue"], rows)
    return 0


def _cmd_wave(args) -> int:
    if args.amplitudes < 0:
        raise ValueError(f"--amplitudes must be >= 0, got {args.amplitudes}")
    if args.dt is not None and not (math.isfinite(args.dt) and args.dt > 0):
        raise ValueError(f"--dt must be finite and positive, got {args.dt}")
    if args.kind == "classical" and args.q is not None:
        raise ValueError("--q sets the Bessel index of the velocity and position solutions; classical has none")
    domain = _build_domain(args)
    rng = np.random.default_rng(np.random.Philox(args.seed))
    raw = rng.standard_normal(domain.grading[0])
    df = domain.apply_d(0, raw)
    f = domain.cochain(0, raw / np.linalg.norm(df))
    if args.kind == "classical":
        solution = waveforms.classical_wave(domain, domain.zero_cochain(1), domain.cochain(1, df / np.linalg.norm(df)))
    elif args.kind == "velocity":
        solution = waveforms.velocity_solution(domain, f, q=args.q)
    else:
        solution = waveforms.position_solution(domain, f, q=args.q)
    t_values = [float(s) for s in args.t_values.split(",")]
    dt = args.dt if args.dt is not None else waveforms.residual_step(solution)
    rows = []
    n_amp = min(domain.grading[solution.degree], args.amplitudes)
    for t in t_values:
        u = solution.at(t)
        residual = waveforms.pde_residual(solution, t, dt)
        rows.append([t, residual, u.norm()] + [float(a) for a in np.abs(u.coefficients[:n_amp])])
    comments = [
        f"subcommand=wave domain={args.domain} kind={args.kind} q={args.q} "
        f"max-freq={args.max_freq} dt={dt} seed={args.seed}"
    ]
    header = ["t", "residual", "norm"] + [f"amp_{i}" for i in range(n_amp)]
    cols = list(zip(*rows))
    _table(args, comments, header, rows,
           (f"{args.kind} solution, {args.domain}", "t", "norm", [("norm", cols[0], cols[2])]))
    return 0


def _cmd_pizzetti(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    rng = np.random.default_rng(np.random.Philox(args.seed))
    rows = verify.pizzetti_rows(rng, args.count, (1, 2, 3), args.degree)
    failures = sum((not ball) + (not sphere) for _, _, ball, sphere in rows)
    comments = [
        f"subcommand=pizzetti count={args.count} degree={args.degree} seed={args.seed}",
        f"failures={failures}",
    ]
    _table(args, comments, ["index", "q", "poly_degree", "ball_exact", "sphere_exact"],
           [[i, q, degree, int(ball), int(sphere)] for i, (q, degree, ball, sphere) in enumerate(rows)])
    return 0 if failures == 0 else 1


def _cmd_polarize(args) -> int:
    exponents = tuple(int(s) for s in args.exponents.split(","))
    terms = huygens.polarization_expand(exponents)
    verified = huygens.polarization_reconstruct(exponents) == MultiPoly.monomial(len(exponents), exponents)
    n = sum(exponents)
    rows = [[sign] + list(coeffs) + [power] for sign, coeffs, power in terms]
    comments = [
        f"subcommand=polarize exponents={args.exponents} seed={args.seed}",
        f"normalization=1/(n!*2^n) with n={n}; combination reproduces the monomial: {verified}",
    ]
    header = ["sign"] + [f"a_{i}" for i in range(len(exponents))] + ["power"]
    _table(args, comments, header, rows)
    return 0 if verified else 1


def _cmd_probe(args) -> int:
    defaults = {2: (64, 0.02, 0.05, 256), 3: (24, 0.035, 0.1, 32)}[args.q]  # q = 3 runs on 64^3 points
    for name, value in zip(("max_freq", "sigma", "w", "grid"), defaults):
        if getattr(args, name) is None:
            setattr(args, name, value)
    result = huygens.locality_probe(
        args.q, args.max_freq, args.sigma, args.t, args.w, grid_points=args.grid
    )
    if not result.resolved:
        _emit(json.dumps({"status": "unresolved", "reason": result.reason,
                          "spectral_tail": result.spectral_tail}, indent=2) + "\n", args.out)
        return 1
    comments = [
        f"subcommand=huygens-probe q={args.q} max-freq={args.max_freq} sigma={args.sigma} "
        f"t={args.t} w={args.w} grid={result.grid} seed={args.seed}",
        f"deformed_leakage={result.deformed_leakage!r} classical_leakage={result.classical_leakage!r}",
        f"spectral_tail={result.spectral_tail!r}",
    ]
    rows = [
        [float(r), float(d), float(c)]
        for r, d, c in zip(result.radii, result.deformed_profile, result.classical_profile)
    ]
    _table(args, comments, ["radius", "deformed_mass", "classical_mass"], rows,
           (f"interior leakage profile, q={args.q}, t={args.t}", "torus radius", "mass fraction",
            [("deformed", result.radii, result.deformed_profile),
             ("classical", result.radii, result.classical_profile)]))
    return 0


def _cmd_curvature(args) -> int:
    chart, point = _chart_point(args)
    hs = [args.h] if args.h is not None else [0.05 * (i + 1) for i in range(6)]
    rows = [[h, geomfront.r2d2_curvature(chart, point, h, args.ntheta),
             geomfront.puiseux_curvature(chart, point, h, args.ntheta)] for h in hs]
    comments = [
        f"subcommand=curvature chart={chart.name} point={point} ntheta={args.ntheta} seed={args.seed}"
    ]
    cols = list(zip(*rows))
    _table(args, comments, ["h", "r2d2", "puiseux"], rows,
           (f"curvature estimates on {chart.name}", "h", "K",
            [("r2d2", cols[0], cols[1]), ("puiseux", cols[0], cols[2])]))
    return 0


def _cmd_front(args) -> int:
    chart, point = _chart_point(args)
    front = geomfront.wavefront(chart, point, args.t, args.ntheta)
    comments = [
        f"subcommand=front chart={chart.name} point={point} t={args.t} "
        f"ntheta={args.ntheta} seed={args.seed}",
        f"front_length={front.length!r}",
    ]
    if args.oneform:
        sources = args.oneform.split(";")
        if len(sources) != 2:
            raise ValueError(f'--oneform takes two expressions "P;Q", got {args.oneform!r}')
        oneform = tuple(compile_expression(src) for src in sources)
        res = geomfront.wavefront_line_integral(chart, oneform, point, args.t, args.ntheta)
        comments.append(
            f"line_integral={res.value!r} self_intersection_warning={res.front_self_intersects}"
        )
    rows = [
        [float(th), float(x), float(y), float(j)]
        for th, (x, y), j in zip(front.angles, front.points, front.jacobi)
    ]
    closed = list(zip(*(rows + rows[:1])))
    _table(args, comments, ["theta", "x", "y", "jacobi"], rows,
           (f"wave front on {chart.name}, t={args.t}", "x", "y", [("front", closed[1], closed[2])]))
    return 0


def _cmd_verify_all(args) -> int:
    report = verify.run_all(seed=args.seed, quick=args.quick)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    if args.out:
        sys.stdout.write(text)
    return 0 if report["status"] == "pass" else 1


def _chart_point(args):
    """The chart of --chart and the point of --point; the default point is the centre of the chart's rectangle."""
    if args.chart == "custom":
        if not (args.g11 and args.g12 is not None and args.g22):
            raise ValueError("custom charts need --g11, --g12, --g22 expressions")
        bounds = tuple(float(s) for s in (args.bounds or "-2,2,-2,2").split(","))
        chart = geomfront.chart_from_expressions(args.g11, args.g12, args.g22, bounds)
    else:
        chart = geomfront.chart_by_name(args.chart)
        given = [f"--{name}" for name in ("g11", "g12", "g22", "bounds") if getattr(args, name) is not None]
        if given:
            raise ValueError(f"custom-chart flags {', '.join(given)} need --chart custom, got --chart {args.chart}")
    if args.point:
        point = tuple(float(s) for s in args.point.split(","))
        if len(point) != 2:
            raise ValueError(f"--point takes two numbers x,y, got {args.point!r}")
        return chart, point
    if chart.name == "hyperbolic":
        return chart, (0.0, 1.0)  # its rectangle is unbounded above
    x_min, x_max, y_min, y_max = chart.bounds
    return chart, (0.5 * (x_min + x_max), 0.5 * (y_min + y_max))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    def config(p):  # SUPPRESS: a subcommand's default must not overwrite a --config given before the subcommand
        p.add_argument("--config", default=argparse.SUPPRESS, help="JSON file of flag values; command-line flags win")

    parser = argparse.ArgumentParser(
        prog="besselwave",
        description="Bounded smoothed exterior derivative: verification runs and datasets.",
    )
    config(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, plot=False):
        config(p)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", help="output path (stdout when omitted)")
        if plot:
            p.add_argument("--plot", action="store_true", help="write an SVG next to --out")

    def domain(p):
        p.add_argument("--domain", choices=("circle", "torus2", "torus3", "simplicial"), default="circle")
        p.add_argument("--max-freq", type=int, default=3)
        p.add_argument("--complex", help="JSON file with {\"simplices\": [...]}")

    def chart(p, default):
        p.add_argument("--chart", default=default)
        p.add_argument("--point")
        p.add_argument("--g11")
        p.add_argument("--g12")
        p.add_argument("--g22")
        p.add_argument("--bounds", help="x_min,x_max,y_min,y_max of a custom chart (default -2,2,-2,2)")

    p = sub.add_parser("bessel", help="profile tables and identity checks")
    common(p, plot=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--r", type=float)
    p.add_argument("--r-min", type=float, default=0.1)
    p.add_argument("--r-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=_cmd_bessel)

    p = sub.add_parser("spectral", help="domain spectra, Betti tables, symmetries, wave orbits")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    domain(p)
    p.add_argument("--t", type=float, help="deformation parameter for the Betti table")
    p.add_argument("--tol", type=float, help="kernel threshold override")
    p.add_argument("--symmetry", choices=("translation", "quarter-turn"))
    p.add_argument("--shift", type=float, help="translation shift per axis (default 1/3); needs --symmetry translation")
    p.add_argument("--wave-steps", type=int, default=0)
    p.add_argument("--wave-norm", type=float, help="bound on ||D_h|| in (0, 1) (default 0.9); needs --wave-steps")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("wave", help="solution snapshots and residual sweeps")
    common(p, plot=True)
    domain(p)
    p.add_argument("--kind", choices=("velocity", "position", "classical"), default="velocity")
    p.add_argument("--q", type=int, default=None, help="Bessel index override")
    p.add_argument("--t-values", default="0.5,1.0,2.0")
    p.add_argument("--dt", type=float, help="residual stencil step (default: min(1e-3, 0.005/max|lambda|)); "
                   "the residual cannot fall below stencil rounding, ~64 eps ||u|| / (12 dt^2), 1e-9 at dt = 1e-3")
    p.add_argument("--amplitudes", type=int, default=8)
    p.set_defaults(func=_cmd_wave)

    p = sub.add_parser("pizzetti", help="random-polynomial averaging verification report")
    common(p)
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--degree", type=int, default=8)
    p.set_defaults(func=_cmd_pizzetti)

    p = sub.add_parser("polarize", help="polarization identity expansion")
    common(p)
    p.add_argument("--exponents", default="1,1", help="comma-separated monomial exponents")
    p.set_defaults(func=_cmd_polarize)

    p = sub.add_parser("huygens-probe", help="interior-leakage comparison on the flat torus")
    common(p, plot=True)
    p.add_argument("--q", type=int, default=2, choices=(2, 3))
    p.add_argument("--max-freq", type=int, help="default 64 at q = 2, 24 at q = 3")
    p.add_argument("--sigma", type=float, help="default 0.02 at q = 2, 0.035 at q = 3")
    p.add_argument("--t", type=float, default=0.3)
    p.add_argument("--w", type=float, help="default 0.05 at q = 2, 0.1 at q = 3")
    p.add_argument("--grid", type=int, help="default 256 at q = 2, 32 at q = 3; doubled until it resolves the band")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("curvature", help="two-radius and circumference-defect curvature sweeps")
    common(p, plot=True)
    chart(p, "sphere")
    p.add_argument("--h", type=float)
    p.add_argument("--ntheta", type=int, default=64)
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("front", help="wave-front polylines and line integrals")
    common(p, plot=True)
    chart(p, "flat")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--ntheta", type=int, default=256)
    p.add_argument("--oneform", help='pair of expressions "P;Q"')
    p.set_defaults(func=_cmd_front)

    p = sub.add_parser("verify-all", help="run every property suite, JSON pass/fail report")
    common(p)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if "config" in args:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
            if not isinstance(values, dict):
                raise ValueError(f"expected a JSON object, got {type(values).__name__}")
            flags = []
            for key, value in values.items():
                if value is not False:
                    flags += [f"--{key.replace('_', '-')}"] + ([] if value is True else [str(value)])
            # The file's flags go right after the subcommand, so a flag on the command line wins. The
            # subcommand is the first word equal to its name that is not the value of a `--config` (or
            # an abbreviation of it) before the subcommand.
            at = next(i for i, word in enumerate(argv) if word == args.command
                      and not (i and len(argv[i - 1]) >= 3 and "--config".startswith(argv[i - 1]))) + 1
            args = parser.parse_args(argv[:at] + flags + argv[at:])
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:  # argparse exits on a bad flag value, so these come from the config
        sys.stderr.write(f"error: cannot read config: {exc}\n")
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, geomfront.ChartExitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
