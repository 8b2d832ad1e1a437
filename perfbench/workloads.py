"""The four workloads: their inputs, their operations and how each output is checked.

A workload's set-up turns a seed into inputs (and, for spectral_apply, the
domains the operations share) and returns the fixed list of operations that
make up one round.  One operation is one user-visible call: the in-process
equivalent of one `besselwave` CLI request.  Every round runs the same
operations on the same inputs, so a run's figures do not depend on how many
rounds fit in it.

The program is reached only through module attributes looked up at call
time (`specops.betti`, not a name bound at import), so the traced run sees
every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Callable

import numpy as np

from besselwave import besselfn, domains, geomfront, huygens, polyforms, specops, waveforms

import checks


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    known_fault: bool = False  # fails today because of a named fault in the program


def late(module, name: str, *args, **kwargs) -> Callable[[], object]:
    """A call of module.name, looked up when it runs so that a traced round sees it."""
    return lambda: getattr(module, name)(*args, **kwargs)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# spectral_build: domain assembly and dense N x N work
# ---------------------------------------------------------------------------

# Betti tables are taken at irrational t = (1 + k sqrt(2) / 1000) / sqrt(7),
# within 1.6% of each other so that the profile work hardly depends on the
# seed.  k = 2 is left out: there sin(t lambda) of one circle mode nearly
# vanishes.  selftest.py proves that at each kept t every nonzero deformed
# eigenvalue of the domains below stays 100x above the kernel threshold, so
# the table is the topological one.
IRRATIONAL_T = tuple((1.0 + k * math.sqrt(2.0) / 1000.0) / math.sqrt(7.0) for k in (0, 1, 3, 4, 5, 6, 7, 8, 9, 11))
OCTAHEDRON = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1))
SPHERE_SUBDIVISIONS = 90  # V + E + F = 26 + 6 * 90 = 566 cochains


def random_sphere(rng: np.random.Generator, subdivisions: int) -> list[tuple[int, int, int]]:
    """A triangulated 2-sphere: the octahedron after random stellar subdivisions of faces."""
    faces = list(OCTAHEDRON)
    for v in range(6, 6 + subdivisions):
        a, b, c = faces.pop(int(rng.integers(len(faces))))
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return faces


def spectral_request(kind: str, size, t: float, symmetry: str | None, shift: float) -> dict:
    """What `besselwave spectral` computes: spectra, a Betti table and a symmetry commutator."""
    if kind == "circle":
        domain = domains.build_circle_domain(size)
    elif kind == "simplicial":
        domain = domains.build_simplicial_domain(domains.SimplicialComplex.from_maximal(size))
    else:
        domain = domains.build_torus_domain(int(kind[-1]), size)
    out = {
        "spectra": domains.domain_spectra_json(domain),
        "betti": [specops.betti(domain, t, k) for k in range(domain.top_degree + 1)],
    }
    if symmetry == "translation":
        unitary = specops.torus_translation(domain, [shift] * domain.q)
    elif symmetry == "quarter-turn":
        unitary = specops.torus_quarter_turn(domain)
    if symmetry:
        out["commutator"] = specops.symmetry_commutator(domain, unitary, t)
    return out


def _check_spectral(expected_spectra, expected_betti, counts, out) -> str | None:
    if counts is not None:
        problem = checks.check_simplicial_spectra(out["spectra"], counts)
    else:
        problem = checks.check_spectra_equal(out["spectra"], expected_spectra)
    problem = problem or checks.check_betti(out["betti"], expected_betti)
    if problem is None and "commutator" in out and not out["commutator"] <= 1e-8:
        problem = f"symmetry commutator {out['commutator']:.3e} above 1e-8"
    return problem


def setup_spectral_build(seed: int) -> list[Op]:
    rng = _rng(seed)
    t = IRRATIONAL_T[int(rng.integers(len(IRRATIONAL_T)))]
    shift = float(rng.uniform(0.05, 0.45))
    faces = random_sphere(rng, SPHERE_SUBDIVISIONS)
    # The torus2 requests sit in the middle of the cost order, so op_p50_ms is a torus2 request.
    requests = [("circle", 64, "translation"), ("simplicial", faces, None), ("torus2", 5, "quarter-turn"),
                ("torus2", 5, "translation"), ("torus3", 2, "translation")]
    ops = []
    for kind, size, symmetry in requests:
        if kind == "simplicial":
            spectra, betti, counts = None, checks.SPHERE_BETTI, checks.sphere_face_counts(size)
        else:
            q = 1 if kind == "circle" else int(kind[-1])
            spectra = [checks.torus_laplacian_spectrum(q, size, k) for k in range(q + 1)]
            betti, counts = (checks.CIRCLE_BETTI if q == 1 else checks.torus_betti(q)), None
        label = f"spectral {kind}" + (f" {symmetry}" if symmetry else "")
        ops.append(Op(label, partial(spectral_request, kind, size, t, symmetry, shift),
                      partial(_check_spectral, spectra, betti, counts)))
    return ops


# ---------------------------------------------------------------------------
# spectral_apply: many cheap calls on domains built once
# ---------------------------------------------------------------------------

# Large-order profile points: n in 21..40, r in (40, 45].  The Hankel branch
# of besselfn.phi ignores the order there, so every one fails its check.
FAULT_POINTS = ((21, 40.5), (26, 41.5), (30, 45.0), (35, 43.0), (40, 42.0))
TABLE_ORDERS = (2, 5, 9, 12)
PROBES = ((2, 32, 0.04, 0.3, 0.1, 128), (3, 24, 0.035, 0.3, 0.1, 32))


def bessel_rows(n: int, rs) -> list[tuple[float, float, float, float, float]]:
    """What `besselwave bessel` prints: r, phi, psi, phi_derivative, ode_residual."""
    return [(r, besselfn.phi(n, r), besselfn.psi(n, r), besselfn.phi_derivative(n, r),
             besselfn.ode_residual(n, r)) for r in rs]


def _check_rows(n: int, reference, rows) -> str | None:
    for r, *values in rows:
        problem = checks.check_profile_row(n, r, values, reference)
        if problem:
            return problem
    return None


def _multiplier(domain, degree: int, fn) -> np.ndarray:
    return checks.mode_multiplier(fn, checks.label_frequencies(domain.labels, degree))


def _check_deformed(domain, t: float, u, adjoint: bool, out) -> str | None:
    """d_t u = t phi_{q+2}(t sqrt L) d u, mode by mode; d_t on the circle is d'Alembert's."""
    n = domain.q + 2
    if adjoint:
        target = u.degree - 1
        d_u = domain.d_blocks[target].T @ u.coefficients
    else:
        target = u.degree + 1
        d_u = domain.d_blocks[u.degree] @ u.coefficients
    if out.degree != target:
        return f"result degree {out.degree}, expected {target}"
    want = _multiplier(domain, target, lambda w: t * checks.profile_reference(n, t * w)) * d_u
    problem = checks.check_vector(out.coefficients, want, 1e-9, "deformed derivative")
    if problem is None and domain.name == "circle":
        mat = checks.dalembert_matrix(domain.labels, domain.grading[0], t)
        closed = (mat.T if adjoint else mat) @ u.coefficients
        problem = checks.check_vector(out.coefficients, closed, 1e-9, "d'Alembert closed form")
    if problem is None and not adjoint and out.degree < domain.top_degree:
        twice = specops.deformed_d(domain, t, out).norm()
        if not twice <= 1e-10 * max(1.0, u.norm()):
            problem = f"|d_t d_t u| = {twice:.3e}"
    return problem


def wave_request(domain, kind: str, q: int, raw: np.ndarray, t_values) -> list:
    """What `besselwave wave` computes: a solution and its residual over a t sweep."""
    df = domain.d_blocks[0] @ raw
    f = domain.cochain(0, raw / np.linalg.norm(df))
    if kind == "classical":
        solution = waveforms.classical_wave(domain, domain.zero_cochain(1),
                                            domain.cochain(1, df / np.linalg.norm(df)))
    elif kind == "velocity":
        solution = waveforms.velocity_solution(domain, f, q=q)
    else:
        solution = waveforms.position_solution(domain, f, q=q)
    return [(t, waveforms.pde_residual(solution, t), solution.at(t).coefficients) for t in t_values]


def _check_wave(domain, kind: str, q: int, raw: np.ndarray, rows) -> str | None:
    df = domain.d_blocks[0] @ raw
    df = df / np.linalg.norm(df)
    for t, residual, coefficients in rows:
        if not residual <= 1e-6:
            return f"{kind} residual {residual:.3e} at t={t} above 1e-6"
        if kind == "classical":
            fn = lambda w: math.sin(t * w) / w if w else t  # noqa: E731
        elif kind == "velocity":
            fn = lambda w: t * checks.profile_reference(q + 2, t * w)  # noqa: E731
        else:
            fn = lambda w: checks.profile_reference(q, t * w)  # noqa: E731
        problem = checks.check_vector(coefficients, _multiplier(domain, 1, fn) * df, 1e-9, f"{kind} u({t})")
        if problem:
            return problem
    return None


def _check_orbit(out) -> str | None:
    if not out["dirac_norm"] < 1.0:
        return f"deformed Dirac norm {out['dirac_norm']} not below 1"
    if not out["max_norm"] <= out["bound"] * (1 + 1e-12):
        return f"orbit maximum {out['max_norm']!r} exceeds its bound {out['bound']!r}"
    return None


def _check_probe(result) -> str | None:
    if not result.resolved:
        return f"probe unresolved: {result.reason}"
    if not result.deformed_leakage <= 1e-3:
        return f"deformed leakage {result.deformed_leakage:.3e} above 1e-3"
    if not result.classical_leakage >= 10.0 * result.deformed_leakage:
        return f"classical leakage {result.classical_leakage:.3e} is not 10x the deformed"
    return None


def setup_spectral_apply(seed: int) -> list[Op]:
    rng = _rng(seed)
    built = {
        "circle3": domains.build_circle_domain(3),
        "circle8": domains.build_circle_domain(8),
        "torus2-2": domains.build_torus_domain(2, 2),
        "torus2-3": domains.build_torus_domain(2, 3),
        "torus3-1": domains.build_torus_domain(3, 1),
        "torus3-2": domains.build_torus_domain(3, 2),
    }
    ops = []
    # All twelve bounded-derivative calls take t near 0.9, so they cost alike
    # and the median operation of the round sits in the middle of them.
    for key in ("circle8", "torus2-3", "torus3-2"):
        dom = built[key]
        for _ in range(2):
            t = 0.9 * (1.0 + 0.01 * float(rng.uniform(-1, 1)))
            u = dom.cochain(0, rng.standard_normal(dom.grading[0]))
            w = dom.cochain(1, rng.standard_normal(dom.grading[1]))
            ops.append(Op(f"deformed_d {key}", late(specops, "deformed_d", dom, t, u),
                          partial(_check_deformed, dom, t, u, False)))
            ops.append(Op(f"deformed_d_adjoint {key}", late(specops, "deformed_d_adjoint", dom, t, w),
                          partial(_check_deformed, dom, t, w, True)))
    # Wave sweeps stay on domains with |lambda| <= 6 pi, where the 4th-order
    # stencil of pde_residual is below its 1e-6 bound for every input.
    for key in ("circle3", "torus2-2", "torus3-1"):
        dom = built[key]
        for kind, q in (("velocity", 3), ("position", 2), ("classical", dom.q)):
            raw = rng.standard_normal(dom.grading[0])
            ts = tuple(t * (1.0 + 0.01 * float(rng.uniform(-1, 1))) for t in (0.5, 1.0, 2.0))
            ops.append(Op(f"wave {kind} {key}", partial(wave_request, dom, kind, q, raw, ts),
                          partial(_check_wave, dom, kind, q, raw)))
    for key in ("circle8", "torus2-3", "torus3-1"):
        dom = built[key]
        h = math.asin(0.9) / float(np.max(np.abs(dom.eigenvalues)))
        state = rng.standard_normal(2 * dom.total_dim)
        state /= np.linalg.norm(state)
        ops.append(Op(f"wave orbit {key}",
                      late(specops, "discrete_wave_orbit", dom, h, state[: dom.total_dim], state[dom.total_dim:], 200),
                      _check_orbit))
    for n in TABLE_ORDERS:
        rs = tuple(float(r) for r in np.linspace(35.0, 45.0, 11) + float(rng.uniform(-0.05, 0.05)))
        ops.append(Op(f"bessel table n={n}", partial(bessel_rows, n, rs),
                      partial(_check_rows, n, checks.profile_reference)))
    for q, max_freq, sigma, t, width, grid in PROBES:
        ops.append(Op(f"huygens-probe q={q}",
                      late(huygens, "locality_probe", q, max_freq, sigma, t, width, grid_points=grid),
                      _check_probe))
    for n, r in FAULT_POINTS:
        ops.append(Op(f"bessel n={n} r={r}", partial(bessel_rows, n, (r,)),
                      partial(_check_rows, n, checks.profile_reference_mp), known_fault=True))
    return ops


# ---------------------------------------------------------------------------
# exact_algebra: Fraction arithmetic, no numeric domains
# ---------------------------------------------------------------------------

PIZZETTI_TERMS = {1: 6, 2: 14, 3: 22}  # terms per random polynomial of degree 8, by q
POLARIZATION = ((3, 2), (3, 3), (2, 2, 2), (4, 3), (3, 2, 2), (4, 4), (4, 2, 2))


def random_poly_terms(rng, nvars: int, degree: int, n_terms: int) -> dict:
    """n_terms distinct monomials of total degree <= degree, one of them of full degree."""
    pool = _exponents(nvars, degree)
    top = [e for e in pool if sum(e) == degree]
    chosen = {top[int(rng.integers(len(top)))]}
    while len(chosen) < n_terms:
        chosen.add(pool[int(rng.integers(len(pool)))])
    terms = {}
    for e in sorted(chosen):
        num = int(rng.integers(1, 10)) * (1 if rng.random() < 0.5 else -1)
        terms[e] = Fraction(num, int(rng.integers(1, 10)))
    return terms


def _exponents(nvars: int, degree: int):
    if nvars == 1:
        return [(e,) for e in range(degree + 1)]
    return [(h,) + rest for h in range(degree + 1) for rest in _exponents(nvars - 1, degree - h)]


def pizzetti_request(g, q: int):
    return (huygens.pizzetti_ball(g, q), huygens.ball_average_exact(g, q),
            huygens.pizzetti_sphere(g, q), huygens.sphere_average_exact(g, q))


def _check_pizzetti(out) -> str | None:
    ball_series, ball_avg, sphere_series, sphere_avg = out
    if ball_series.terms != ball_avg.terms:
        return "ball average differs from its Laplacian-power series"
    if sphere_series.terms != sphere_avg.terms:
        return "sphere average differs from its Laplacian-power series"
    return None


def _check_zero(what: str, value) -> str | None:
    return None if value == 0 else f"{what} deviates by {value!r}"


def _check_monomial(expo, poly) -> str | None:
    want = {tuple(expo): Fraction(1)}
    return None if poly.nvars == len(expo) and poly.terms == want else f"reconstruction of {expo} is not x^{expo}"


def _check_d_squared(out) -> str | None:
    return None if out.is_zero else "d(d f) is not zero"


def lie_request(form, x_field):
    return form.lie_derivative(x_field)


def _check_lie(form, x_field, out) -> str | None:
    """For a constant field X, (L_X F)_I = sum_j X_j d_j F_I, computed on raw term dicts."""
    want = {}
    for key, poly in form.components.items():
        acc: dict = {}
        for expo, coeff in poly.terms.items():
            for j, xj in enumerate(x_field):
                if xj and expo[j]:
                    e = expo[:j] + (expo[j] - 1,) + expo[j + 1:]
                    acc[e] = acc.get(e, Fraction(0)) + coeff * expo[j] * xj
        acc = {e: c for e, c in acc.items() if c}
        if acc:
            want[key] = acc
    got = {key: poly.terms for key, poly in out.components.items()}
    return None if got == want else "Lie derivative differs from the directional derivative"


def _check_certificate(q: int, n: int, cert) -> str | None:
    """f = -t (1 - t^n) / (n (q + n)) and B_tt f = f'' + (q-1)(f'/t - f/t^2) = t^(n-1)."""
    c = Fraction(1, n * (q + n))
    sol = cert.solution.coeffs
    if sol != {1: -c, n + 1: c}:
        return f"solution {sol} is not -t(1 - t^{n})/({n}({q}+{n}))"
    acc: dict = {}
    for p, a in sol.items():  # p(p-1) t^(p-2) + (q-1)(p - 1) t^(p-2)
        acc[p - 2] = acc.get(p - 2, Fraction(0)) + a * (p * (p - 1) + (q - 1) * (p - 1))
    acc = {p: a for p, a in acc.items() if a}
    if acc != {n - 1: Fraction(1)}:
        return f"B_tt f = {acc}, expected t^{n - 1}"
    if not cert.residual.is_zero or cert.value_at_zero != 0 or cert.rate_at_zero != -c:
        return "certificate residual, value or rate at zero is wrong"
    return None


def setup_exact_algebra(seed: int) -> list[Op]:
    rng = _rng(seed)
    ops = []
    for i in range(15):
        q = 1 + i % 3
        g = polyforms.MultiPoly(q, random_poly_terms(rng, q, 8, PIZZETTI_TERMS[q]))
        ops.append(Op(f"pizzetti q={q}", partial(pizzetti_request, g, q), _check_pizzetti))
    # Eleven flux q=3 checks and the two Lie checks below cost alike and put
    # the median operation in the middle of a group of thirteen, with
    # seventeen operations on either side, so the polynomials a seed draws
    # move it little.
    for q, count in ((2, 3), (3, 11)):
        for _ in range(count):
            comps = {key: polyforms.MultiPoly(q, random_poly_terms(rng, q, 4, 4 * q))
                     for key in combinations(range(q), q - 1)}
            form = polyforms.PolyKForm(q, q - 1, comps)
            ops.append(Op(f"flux q={q}", late(huygens, "flux_corollary_check", form, q),
                          partial(_check_zero, "flux corollary")))
    for expo in POLARIZATION:
        expo = tuple(int(e) for e in rng.permutation(expo))
        ops.append(Op(f"polarize {sum(expo)}", late(huygens, "polarization_reconstruct", expo),
                      partial(_check_monomial, expo)))
    for _ in range(2):
        comps = {(a,): polyforms.MultiPoly(3, random_poly_terms(rng, 3, 3, 8)) for a in range(3)}
        form = polyforms.PolyKForm(3, 1, comps)
        ops.append(Op("cartan d^2", lambda f=form: f.exterior_derivative().exterior_derivative(),
                      _check_d_squared))
    for _ in range(2):
        comps = {key: polyforms.MultiPoly(3, random_poly_terms(rng, 3, 3, 8)) for key in combinations(range(3), 2)}
        form = polyforms.PolyKForm(3, 2, comps)
        x_field = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        ops.append(Op("cartan lie", partial(lie_request, form, x_field), partial(_check_lie, form, x_field)))
    for _ in range(7):
        q, n = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        ops.append(Op("monomial source", late(waveforms, "monomial_source_solution", q, n),
                      partial(_check_certificate, q, n)))
    return ops


# ---------------------------------------------------------------------------
# geodesic_fronts: geodesic + Jacobi integration on named and expression charts
# ---------------------------------------------------------------------------

FRONT_T = 0.15
R2D2_H = 0.06
LINE_THETAS = 256
EXPRESSION_CHARTS = {
    "sphere": ("1", "0", "sin(x)^2", (0.02, math.pi - 0.02, -1e9, 1e9)),
    "hyperbolic": ("1/y^2", "0", "1/y^2", (-1e9, 1e9, 0.02, 1e9)),
    "flat": ("1", "0", "1", (-4.0, 4.0, -4.0, 4.0)),
}


def _chart(model: str, expression: bool):
    if expression:
        g11, g12, g22, bounds = EXPRESSION_CHARTS[model]
        return geomfront.chart_from_expressions(g11, g12, g22, bounds)
    return geomfront.chart_by_name(model)


def front_request(model: str, expression: bool, point, t: float) -> float:
    """`besselwave front`: the chart, then the front length at radius t."""
    return geomfront.wavefront_length(_chart(model, expression), point, t)


def line_integral_request(expression: bool, point, t: float):
    """`besselwave front --oneform=-y;x` on the flat chart."""
    from besselwave.exprgrammar import compile_expression

    oneform = (compile_expression("-y"), compile_expression("x"))
    return geomfront.wavefront_line_integral(_chart("flat", expression), oneform, point, t, LINE_THETAS)


def curvature_request(model: str, expression: bool, point, h: float) -> float:
    """`besselwave curvature --h`: the two-radius estimate."""
    return geomfront.r2d2_curvature(_chart(model, expression), point, h)


def _check_close(what: str, want: float, tol: float, got) -> str | None:
    return None if abs(got - want) <= tol else f"{what} = {got!r}, expected {want!r} within {tol:g}"


def _check_line(t: float, out) -> str | None:
    if out.front_self_intersects:
        return "front flagged as self-intersecting"
    polygon = checks.stokes_polygon(t, LINE_THETAS)
    if not abs(out.value - polygon) <= 1e-12 * polygon:
        return f"line integral {out.value!r} differs from the inscribed-polygon value {polygon!r}"
    # The polygon's shortfall against Stokes' 2 pi t^2 is (2 pi / n)^2 / 6 of it.
    stokes = 2.0 * math.pi * t * t
    if not abs(out.value - stokes) <= stokes * (2 * math.pi / LINE_THETAS) ** 2 / 6 * 1.01:
        return f"line integral {out.value!r} too far from Stokes' {stokes!r}"
    return None


def _random_point(rng, model: str):
    if model == "sphere":
        return (float(rng.uniform(0.6, math.pi - 0.6)), float(rng.uniform(-1.0, 1.0)))
    if model == "hyperbolic":
        return (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 2.0)))
    return (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))


def setup_geodesic_fronts(seed: int) -> list[Op]:
    rng = _rng(seed)
    ops = []
    for expression in (False, True):
        kind = "expression" if expression else "named"
        for model in ("sphere", "hyperbolic", "flat"):
            p = _random_point(rng, model)
            ops.append(Op(f"front {kind} {model}", partial(front_request, model, expression, p, FRONT_T),
                          partial(_check_close, f"{model} front length", checks.front_length_exact(model, FRONT_T),
                                  1e-6)))
        p = _random_point(rng, "flat")
        ops.append(Op(f"line integral {kind} flat", partial(line_integral_request, expression, p, FRONT_T),
                      partial(_check_line, FRONT_T)))
        for model in ("sphere", "hyperbolic") + (() if expression else ("flat",)):
            p = _random_point(rng, model)
            ops.append(Op(f"curvature {kind} {model}", partial(curvature_request, model, expression, p, R2D2_H),
                          partial(_check_close, f"{model} r2d2", checks.r2d2_exact(model, R2D2_H), 1e-6)))
    return ops


# The host-speed kernels (hostspeed.py) that gauge each workload: large BLAS
# and LAPACK calls for the domain builds, a mix of interpreter-bound kinds
# of work for the rest.
INTERPRETER_MIX = ("interpreter", "bigint", "array", "eigh_small")
GAUGES = {
    "spectral_build": ("eigh_large", "matmul_large"),
    "spectral_apply": INTERPRETER_MIX,
    "exact_algebra": INTERPRETER_MIX,
    "geodesic_fronts": INTERPRETER_MIX,
}

WORKLOADS = {
    "spectral_build": setup_spectral_build,
    "spectral_apply": setup_spectral_apply,
    "exact_algebra": setup_exact_algebra,
    "geodesic_fronts": setup_geodesic_fronts,
}
