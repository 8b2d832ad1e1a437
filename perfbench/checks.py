"""Independent references the benchmark checks besselwave's outputs against.

Nothing here calls besselwave.  Profile values come from scipy's Bessel J
(and mpmath where more digits are needed), torus spectra from enumerating
lattice vectors, Betti numbers from topology, and the closed-form wave,
front-length and line-integral values from their textbook formulas.  Every
checker returns None when the result is right and a one-line reason when it
is not.
"""

from __future__ import annotations

import math
from itertools import product
from math import comb

import numpy as np

# A profile value must sit within this share of its decay envelope.  The
# exact series and the Hankel branch for n <= 19 are good to ~1e-14 of it;
# the large-order Hankel fault is off by 1e-3 to 1e-1 of it.
PROFILE_TOL = 1e-10


# ---------------------------------------------------------------------------
# profile family
# ---------------------------------------------------------------------------


def profile_reference(n: int, r: float) -> float:
    """phi_n(r) = Gamma(n/2) (r/2)^(1-nu) J_nu(r), nu = n/2 - 1, via scipy."""
    from scipy.special import gammaln, jv

    r = abs(float(r))
    if r == 0.0:
        return 1.0
    nu = 0.5 * n - 1.0
    j = float(jv(nu, r))
    if j == 0.0:
        return 0.0
    log_scale = gammaln(0.5 * n) - nu * math.log(0.5 * r)
    return math.copysign(math.exp(log_scale + math.log(abs(j))), j)


def profile_reference_mp(n: int, r: float, digits: int = 30) -> float:
    """The same closed form at `digits` significant digits, via mpmath."""
    import mpmath

    with mpmath.workdps(digits):
        x = mpmath.mpf(r)
        if x == 0:
            return 1.0
        nu = mpmath.mpf(n) / 2 - 1
        return float(mpmath.gamma(mpmath.mpf(n) / 2) * (x / 2) ** (-nu) * mpmath.besselj(nu, x))


def envelope(n: int, r: float) -> float:
    """Decay envelope min(1, Gamma(n/2) (r/2)^(1-nu) sqrt(2/(pi r))) of |phi_n|."""
    r = abs(float(r))
    if r == 0.0:
        return 1.0
    nu = 0.5 * n - 1.0
    log_env = math.lgamma(0.5 * n) - nu * math.log(0.5 * r) + 0.5 * math.log(2.0 / (math.pi * r))
    return min(1.0, math.exp(log_env))


def check_profile_row(n: int, r: float, row, reference=profile_reference) -> str | None:
    """Check one `bessel` row (phi, psi, phi_derivative) at (n, r)."""
    phi, psi, dphi = row[0], row[1], row[2]
    want = reference(n, r)
    env = envelope(n, r)
    if not abs(phi - want) <= PROFILE_TOL * env:
        return f"phi({n}, {r!r}) = {phi!r}, reference {want!r}, envelope {env:.3e}"
    if not abs(psi - r * want) <= PROFILE_TOL * max(abs(r), 1.0) * env:
        return f"psi({n}, {r!r}) = {psi!r}, reference {r * want!r}"
    # phi_n'(r) = -(r/n) phi_{n+2}(r), the recursion for Bessel J.
    want_d = -(r / n) * reference(n + 2, r)
    env_d = (abs(r) / n) * envelope(n + 2, r)
    if not abs(dphi - want_d) <= PROFILE_TOL * max(env_d, 1e-300):
        return f"phi_derivative({n}, {r!r}) = {dphi!r}, reference {want_d!r}"
    return None


# ---------------------------------------------------------------------------
# spectra and topology
# ---------------------------------------------------------------------------


def torus_laplacian_spectrum(q: int, max_freq: int, degree: int) -> np.ndarray:
    """Sorted degree-k Hodge spectrum of the band-limited flat q-torus.

    Every lattice vector m in [-max_freq, max_freq]^q gives the eigenvalue
    4 pi^2 |m|^2 once per k-form component, so C(q, k) times.
    """
    norms = [sum(c * c for c in m) for m in product(range(-max_freq, max_freq + 1), repeat=q)]
    values = 4.0 * math.pi**2 * np.array(norms, dtype=float)
    return np.sort(np.tile(values, comb(q, degree)))


def torus_betti(q: int) -> list[int]:
    return [comb(q, k) for k in range(q + 1)]


SPHERE_BETTI = [1, 0, 1]
CIRCLE_BETTI = [1, 1]


def check_spectra_equal(spectra, expected_by_degree, rel_tol: float = 1e-9) -> str | None:
    """Per-degree spectra (the domain_spectra_json shape) against a reference."""
    if len(spectra) != len(expected_by_degree):
        return f"{len(spectra)} degrees, expected {len(expected_by_degree)}"
    for entry, want in zip(spectra, expected_by_degree):
        got = np.sort(np.asarray(entry["eigenvalues"], dtype=float))
        if got.shape != want.shape:
            return f"degree {entry['degree']}: {got.size} eigenvalues, expected {want.size}"
        scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
        worst = float(np.max(np.abs(got - want))) if want.size else 0.0
        if not worst <= rel_tol * scale:
            return f"degree {entry['degree']}: spectrum off by {worst:.3e}"
    return None


def sphere_face_counts(faces) -> tuple[int, int, int]:
    """(V, E, F) of a triangulated surface given by its triangles."""
    verts, edges = set(), set()
    for a, b, c in faces:
        verts.update((a, b, c))
        edges.update({tuple(sorted(e)) for e in ((a, b), (b, c), (a, c))})
    return len(verts), len(edges), len(faces)


def check_simplicial_spectra(spectra, counts, rel_tol: float = 1e-9) -> str | None:
    """Hodge spectra of a triangulated 2-sphere, checked by properties.

    trace L_0 = 2E, trace L_1 = 2E + 3F, trace L_2 = 3F (from the incidence
    counts alone); kernels have the sphere's Betti numbers; the nonzero
    spectrum of L_1 is the union of those of L_0 and L_2 (Hodge
    decomposition).
    """
    n_v, n_e, n_f = counts
    if [len(s["eigenvalues"]) for s in spectra] != [n_v, n_e, n_f]:
        return f"spectra sizes {[len(s['eigenvalues']) for s in spectra]} != {[n_v, n_e, n_f]}"
    lams = [np.sort(np.asarray(s["eigenvalues"], dtype=float)) for s in spectra]
    scale = max(float(lam.max()) for lam in lams)
    for k, (lam, trace) in enumerate(zip(lams, (2 * n_e, 2 * n_e + 3 * n_f, 3 * n_f))):
        if not abs(float(lam.sum()) - trace) <= rel_tol * trace * 10:
            return f"degree {k}: trace {lam.sum()!r} != {trace}"
    floor = 1e-9 * scale
    kernels = [int(np.sum(lam < floor)) for lam in lams]
    if kernels != SPHERE_BETTI:
        return f"harmonic dimensions {kernels} != {SPHERE_BETTI}"
    nonzero = [lam[lam >= floor] for lam in lams]
    union = np.sort(np.concatenate([nonzero[0], nonzero[2]]))
    if union.shape != nonzero[1].shape or not np.max(np.abs(union - nonzero[1])) <= rel_tol * scale * 10:
        return "nonzero L_1 spectrum is not the union of the L_0 and L_2 spectra"
    return None


def check_betti(got, expected) -> str | None:
    return None if list(got) == list(expected) else f"Betti numbers {list(got)} != {list(expected)}"


# ---------------------------------------------------------------------------
# trigonometric-basis closed forms
# ---------------------------------------------------------------------------


def label_frequencies(labels, degree: int) -> np.ndarray:
    """|2 pi m| for every basis label of one degree (the Laplacian is diagonal there)."""
    return np.array(
        [2.0 * math.pi * math.sqrt(sum(c * c for c in lbl.mode)) for lbl in labels if lbl.degree == degree]
    )


def mode_multiplier(fn, freqs: np.ndarray) -> np.ndarray:
    """fn evaluated on each distinct |2 pi m| (the reference side of f(sqrt L))."""
    uniq, inverse = np.unique(np.round(freqs, 12), return_inverse=True)
    return np.array([fn(float(w)) for w in uniq])[inverse]


def dalembert_matrix(labels, n0: int, t: float) -> np.ndarray:
    """d_t on the circle with q = 1 as a matrix from 0-forms to 1-forms.

    d_t f = t sinc(tD) df = [f(x + t) - f(x - t)] / 2: a cos mode of
    frequency w goes to -sin(w t) times the sin mode, a sin mode to
    +sin(w t) times the cos mode.
    """
    scalar = [lbl for lbl in labels if lbl.degree == 0][:n0]
    index = {(lbl.phase, lbl.mode): i for i, lbl in enumerate(scalar)}
    mat = np.zeros((n0, n0))
    for i, lbl in enumerate(scalar):
        if lbl.phase == "const":
            continue
        s = math.sin(2.0 * math.pi * lbl.mode[0] * t)
        if lbl.phase == "cos":
            mat[index[("sin", lbl.mode)], i] = -s
        else:
            mat[index[("cos", lbl.mode)], i] = s
    return mat


def check_vector(got, want, rel_tol: float, what: str) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    scale = max(float(np.linalg.norm(want)), 1e-300)
    if not err <= rel_tol * scale:
        return f"{what}: off by {err:.3e} (reference norm {scale:.3e})"
    return None


# ---------------------------------------------------------------------------
# geometry closed forms
# ---------------------------------------------------------------------------


def front_length_exact(model: str, t: float) -> float:
    """Length of the radius-t geodesic circle on the unit model surfaces."""
    return {"sphere": 2 * math.pi * math.sin(t), "hyperbolic": 2 * math.pi * math.sinh(t), "flat": 2 * math.pi * t}[model]


def r2d2_exact(model: str, h: float) -> float:
    """(2 |W_h| - |W_2h|) / (2 pi h^3) with the exact front lengths."""
    return (2 * front_length_exact(model, h) - front_length_exact(model, 2 * h)) / (2 * math.pi * h**3)


def stokes_polygon(t: float, n_theta: int) -> float:
    """Trapezoid value of the (-y, x) line integral on the inscribed n-gon: twice its area."""
    return n_theta * t * t * math.sin(2.0 * math.pi / n_theta)
