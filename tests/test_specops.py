"""Functional calculus, bounded derivative, Betti counting, symmetries, wave map."""

import math
import tracemalloc

import numpy as np
import pytest

from besselwave import besselfn, specops
from besselwave.domains import (
    Cochain,
    DomainSizeError,
    SimplicialComplex,
    build_circle_domain,
    build_simplicial_domain,
    build_torus_domain,
    domain_spectra_json,
)
from besselwave.specops import (
    SpectralGapError,
    SymmetryPreconditionError,
    WaveMapNormError,
    betti,
    betti_numbers,
    deformed_d,
    deformed_d_adjoint,
    deformed_dirac_norm,
    discrete_wave_orbit,
    functional_calculus,
    symmetry_commutator,
    torus_quarter_turn,
    torus_translation,
)
from besselwave.domains import torus_pullback

from _oracles import DenseDiracOracle, block_identity, decay_envelope, dense_symmetry, embed, label_pullback


OCTAHEDRON = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
              [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]


def dense_unitary(dom, symmetry):
    """The N x N matrix of a symmetry given block by block."""
    out = np.zeros((dom.total_dim, dom.total_dim))
    for k, blk in enumerate(dense_symmetry(dom, symmetry)):
        out[dom.degree_slice(k), dom.degree_slice(k)] = blk
    return out


def random_block_orthogonal(dom, rng, shuffle=False):
    """Random orthogonal matrices per block and degree; with shuffle, each stack's blocks also change places."""
    maps = []
    for s in dom.stacks:
        n_blocks = len(s.index[0])
        image = rng.permutation(n_blocks) if shuffle else np.arange(n_blocks)
        maps.append((image, [np.linalg.qr(rng.standard_normal(i.shape + i.shape[1:]))[0] for i in s.index]))
    return maps


def deformed_dirac_apply(dom, t, v):
    """D_t v = d_t v + d_t^* v, one degree at a time."""
    out = np.zeros(dom.total_dim)
    for k in range(dom.top_degree + 1):
        c = dom.cochain(k, v[dom.degree_slice(k)])
        if k < dom.top_degree:
            out[dom.degree_slice(k + 1)] += deformed_d(dom, t, c).coefficients
        if k > 0:
            out[dom.degree_slice(k - 1)] += deformed_d_adjoint(dom, t, c).coefficients
    return out


class TestFunctionalCalculus:
    def test_square_gives_laplacian(self, rng):
        dom = build_circle_domain(2)
        u = dom.cochain(0, rng.standard_normal(dom.grading[0]))
        out = functional_calculus(dom, lambda x: x * x, u)
        assert out.degree == 0
        full = dom.dirac @ dom.dirac @ embed(dom, u)
        assert np.linalg.norm(embed(dom, out) - full) < 1e-10

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="needs 9 rows"):
            functional_calculus(build_circle_domain(4), math.cos, Cochain(0, [1.0]))

    def test_one_evaluation_per_distinct_abs_eigenvalue(self, torus2, rng):
        calls = []

        def g(r):
            calls.append(r)
            return math.cos(r)

        functional_calculus(torus2, g, torus2.cochain(1, rng.standard_normal(torus2.grading[1])))
        assert sorted(calls) == list(np.unique(np.sqrt(torus2.laplacian_spectrum(1))))

    def test_cos_mode_closed_form(self, circle4):
        t = 0.4
        idx = next(i for i, l in enumerate(circle4.labels)
                   if l.degree == 0 and l.phase == "sin" and l.mode == (2,))
        u = circle4.zero_cochain(0)
        coeffs = np.array(u.coefficients)
        coeffs[idx] = 1.0
        out = functional_calculus(circle4, lambda lam: math.cos(t * lam), circle4.cochain(0, coeffs))
        expect = math.cos(2.0 * math.pi * 2 * t) * coeffs
        assert np.abs(out.coefficients - expect).max() < 1e-12


class TestDeformedD:
    def test_dalembert_mode(self, circle4):
        t = 0.3
        idx = next(i for i, l in enumerate(circle4.labels)
                   if l.degree == 0 and l.phase == "sin" and l.mode == (1,))
        coeffs = np.zeros(circle4.grading[0])
        coeffs[idx] = 1.0
        out = deformed_d(circle4, t, circle4.cochain(0, coeffs))
        expect = np.zeros(circle4.grading[1])
        cos_idx = next(i for i, l in enumerate(circle4.labels)
                       if l.degree == 1 and l.phase == "cos" and l.mode == (1,))
        expect[cos_idx - circle4.offsets[1]] = math.sin(2.0 * math.pi * t)
        assert np.abs(out.coefficients - expect).max() < 1e-12

    def test_zero_time(self, circle4, rng):
        u = circle4.cochain(0, rng.standard_normal(circle4.grading[0]))
        assert deformed_d(circle4, 0.0, u).norm() == 0.0

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_is_a_value_error(self, circle4, t):
        # t * 0 would reach the profile as NaN; the parameter is refused before any multiply
        u = circle4.cochain(0, np.ones(circle4.grading[0]))
        state = np.zeros(circle4.total_dim)
        for call in (lambda: deformed_d(circle4, t, u), lambda: betti_numbers(circle4, t),
                     lambda: discrete_wave_orbit(circle4, t, state, state, 1)):
            with pytest.raises(ValueError, match=f"deformation parameter t must be finite, got {t}"):
                call()

    def test_harmonic_stays_zero(self, circle4):
        const = np.zeros(circle4.grading[0])
        const[0] = 1.0  # the constant 0-form spans the harmonic kernel
        for t in (0.1, 0.9, 2.5):
            assert deformed_d(circle4, t, circle4.cochain(0, const)).norm() < 1e-13

    def test_degree_below_zero_rejected(self, circle4, rng):
        # a degree -1 cochain must not reach d_{top-1} through negative indexing
        x = rng.standard_normal(circle4.grading[-1])
        with pytest.raises(ValueError):
            deformed_d(circle4, 0.5, Cochain(-1, x))
        with pytest.raises(ValueError):
            deformed_d_adjoint(circle4, 0.5, Cochain(2, x))

    def test_top_degree_rejected(self, circle4, rng):
        w = circle4.cochain(1, rng.standard_normal(circle4.grading[1]))
        with pytest.raises(ValueError):
            deformed_d(circle4, 0.5, w)

    def test_squared_zero(self, torus2, rng):
        u = torus2.cochain(0, rng.standard_normal(torus2.grading[0]))
        for t in (0.1, 0.7, 2.5):
            w = deformed_d(torus2, t, u)
            assert deformed_d(torus2, t, w).norm() < 1e-10

    def test_squared_zero_simplicial(self, rng):
        sc = SimplicialComplex.from_maximal([[0, 1, 2], [1, 2, 3], [2, 3, 4]])
        dom = build_simplicial_domain(sc)
        u = dom.cochain(0, rng.standard_normal(dom.grading[0]))
        for t in (0.1, 0.7, 2.5):
            w = deformed_d(dom, t, u)
            assert deformed_d(dom, t, w).norm() < 1e-10

    def test_small_t_limit_quadratic(self, rng):
        dom = build_circle_domain(2)
        u = dom.cochain(0, rng.standard_normal(dom.grading[0]))
        du = dom.d_blocks[0] @ u.coefficients
        ratios = []
        for t in (1e-1, 1e-2, 1e-3):
            diff = deformed_d(dom, t, u).coefficients / t - du
            ratios.append(np.linalg.norm(diff) / t**2)
        assert max(ratios) / min(ratios) < 1.25

    def test_adjoint_consistency(self, circle4, torus2, rng):
        for dom in (circle4, torus2):
            u = dom.cochain(0, rng.standard_normal(dom.grading[0]))
            w = dom.cochain(1, rng.standard_normal(dom.grading[1]))
            lhs = float(deformed_d(dom, 0.6, u).coefficients @ w.coefficients)
            rhs = float(u.coefficients @ deformed_d_adjoint(dom, 0.6, w).coefficients)
            assert abs(lhs - rhs) < 1e-10


class TestDeformedDirac:
    def test_half_period_vanishes(self, circle4):
        assert deformed_dirac_norm(circle4, 0.5) < 1e-12

    def test_zero_time(self, circle4):
        assert deformed_dirac_norm(circle4, 0.0) == 0.0

    def test_norm_against_dense(self, circle4, torus2):
        for dom in (circle4, torus2):
            oracle = DenseDiracOracle(dom)
            for t in (0.17, 0.8):
                dense = np.linalg.norm(oracle.deformed_dirac(t, dom.q + 2), 2)
                assert deformed_dirac_norm(dom, t) == pytest.approx(dense, abs=1e-10)

    @pytest.mark.parametrize("t", [0.3, 1.7])
    def test_maxima_read_off_the_root_table(self, circle4, torus2, torus3, t):
        # the root table holds every root of every degree, so its maximum is the one over the gathered degrees
        octahedron = build_simplicial_domain(SimplicialComplex.from_maximal(OCTAHEDRON))
        for dom in (circle4, torus2, torus3, octahedron):
            table, _, index = specops._deformed_table(dom, t)
            psi = [table[i] for i in index]
            norm = max(float(np.max(np.abs(p), initial=0.0)) for p in psi)
            assert deformed_dirac_norm(dom, t) == norm
            assert betti_numbers(dom, t) == [int(np.sum(p**2 < 1e-8 * norm**2)) for p in psi]

    def test_one_profile_call_per_request(self, torus3, monkeypatch):
        # psi and t phi of every degree come from one _profile call, one phi_array call on the distinct t r
        t, n = 0.3, torus3.q + 2
        profile, phi_array = specops._profile, besselfn.phi_array
        orders, calls = [], []
        monkeypatch.setattr(specops, "_profile", lambda *a: orders.append(a[0]) or profile(*a))
        monkeypatch.setattr(besselfn, "phi_array", lambda *a: calls.append(a) or phi_array(*a))
        psi, even, index = specops._deformed_table(torus3, t)
        roots = [np.sqrt(torus3.laplacian_spectrum(k)) for k in range(torus3.top_degree + 1)]
        assert orders == [n]
        assert len(calls) == 1 and calls[0][0] == n
        assert calls[0][1].tolist() == sorted({t * float(r) for r in np.concatenate(roots)})
        monkeypatch.undo()
        for r, i in zip(roots, index):
            x, a, g = t * r, psi[i], even[i]
            values = besselfn.phi_array(n, x)
            assert a.tolist() == (x * values).tolist()
            assert g.tolist() == (t * values).tolist()
            exact = [besselfn.phi(n, v) for v in x.tolist()]
            assert all(abs(v - e) <= 1e-12 * decay_envelope(n, s) for v, e, s in zip(values, exact, x.tolist()))

    def test_eigenvector_preservation(self, torus2):
        t = 0.8
        dense = DenseDiracOracle(torus2).deformed_dirac(t, torus2.q + 2)
        for j in range(0, torus2.total_dim, 17):
            v = torus2.eigenvectors[:, j]
            lam = torus2.eigenvalues[j]
            expect = besselfn.psi(torus2.q + 2, t * lam)
            got = deformed_dirac_apply(torus2, t, v)
            assert np.linalg.norm(got - dense @ v) <= 1e-12 * np.linalg.norm(dense)
            assert np.linalg.norm(got - expect * v) < 1e-9


class TestBetti:
    def test_circle_irrational(self, circle8):
        t = 1.0 / math.sqrt(5.0)
        assert betti(circle8, t, 0) == 1
        assert betti(circle8, t, 1) == 1

    def test_circle_half_everything_harmonic(self, circle8):
        for k in (0, 1):
            assert betti(circle8, 0.5, k) == circle8.grading[k]

    def test_circle_quarter_even_modes(self, circle8):
        # extra kernel exactly at even frequencies: sin(pi k / 2) = 0
        extra = sum(1 for k in range(1, 9) if k % 2 == 0)
        expect = 1 + 2 * extra
        assert betti(circle8, 0.25, 0) == expect
        assert betti(circle8, 0.25, 1) == expect

    def test_torus(self, torus2):
        t = 1.0 / math.sqrt(7.0)
        assert [betti(torus2, t, k) for k in range(3)] == [1, 2, 1]

    def test_degree_out_of_range(self):
        circle3 = build_circle_domain(3)
        for k in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                betti(circle3, 0.3, k)

    def test_nonpositive_tol_rejected(self, circle8):
        for t in (0.5, 0.0):  # the whole deformed spectrum vanishes at both
            for tol in (-1.0, 0.0):
                with pytest.raises(ValueError, match="tol must be positive"):
                    betti(circle8, t, 0, tol=tol)
                with pytest.raises(ValueError, match="tol must be positive"):
                    betti_numbers(circle8, t, tol=tol)

    def test_gap_error(self, circle8):
        # a threshold planted inside the occupied part of the spectrum
        lam = np.abs(circle8.eigenvalues)
        lam = lam[lam > 1e-9]
        t = 0.05
        mid = besselfn.psi(3, t * float(np.median(lam))) ** 2
        with pytest.raises(SpectralGapError):
            betti(circle8, t, 0, tol=mid)
        with pytest.raises(SpectralGapError):
            betti_numbers(circle8, t, tol=mid)


class TestSymmetry:
    @staticmethod
    def assert_block_form(dom, symmetry):
        assert len(symmetry) == len(dom.stacks)
        for stack, (image, blocks) in zip(dom.stacks, symmetry):
            assert image.shape == stack.index[0].shape[:1]
            assert [b.shape for b in blocks] == [i.shape + i.shape[1:] for i in stack.index]

    def test_circle_translation(self, circle4):
        sym = torus_translation(circle4, [1.0 / 3.0])
        self.assert_block_form(circle4, sym)
        u = dense_unitary(circle4, sym)
        assert np.abs(u @ u.T - np.eye(circle4.total_dim)).max() < 1e-12
        for t in (0.3, 1.7):
            assert symmetry_commutator(circle4, sym, t) < 1e-10

    def test_torus_translation_and_quarter_turn(self, torus2):
        for sym in (torus_translation(torus2, (0.2, 0.45)), torus_quarter_turn(torus2)):
            self.assert_block_form(torus2, sym)
            u = dense_unitary(torus2, sym)
            assert np.abs(u @ u.T - np.eye(torus2.total_dim)).max() < 1e-12
            for t in (0.3, 1.7):
                assert symmetry_commutator(torus2, sym, t) < 1e-9

    def test_against_the_label_pullback(self, torus3):
        # the blocks written vectorized over modes against the entry-by-entry pullback of the basis labels
        cases = [(build_torus_domain(2, 3), (1, 0), (-1, 1), (0.0, 0.0)),
                 (build_torus_domain(2, 3), (0, 1), (1, 1), (0.2, 0.45)),
                 (torus3, (2, 0, 1), (1, -1, -1), (0.37, -0.1, 0.6)),
                 (build_torus_domain(4, 1), (3, 1, 0, 2), (-1, 1, 1, -1), (0.1, 0.2, 0.3, 0.4))]
        for dom, axes, signs, shift in cases:
            got = dense_symmetry(dom, torus_pullback(dom, axes, signs, shift))
            # the angles 2 pi m.shift are summed in another order, so they agree to a few ulp of their size
            angle = 2.0 * math.pi * int(np.abs(dom.stacks[-1].modes).max()) * float(np.sum(np.abs(shift)))
            for a, b in zip(got, label_pullback(dom, axes, signs, shift), strict=True):
                assert np.abs(a - b).max() <= 4 * np.finfo(float).eps * max(1.0, angle)

    def test_quarter_turn_has_order_four(self):
        dom = build_torus_domain(2, 3)
        turn = dense_unitary(dom, torus_quarter_turn(dom))
        assert np.array_equal(np.linalg.matrix_power(turn, 4), np.eye(turn.shape[0]))

    def test_translations_compose(self, torus3):
        for dom, a, b in ((build_torus_domain(2, 3), (0.2, 0.45), (0.37, -0.1)),
                          (torus3, (0.2, 0.45, 0.05), (0.37, -0.1, 0.6))):
            ab = dense_unitary(dom, torus_translation(dom, a)) @ dense_unitary(dom, torus_translation(dom, b))
            assert np.abs(ab - dense_unitary(dom, torus_translation(dom, np.add(a, b)))).max() <= 1e-12

    @pytest.mark.parametrize("shift", [[0.1], 0.1, [math.nan, 0.2], [0.1, math.inf], [0.1, 0.2, 0.3]])
    def test_shift_is_q_finite_numbers(self, torus2, shift):
        with pytest.raises(ValueError, match="shift must be 2 finite numbers"):
            torus_translation(torus2, shift)

    def test_scalar_shift_on_the_circle(self, circle4):
        by_scalar, by_list = (dense_unitary(circle4, torus_translation(circle4, s)) for s in (0.25, [0.25]))
        assert np.array_equal(by_scalar, by_list)

    def test_identity(self, circle4):
        assert symmetry_commutator(circle4, block_identity(circle4), 0.7) == 0.0

    def test_unitary_of_the_wrong_shape_rejected(self, circle4):
        (image0, blocks0), (image1, blocks1) = block_identity(circle4)
        n = circle4.total_dim
        for bad in ([np.eye(n)], [np.eye(n0) for n0 in circle4.grading], [(image0, blocks0)],
                    [(image0, blocks0), (image1, blocks1[:1])],
                    [(image0, blocks0), (image1, [blocks1[0], blocks1[1][:, :, :-1]])],
                    [(image0, blocks0), (image1[::-1][1:], blocks1)],
                    [(image0, blocks0), (np.zeros_like(image1), blocks1)]):
            with pytest.raises(ValueError):
                symmetry_commutator(circle4, bad, 0.3)
        with pytest.raises(ValueError, match="one block map per stack"):
            symmetry_commutator(circle4, [(image0, blocks0), (np.zeros_like(image1), blocks1)], 0.3)

    def test_no_pullback_off_a_torus(self, circle4):
        octa = build_simplicial_domain(SimplicialComplex.from_maximal(OCTAHEDRON))
        for dom, axes, signs in ((octa, (0, 1), (1, 1)), (circle4, (0, 1), (1, 1)), (circle4, (0,), (2,))):
            with pytest.raises(ValueError):
                torus_pullback(dom, axes, signs, [0.1] * len(axes))

    def test_precondition_failure_reports_measure(self, circle4, rng):
        with pytest.raises(SymmetryPreconditionError) as err:
            symmetry_commutator(circle4, random_block_orthogonal(circle4, rng), 0.5)
        assert err.value.measured > 1e-10

    def test_no_full_size_unitary(self, torus3):
        # torus3 at max_freq 2 has N = 1000 in 63 blocks of at most 16 x 16.
        n = torus3.total_dim
        sym = torus_translation(torus3, (0.2, 0.45, 0.05))  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            worst = symmetry_commutator(torus3, torus_translation(torus3, (0.2, 0.45, 0.05)), 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 1000 and worst < 1e-9 and sym
        assert peak < n * n * 8 / 10


class TestHigherTori:
    """The paper's d_t in four and five dimensions."""

    @pytest.fixture(scope="class", params=[(4, 1), (4, 2), (5, 1)], ids=["torus4-1", "torus4-2", "torus5-1"])
    def dom(self, request):
        return build_torus_domain(*request.param)

    def test_deformed_d_squared_zero(self, dom, rng):
        for k in range(dom.top_degree - 1):
            u = dom.cochain(k, rng.standard_normal(dom.grading[k]))
            for t in (0.3, 1.1):
                w = deformed_d(dom, t, u)
                assert deformed_d(dom, t, w).norm() <= 1e-12 * max(1.0, w.norm())

    def test_translation_commutes(self, dom):
        for t in (0.3, 1.7):
            assert symmetry_commutator(dom, torus_translation(dom, [0.3] * dom.q), t) <= 1e-10

    def test_betti_binomial(self, dom):
        assert betti_numbers(dom, 1.0 / math.sqrt(7.0)) == [math.comb(dom.q, k) for k in range(dom.q + 1)]


def test_torus4_norm_against_dense():
    dom = build_torus_domain(4, 1)
    oracle = DenseDiracOracle(dom)
    assert dom.total_dim == 1296
    for t in (0.17, 1.0 / math.sqrt(7.0), 0.8):
        want = float(np.max(np.abs(oracle.psi(t, dom.q + 2))))
        assert deformed_dirac_norm(dom, t) == pytest.approx(want, rel=1e-12)


class TestDiscreteWaveMap:
    def test_zero_state(self, circle4):
        h = 0.01
        u, v = discrete_wave_orbit(circle4, h, np.zeros(circle4.total_dim), np.zeros(circle4.total_dim), 1)["final"]
        assert np.all(u == 0) and np.all(v == 0)

    def test_norm_precondition(self, circle4, rng):
        # sin(pi/2) = 1 at the first mode for h = 1/4
        state = rng.standard_normal(circle4.total_dim)
        with pytest.raises(WaveMapNormError) as err:
            discrete_wave_orbit(circle4, 0.25, state, state, 1)
        assert err.value.measured >= 1.0

    def test_eigenmode_ellipse_invariant(self, circle4):
        h = math.asin(0.9) / (2.0 * math.pi * 4)
        j = int(np.argmax(np.abs(circle4.eigenvalues)))
        lam = circle4.eigenvalues[j]
        a = besselfn.psi(3, h * lam)
        u, v = 0.7, -0.2
        q0 = u * u - a * u * v + v * v
        for _ in range(200):
            u, v = a * u - v, u
        assert u * u - a * u * v + v * v == pytest.approx(q0, rel=1e-12)

    def test_orbit_bounded(self, circle4, rng):
        h = math.asin(0.9) / (2.0 * math.pi * 4)
        state = rng.standard_normal(2 * circle4.total_dim)
        state /= np.linalg.norm(state)
        orbit = discrete_wave_orbit(circle4, h, state[: circle4.total_dim],
                                    state[circle4.total_dim:], 2000)
        assert orbit["dirac_norm"] == pytest.approx(0.9, abs=1e-12)
        assert orbit["max_norm"] <= orbit["bound"] * (1 + 1e-12)
        assert orbit["bound"] < 100.0

    def test_orbit_holds_no_full_size_array(self, torus3, rng):
        # D_h is held as 63 blocks of 16 x 16; the bound applies G per degree.
        n = torus3.total_dim
        h = 0.9 / math.sqrt(float(torus3.laplacian_spectrum(0).max()))
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        discrete_wave_orbit(torus3, h, u, v, 5)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            discrete_wave_orbit(torus3, h, u, v, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 1000
        assert peak < n * n * 8 / 10

    def test_torus3_request_holds_no_full_size_array(self, rng):
        # what `spectral --domain torus3 --max-freq 2 --t 0.3 --symmetry translation --wave-steps 50` computes
        def request():
            dom = build_torus_domain(3, 2)
            spectra = domain_spectra_json(dom)
            table = betti_numbers(dom, 0.3)
            commutator = symmetry_commutator(dom, torus_translation(dom, [1.0 / 3.0] * 3), 0.3)
            h = 0.9 / math.sqrt(float(dom.laplacian_spectrum(0).max()))
            orbit = discrete_wave_orbit(dom, h, state[: dom.total_dim], state[dom.total_dim:], 50)
            return dom.total_dim, spectra, table, commutator, orbit

        state = rng.standard_normal(2000)
        request()  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            n, _, table, commutator, orbit = request()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 1000 and table == [1, 3, 3, 1] and commutator < 1e-10
        assert orbit["max_norm"] <= orbit["bound"] * (1 + 1e-12)
        assert peak < n * n * 8 / 10

    def test_orbit_is_charged_before_it_allocates(self, monkeypatch):
        # The octahedron's D_h is one 26 x 26 block, charged 16 * 26^2 = 10816 bytes with its symmetric sum.
        dom = build_simplicial_domain(SimplicialComplex.from_maximal(OCTAHEDRON))
        state = np.linspace(-1.0, 1.0, dom.total_dim)

        def no_array(*args, **kwargs):
            raise AssertionError("the orbit allocated")

        with monkeypatch.context() as patch:
            patch.setattr("besselwave.domains.SIZE_CAP_BYTES", 10_815)
            patch.setattr(np, "zeros", no_array)
            with pytest.raises(DomainSizeError, match="needs 10816 bytes"):
                discrete_wave_orbit(dom, 0.1, state, state, 3)
        monkeypatch.setattr("besselwave.domains.SIZE_CAP_BYTES", 10_816)
        orbit = discrete_wave_orbit(dom, 0.1, state, state, 3)
        assert orbit["max_norm"] <= orbit["bound"] * (1 + 1e-12)

    def test_negative_steps_rejected(self, circle4):
        zero = np.zeros(circle4.total_dim)
        with pytest.raises(ValueError):
            discrete_wave_orbit(circle4, 0.01, zero, zero, -3)


class TestDenseDiracOracle:
    """Each per-degree path against the eigendecomposition of the dense N x N Dirac matrix."""

    @pytest.fixture(scope="class")
    def domains(self, circle4, torus2):
        octa = build_simplicial_domain(SimplicialComplex.from_maximal(OCTAHEDRON))
        return [(dom, DenseDiracOracle(dom)) for dom in (circle4, torus2, octa)]

    @staticmethod
    def close(got, want, rel=1e-12):
        return np.linalg.norm(np.asarray(got) - want) <= rel * np.linalg.norm(want)

    def test_functional_calculus(self, domains, rng):
        def g(r):
            return math.cos(0.7 * r) + 0.3 * besselfn.phi(4, 0.5 * r)

        for dom, oracle in domains:
            dense = oracle.even(g)
            for k in range(dom.top_degree + 1):
                u = dom.cochain(k, rng.standard_normal(dom.grading[k]))
                want = (dense @ embed(dom, u))[dom.degree_slice(k)]
                assert self.close(functional_calculus(dom, g, u).coefficients, want)

    def test_deformed_dirac_and_norm(self, domains):
        for dom, oracle in domains:
            for t in (0.17, 1.0 / math.sqrt(7.0), 0.8):
                got = np.column_stack([deformed_dirac_apply(dom, t, e) for e in np.eye(dom.total_dim)])
                assert self.close(got, oracle.deformed_dirac(t, dom.q + 2))
                want = float(np.max(np.abs(oracle.psi(t, dom.q + 2))))
                assert deformed_dirac_norm(dom, t) == pytest.approx(want, rel=1e-12)

    def test_betti(self, domains, circle8):
        for dom, oracle in domains + [(circle8, DenseDiracOracle(circle8))]:
            for t in (1.0 / math.sqrt(7.0), 0.5, 0.25):
                a = oracle.psi(t, dom.q + 2)
                lt = (oracle.vec * a**2) @ oracle.vec.T
                lt_max = float(np.max(a**2))
                table = []
                for k in range(dom.top_degree + 1):
                    block = lt[dom.degree_slice(k), dom.degree_slice(k)]
                    dense = int(np.sum(np.linalg.eigvalsh(block) < 1e-8 * lt_max))
                    if lt_max < 1e-24:
                        dense = dom.grading[k]
                    assert betti(dom, t, k) == dense
                    table.append(dense)
                assert betti_numbers(dom, t) == table

    def test_block_dirac_scatters_to_the_deformed_dirac(self, domains, torus3):
        for dom, oracle in domains + [(torus3, DenseDiracOracle(torus3))]:
            for t in (0.17, 0.8):
                _, even, index = specops._deformed_table(dom, t)
                pos, dh = specops._block_dirac(dom, specops._deformed_pieces(dom, even, index))
                full = np.zeros((dom.total_dim + 1,) * 2)  # padding lands in row and column N
                full[pos[:, :, None], pos[:, None, :]] = dh
                assert self.close(full[:-1, :-1], oracle.deformed_dirac(t, dom.q + 2))

    def test_orbit_bound(self, domains, rng):
        for dom, oracle in domains:
            h = 0.9 / float(np.max(np.abs(oracle.lam)))
            state = rng.standard_normal(2 * dom.total_dim)
            u, v = state[: dom.total_dim], state[dom.total_dim:]
            orbit = discrete_wave_orbit(dom, h, u, v, 3)
            assert orbit["bound"] == pytest.approx(oracle.orbit_bound(h, dom.q + 2, u, v), rel=1e-12)

    def test_symmetry_commutator(self, domains, rng):
        for dom, oracle in domains:
            if dom.labels is None:
                blocks = block_identity(dom)
            else:
                blocks = torus_translation(dom, [0.3] * dom.q)
            unitary = dense_unitary(dom, blocks)
            d_full = np.tril(dom.dirac, -1)
            for t in (0.3, 1.7):
                dt = oracle.even(lambda r: t * besselfn.phi(dom.q + 2, t * r)) @ d_full
                want = np.linalg.norm(unitary @ dt - dt @ unitary, 2)
                assert abs(symmetry_commutator(dom, blocks, t) - want) <= 1e-12 * np.linalg.norm(dt, 2)

    def test_precondition_is_the_full_norm(self, domains, rng):
        # A degree-preserving unitary that does not commute with d: random orthogonal blocks, shuffled.
        for dom, _ in domains:
            blocks = random_block_orthogonal(dom, rng, shuffle=True)
            unitary = dense_unitary(dom, blocks)
            d_full = np.tril(dom.dirac, -1)
            want = np.linalg.norm(unitary @ d_full - d_full @ unitary, 2)
            with pytest.raises(SymmetryPreconditionError) as err:
                symmetry_commutator(dom, blocks, 0.5)
            assert err.value.measured == pytest.approx(want, rel=1e-12)
