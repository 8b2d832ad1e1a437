"""Domain builders: gradings, spectra, complexes, JSON interfaces."""

import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from besselwave import specops
from besselwave.domains import (
    SIZE_CAP_BYTES,
    ComplexClosureError,
    DomainSizeError,
    SimplicialComplex,
    build_circle_domain,
    build_simplicial_domain,
    build_torus_domain,
    domain_spectra_json,
    spectrum_by_degree,
)

from _oracles import dense_laplacian, exact_rank, jacobi_eigh, label_d_blocks, per_degree_eigh_domain


def harmonic_count(domain, degree, tol=1e-9):
    return int(np.sum(np.abs(spectrum_by_degree(domain, degree)) < tol))


OCTAHEDRON = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
              [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]

# The 6-vertex real projective plane: over the reals its Betti numbers are (1, 0, 0).
RP2 = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
       [1, 2, 4], [2, 3, 5], [3, 4, 1], [4, 5, 2], [5, 1, 3]]


def stellar_sphere(seed: int, subdivisions: int) -> list[list[int]]:
    """The octahedron after random stellar subdivisions of faces: a triangulated 2-sphere."""
    rng, faces = np.random.default_rng(seed), [list(f) for f in OCTAHEDRON]
    for v in range(6, 6 + subdivisions):
        a, b, c = faces.pop(int(rng.integers(len(faces))))
        faces += [[a, b, v], [b, c, v], [a, c, v]]
    return faces


def torus_faces(n: int) -> list[list[int]]:
    """The n x n grid on the flat torus, each square cut into two triangles."""
    v = [[(i % n) * n + j % n for j in range(n + 1)] for i in range(n + 1)]
    return [f for i in range(n) for j in range(n)
            for f in ([v[i][j], v[i + 1][j], v[i + 1][j + 1]], [v[i][j], v[i][j + 1], v[i + 1][j + 1]])]


class TestCircle:
    def test_m1_grading_and_spectrum(self):
        dom = build_circle_domain(1)
        assert dom.grading == (3, 3)
        w = 2.0 * math.pi
        expect = np.array([-w, -w, 0.0, 0.0, w, w])
        assert np.allclose(np.sort(dom.eigenvalues), expect, atol=1e-10)

    def test_m1_jacobi_oracle(self):
        dom = build_circle_domain(1)
        evals, _ = jacobi_eigh(dom.dirac)
        assert np.allclose(np.sort(dom.eigenvalues), evals, atol=1e-10)

    def test_kernel_dimension(self):
        for m in (1, 3, 8):
            dom = build_circle_domain(m)
            assert int(np.sum(np.abs(dom.eigenvalues) < 1e-9)) == 2

    def test_d_squared_is_laplacian(self, rng):
        dom = build_circle_domain(2)
        u = rng.standard_normal(dom.total_dim)
        dd = dom.dirac @ (dom.dirac @ u)
        for k in range(dom.top_degree + 1):
            block = dom.degree_slice(k)
            assert np.linalg.norm(dd[block] - dense_laplacian(dom, k) @ u[block]) < 1e-12

    def test_eigen_residual(self, circle8):
        res = circle8.dirac @ circle8.eigenvectors - circle8.eigenvectors * circle8.eigenvalues
        assert np.linalg.norm(res, axis=0).max() < 1e-10

    def test_bad_max_freq(self):
        with pytest.raises(ValueError):
            build_circle_domain(0)


class TestTorus:
    def test_d_o_d_zero(self, torus2):
        comp = torus2.d_blocks[1] @ torus2.d_blocks[0]
        assert np.abs(comp).max() < 1e-13

    def test_betti_natural(self, torus2):
        assert [harmonic_count(torus2, k) for k in range(3)] == [1, 2, 1]

    def test_mode_block_eigenvalue(self, torus3):
        idx = next(
            i
            for i, lbl in enumerate(torus3.labels)
            if lbl.degree == 0 and lbl.phase == "cos" and lbl.mode == (1, 0, 0)
        )
        v = np.zeros(torus3.grading[0])
        v[idx] = 1.0
        out = dense_laplacian(torus3, 0) @ v
        assert np.abs(out - 4.0 * math.pi**2 * v).max() < 1e-10

    def test_laplacian_block_diagonal_per_mode(self, torus2):
        lap = torus2.dirac @ torus2.dirac
        for i, lbl in enumerate(torus2.labels):
            lam = 4.0 * math.pi**2 * sum(m * m for m in lbl.mode)
            col = lap[:, i]
            expect = np.zeros_like(col)
            expect[i] = lam
            assert np.abs(col - expect).max() < 1e-10
        for k in range(torus2.top_degree + 1):
            block = torus2.degree_slice(k)
            assert np.abs(dense_laplacian(torus2, k) - lap[block, block]).max() < 1e-10

    def test_byte_cap(self):
        # torus3 at max_freq 40 has 265721 mode blocks of 16 x 16 doubles; torus8 at 1 has 3281 of 512 x 512.
        # Each is charged twice, for the wave orbit's D_h and its symmetric sum.
        for q, max_freq, nbytes in ((3, 40, 16 * 265721 * 16**2), (8, 1, 16 * 3281 * 512**2)):
            with pytest.raises(DomainSizeError) as err:
                build_torus_domain(q, max_freq)
            assert f"needs {nbytes} bytes" in str(err.value)
            assert f"cap of {SIZE_CAP_BYTES} bytes" in str(err.value)

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_torus_domain(0, 2)

    @pytest.mark.parametrize("q, max_freq", [(1, 4), (2, 3), (3, 2), (4, 1), (5, 1)])
    def test_d_blocks_match_the_labels(self, q, max_freq):
        # the per-mode pieces, scattered, against d assembled entry by entry from the basis labels
        dom = build_torus_domain(q, max_freq)
        assert dom.grading == tuple(math.comb(q, k) * (2 * max_freq + 1) ** q for k in range(q + 1))
        for got, want in zip(dom.d_blocks, label_d_blocks(dom), strict=True):
            assert got.tobytes() == want.tobytes()


class TestTrigEigenpairs:
    """The spectrum a trig domain knows by construction, against each assembled L_k."""

    @pytest.mark.parametrize("build", [lambda: build_circle_domain(8), lambda: build_torus_domain(2, 3),
                                       lambda: build_torus_domain(3, 2)], ids=["circle8", "torus2-3", "torus3-2"])
    def test_against_eigh(self, build):
        dom = build()
        for k in range(dom.top_degree + 1):
            lap = dense_laplacian(dom, k)
            mu = dom.laplacian_spectrum(k)
            scale = max(1.0, float(mu.max()))
            assert np.abs(np.diag(lap) - mu).max() <= 1e-12 * scale
            assert np.abs(lap - np.diag(np.diag(lap))).max() == 0.0
            assert not mu.flags.writeable

    def test_no_square_spectral_array(self):
        build_torus_domain(3, 2)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            dom = build_torus_domain(3, 2)
            for k in range(dom.top_degree + 1):
                spectrum_by_degree(dom, k)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 1.1 * sum(d.nbytes for d in dom.d_blocks)


class TestSimplicial:
    def test_triangle_boundary(self):
        sc = SimplicialComplex.from_maximal([[0, 1], [1, 2], [0, 2]])
        dom = build_simplicial_domain(sc)
        assert [harmonic_count(dom, k) for k in range(2)] == [1, 1]

    def test_filled_triangle(self):
        sc = SimplicialComplex.from_maximal([[0, 1, 2]])
        dom = build_simplicial_domain(sc)
        assert [harmonic_count(dom, k) for k in range(3)] == [1, 0, 0]

    def test_octahedron_with_rank_oracle(self):
        sc = SimplicialComplex.from_maximal(OCTAHEDRON)
        dom = build_simplicial_domain(sc)
        spectral = [harmonic_count(dom, k) for k in range(3)]
        d0, d1 = sc.incidence(0), sc.incidence(1)
        r0, r1 = exact_rank(d0), exact_rank(d1)
        counts = sc.counts()
        betti_rank = [counts[0] - r0, counts[1] - r0 - r1, counts[2] - r1]
        assert spectral == betti_rank == [1, 0, 1]

    @pytest.mark.parametrize("faces, betti", [(OCTAHEDRON, [1, 0, 1]), (stellar_sphere(7, 90), [1, 0, 1]),
                                              (torus_faces(6), [1, 2, 1])], ids=["octahedron", "sphere", "torus"])
    def test_spectra_hold_betti_exact_zeros_and_nothing_negative(self, faces, betti):
        # eigh leaves +-1e-16 where L_k has a zero; the builder writes those as 0.0
        dom = build_simplicial_domain(SimplicialComplex.from_maximal(faces))
        for k, b in enumerate(betti):
            mu = dom.laplacian_spectrum(k)
            assert mu.min() >= 0.0
            assert int(np.sum(mu == 0.0)) == b, k

    def test_rp2_betti_over_the_reals(self):
        dom = build_simplicial_domain(SimplicialComplex.from_maximal(RP2))
        assert dom.grading == (6, 15, 10)
        assert [int(np.sum(dom.laplacian_spectrum(k) == 0.0)) for k in range(3)] == [1, 0, 0]

    def test_size_cap_refuses_before_allocating(self, monkeypatch):
        # The 100 x 100 torus has (10000, 30000, 20000) simplices; its 30000 x 30000 W_1 alone is 7.2 GB.
        sc = SimplicialComplex.from_maximal(torus_faces(100))

        def no_array(*args, **kwargs):
            raise AssertionError("the builder allocated")

        monkeypatch.setattr(np, "zeros", no_array)
        monkeypatch.setattr(SimplicialComplex, "incidence", no_array)
        start = time.perf_counter()
        with pytest.raises(DomainSizeError) as err:
            build_simplicial_domain(sc)
        assert time.perf_counter() - start < 0.5
        nbytes = 8 * (10000 * 30000 + 30000 * 20000 + 10000**2 + 20000**2 + 10000**2 + 30000**2 + 20000**2)
        assert f"needs {nbytes} bytes" in str(err.value)
        assert f"cap of {SIZE_CAP_BYTES} bytes" in str(err.value)

    def test_size_cap_admits_the_32_by_32_torus(self, monkeypatch):
        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(SimplicialComplex, "incidence", admitted)
        with pytest.raises(Admitted):
            build_simplicial_domain(SimplicialComplex.from_maximal(torus_faces(32)))

    def test_wave_orbit_holds_its_charge(self):
        # The 16 x 16 torus has N = 1536, so its one block of D_h is charged 16 N^2 bytes.
        dom = build_simplicial_domain(SimplicialComplex.from_maximal(torus_faces(16)))
        profile = specops._deformed_values(dom, 0.3)[1]
        specops._block_dirac(dom, profile)  # warm imports and caches outside the trace
        tracemalloc.start()
        try:
            specops._block_dirac(dom, profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dom.total_dim == 1536
        assert peak <= 1.05 * 16 * dom.total_dim**2

    def test_boundary_of_boundary_integer(self):
        faces = [[0, 1, 2], [1, 2, 3]]
        sc = SimplicialComplex.from_maximal(faces)
        comp = sc.incidence(1) @ sc.incidence(0)
        assert np.abs(comp).max() == 0.0

    def test_closure_error_names_face(self):
        with pytest.raises(ComplexClosureError) as err:
            SimplicialComplex([[0], [1], [2], [3], [0, 1], [2, 3], [0, 1, 2]])
        assert "(0, 2)" in str(err.value) or "(1, 2)" in str(err.value)

    def test_json_roundtrip(self, tmp_path):
        sc = SimplicialComplex.from_maximal([[0, 1, 2]])
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(sc.to_json()))
        again = SimplicialComplex.from_json(str(path))
        assert again.counts() == sc.counts()

    def test_json_requires_key(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_json({"cells": [[0]]})

    @pytest.mark.parametrize("source", ['{"simplices": 5}', '{"simplices": [1, 2]}'])
    def test_json_simplices_must_be_vertex_lists(self, source):
        with pytest.raises(ValueError, match="list of vertex lists"):
            SimplicialComplex.from_json(source)

    @pytest.mark.parametrize("simplices, bad", [
        ([[0], [1], [2], [0, 1], [1, 2], [0, 2.7], [2.2]], "2.7"),
        ([[True]], "True"),
        ([[0], [1], [0, "1"]], "'1'"),
        ([[0], [1.0]], "1.0"),
    ])
    def test_vertex_ids_must_be_integers(self, simplices, bad):
        # int() truncated 2.7 to 2 and built a different complex; True became vertex 1
        with pytest.raises(ValueError, match=re.escape(f"vertex ids must be integers, got {bad}")):
            SimplicialComplex(simplices)
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            SimplicialComplex.from_maximal(simplices)

    def test_numpy_integer_vertex_ids_pass(self):
        ids = np.arange(3)
        sc = SimplicialComplex.from_maximal([[ids[0], ids[1], ids[2]]])
        assert sc.counts() == (3, 3, 1)
        assert all(type(v) is int for layer in sc.by_dim for s in layer for v in s)


class TestHodgeSplit:
    """The Hodge-split builder against one dense eigh of every L_k (tests/_oracles.per_degree_eigh_domain)."""

    @staticmethod
    def rel(got, want) -> float:
        return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))

    @pytest.mark.parametrize("faces", [OCTAHEDRON, RP2, stellar_sphere(7, 90), torus_faces(6), torus_faces(12)],
                             ids=["octahedron", "rp2", "sphere", "torus6", "torus12"])
    def test_agrees_with_the_per_degree_eigh_oracle(self, faces, rng):
        sc = SimplicialComplex.from_maximal(faces)
        got, want = build_simplicial_domain(sc), per_degree_eigh_domain(sc)
        assert got.grading == want.grading
        for k in range(got.top_degree + 1):
            mu, ref = spectrum_by_degree(got, k), spectrum_by_degree(want, k)
            assert np.sum(mu == 0.0) == np.sum(ref == 0.0)
            assert np.abs(mu - ref).max() <= 1e-12 * ref.max()
            assert got.stacks[0].basis[k].shape == (1, got.grading[k], int(np.sum(mu > 0.0)))

        def g(r):
            return np.cos(0.7 * r) + r * r / 50.0

        for k in range(got.top_degree + 1):
            u = got.cochain(k, rng.standard_normal(got.grading[k]))
            assert self.rel(specops.functional_calculus(got, g, u).coefficients,
                            specops.functional_calculus(want, g, u).coefficients) <= 1e-12
            for t in (0.05, 0.3, 1.7, 2.9):
                if k < got.top_degree:
                    assert self.rel(specops.deformed_d(got, t, u).coefficients,
                                    specops.deformed_d(want, t, u).coefficients) <= 1e-12, (k, t)
                if k > 0:
                    assert self.rel(specops.deformed_d_adjoint(got, t, u).coefficients,
                                    specops.deformed_d_adjoint(want, t, u).coefficients) <= 1e-12, (k, t)


class TestRootTable:
    """Every operator on a domain reads phi on one table of distinct roots, so all of them see the same bits."""

    @pytest.fixture(scope="class")
    def sphere(self):
        return build_simplicial_domain(SimplicialComplex.from_maximal(stellar_sphere(7, 90)))

    @pytest.mark.parametrize("t", [0.3, 1.7, 2.9])
    def test_deformed_d_reads_the_profile_of_d_t(self, sphere, t, rng):
        # The degree-2 roots of the sphere are a subset of the domain's; phi on that subset alone differs in
        # its last bits (Miller's start order follows the largest argument of a call).
        u = sphere.cochain(1, rng.standard_normal(sphere.grading[1]))
        want = sphere.even_apply(2, specops._deformed_values(sphere, t)[1][2], sphere.apply_d(1, u.coefficients))
        assert specops.deformed_d(sphere, t, u).coefficients.tolist() == want.tolist()

    def test_functional_calculus_runs_g_on_the_roots_of_one_degree(self, sphere, rng):
        # beta_1 = 0, so no degree-1 root is 0 and 1/r is finite there; degree 0 has the constants, at root 0.
        # The domain's table holds 0 too (degrees 0 and 2), so g must run on the roots of u's degree only.
        def inverse(r):
            return 1.0 / r if r else math.inf

        u = sphere.cochain(1, rng.standard_normal(sphere.grading[1]))
        back = specops.functional_calculus(sphere, lambda r: r, specops.functional_calculus(sphere, inverse, u))
        assert np.linalg.norm(back.coefficients - u.coefficients) <= 1e-12 * u.norm()
        with pytest.raises(ValueError, match="not finite"):
            specops.functional_calculus(sphere, inverse, sphere.cochain(0, rng.standard_normal(sphere.grading[0])))


class TestPerDegreeLaplacian:
    def test_blocks_of_dirac_squared(self, circle4, torus3):
        octa = build_simplicial_domain(SimplicialComplex.from_maximal(
            [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]))
        for dom in (circle4, torus3, octa):
            dense = dom.dirac @ dom.dirac
            for k in range(dom.top_degree + 1):
                block = dense[dom.degree_slice(k), dom.degree_slice(k)]
                assert np.abs(dense_laplacian(dom, k) - block).max() <= 1e-12 * np.abs(dense).max()
                assert np.allclose(spectrum_by_degree(dom, k), np.linalg.eigvalsh(block),
                                   rtol=0, atol=1e-10 * np.abs(dense).max())

    def test_degree_out_of_range(self, circle4):
        with pytest.raises(ValueError):
            circle4.laplacian_spectrum(2)


class TestBlockOperators:
    """apply_d, apply_d_adjoint and even_apply act stack by stack; the dense views are their oracle."""

    @pytest.fixture(scope="class")
    def domains(self, circle4, torus3):
        octa = build_simplicial_domain(SimplicialComplex.from_maximal(
            [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]))
        return [circle4, torus3, octa, build_torus_domain(4, 1)]

    def test_apply_d_and_adjoint_against_dense(self, domains, rng):
        for dom in domains:
            for k, d in enumerate(dom.d_blocks):
                x = rng.standard_normal(dom.grading[k])
                y = rng.standard_normal((dom.grading[k + 1], 3))
                assert np.abs(dom.apply_d(k, x) - d @ x).max() <= 1e-12 * np.abs(d).max() * np.abs(x).max()
                assert np.abs(dom.apply_d_adjoint(k, y) - d.T @ y).max() <= 1e-12 * np.abs(d).max() * np.abs(y).max()

    def test_even_apply_against_dense_laplacian(self, domains, rng):
        for dom in domains:
            for k in range(dom.top_degree + 1):
                x = rng.standard_normal((dom.grading[k], 2))
                want = dense_laplacian(dom, k) @ x
                got = dom.even_apply(k, dom.laplacian_spectrum(k), x)
                assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_degree_out_of_range(self, circle4):
        x = np.zeros(circle4.grading[0])
        for k in (-1, 1, 2):
            with pytest.raises(ValueError):
                circle4.apply_d(k, x)
            with pytest.raises(ValueError):
                circle4.apply_d_adjoint(k, x)
        with pytest.raises(ValueError, match="needs 9 rows"):
            circle4.apply_d(0, np.zeros(8))


class TestSpectraExport:
    def test_schema(self, circle4):
        payload = domain_spectra_json(circle4)
        assert [entry["degree"] for entry in payload] == [0, 1]
        assert all(len(entry["eigenvalues"]) == circle4.grading[k]
                   for k, entry in enumerate(payload))

    def test_cochain_validation(self, circle4):
        with pytest.raises(ValueError):
            circle4.cochain(0, np.zeros(circle4.grading[0] + 1))

    def test_cochain_degree_out_of_range(self, circle4):
        # a negative degree must not index the grading from its end
        for k in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                circle4.cochain(k, np.zeros(circle4.grading[0]))
            with pytest.raises(ValueError, match="out of range"):
                circle4.zero_cochain(k)
            with pytest.raises(ValueError, match="out of range"):
                circle4.laplacian_spectrum(k)
