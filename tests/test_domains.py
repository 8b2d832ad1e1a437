"""Domain builders: gradings, spectra, complexes, JSON interfaces."""

import json
import math

import numpy as np
import pytest

from besselwave.domains import (
    ComplexClosureError,
    DomainSizeError,
    SimplicialComplex,
    build_circle_domain,
    build_simplicial_domain,
    build_torus_domain,
    domain_spectra_json,
    spectrum_by_degree,
)

from _oracles import exact_rank, jacobi_eigh


def harmonic_count(domain, degree, tol=1e-9):
    return int(np.sum(np.abs(spectrum_by_degree(domain, degree)) < tol))


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
            assert np.linalg.norm(dd[block] - dom.laplacian(k) @ u[block]) < 1e-12

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
        out = torus3.laplacian(0) @ v
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
            assert np.abs(torus2.laplacian(k) - lap[block, block]).max() < 1e-10

    def test_dimension_cap(self):
        with pytest.raises(DomainSizeError) as err:
            build_torus_domain(3, 8)
        assert "39304" in str(err.value)

    def test_q_validation(self):
        with pytest.raises(ValueError):
            build_torus_domain(4, 1)


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
        faces = [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
                 [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]
        sc = SimplicialComplex.from_maximal(faces)
        dom = build_simplicial_domain(sc)
        spectral = [harmonic_count(dom, k) for k in range(3)]
        d0, d1 = sc.incidence(0), sc.incidence(1)
        r0, r1 = exact_rank(d0), exact_rank(d1)
        counts = sc.counts()
        betti_rank = [counts[0] - r0, counts[1] - r0 - r1, counts[2] - r1]
        assert spectral == betti_rank == [1, 0, 1]

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


class TestPerDegreeLaplacian:
    def test_blocks_of_dirac_squared(self, circle4, torus3):
        octa = build_simplicial_domain(SimplicialComplex.from_maximal(
            [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 1]]))
        for dom in (circle4, torus3, octa):
            dense = dom.dirac @ dom.dirac
            for k in range(dom.top_degree + 1):
                block = dense[dom.degree_slice(k), dom.degree_slice(k)]
                assert np.abs(dom.laplacian(k) - block).max() <= 1e-12 * np.abs(dense).max()
                assert np.allclose(spectrum_by_degree(dom, k), np.linalg.eigvalsh(block),
                                   rtol=0, atol=1e-10 * np.abs(dense).max())

    def test_degree_out_of_range(self, circle4):
        with pytest.raises(ValueError):
            circle4.laplacian(2)


class TestSpectraExport:
    def test_schema(self, circle4):
        payload = domain_spectra_json(circle4)
        assert [entry["degree"] for entry in payload] == [0, 1]
        assert all(len(entry["eigenvalues"]) == circle4.grading[k]
                   for k, entry in enumerate(payload))

    def test_cochain_validation(self, circle4):
        with pytest.raises(ValueError):
            circle4.cochain(0, np.zeros(circle4.grading[0] + 1))
