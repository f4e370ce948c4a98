"""Eigendecomposition, rank, spectral norm, and the seed factors built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiradius.errors import BadConfig, NonSquare, NotHermitian, NotPSD
from semiradius.kernel import (
    hermitian_eigendecomposition,
    psd_rank,
    spectral_norm,
)
from semiradius.space import build_space

# Reconstruction and identity tolerances for small dense problems.
TOL_EIG = 1e-10

ONES2 = np.ones((2, 2))


def random_hermitian(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (M + M.conj().T)


def random_psd(seed: int, n: int, rank: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return G @ G.conj().T


class TestEigendecomposition:
    def test_ones_matrix_spectrum(self):
        # Hand value: eigenvalues of [[1,1],[1,1]] are 0 and 2, ascending.
        eig = hermitian_eigendecomposition(ONES2)
        assert np.allclose(eig.values, [0.0, 2.0], atol=TOL_EIG)

    def test_ones_matrix_eigenvectors(self):
        eig = hermitian_eigendecomposition(ONES2)
        # Columns are orthonormal and reproduce the matrix.
        assert np.allclose(eig.vectors.conj().T @ eig.vectors, np.eye(2), atol=TOL_EIG)
        recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.allclose(recon, ONES2, atol=TOL_EIG)

    def test_values_ascending(self):
        eig = hermitian_eigendecomposition(random_hermitian(3, 5))
        assert np.all(np.diff(eig.values) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigendecomposition([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NotHermitian):
            hermitian_eigendecomposition([[np.nan, 0.0], [0.0, 1.0]])

    def test_accepts_rounding_level_asymmetry(self):
        A = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
        eig = hermitian_eigendecomposition(A)
        assert eig.values.shape == (2,)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquare):
            hermitian_eigendecomposition(np.ones((2, 3)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=40)
    def test_reconstruction(self, seed, n):
        M = random_hermitian(seed, n)
        eig = hermitian_eigendecomposition(M)
        recon = (eig.vectors * eig.values) @ eig.vectors.conj().T
        scale = 1.0 + float(np.max(np.abs(M)))
        assert np.max(np.abs(recon - M)) <= TOL_EIG * scale


class TestPsdRank:
    def test_zero_matrix(self):
        eig = hermitian_eigendecomposition(np.zeros((3, 3)))
        assert psd_rank(eig.values) == 0
        assert psd_rank(np.array([])) == 0

    def test_relative_cutoff_drops_tiny_eigenvalue(self):
        eig = hermitian_eigendecomposition(np.diag([1.0, 5e-11]))
        assert psd_rank(eig.values, cutoff=1e-10) == 1

    def test_relative_cutoff_keeps_small_eigenvalue(self):
        eig = hermitian_eigendecomposition(np.diag([1.0, 2e-10]))
        assert psd_rank(eig.values, cutoff=1e-10) == 2

    @pytest.mark.parametrize("values, cutoff", [([0.5, 1.0], float("nan")), ([1e-20, 1.0], -1.0), ([0.5, 1.0], 1.0)])
    def test_rejects_cutoff_outside_unit_interval(self, values, cutoff):
        # nan once counted no eigenvalue and -1.0 every one.
        with pytest.raises(BadConfig):
            psd_rank(np.array(values), cutoff=cutoff)
        with pytest.raises(BadConfig):
            psd_rank(np.array([]), cutoff=cutoff)

    def test_rejects_indefinite(self):
        eig = hermitian_eigendecomposition(np.diag([1.0, -1e-3]))
        with pytest.raises(NotPSD):
            psd_rank(eig.values)

    def test_tolerates_negative_rounding(self):
        eig = hermitian_eigendecomposition(np.diag([1.0, -1e-12]))
        assert psd_rank(eig.values) == 1


class TestPseudoInverse:
    def test_ones_matrix(self):
        # Hand value: pinv of [[1,1],[1,1]] is the same matrix scaled by 1/4.
        assert np.allclose(build_space(ONES2).pinv, 0.25 * ONES2, atol=TOL_EIG)

    def test_identity(self):
        assert np.allclose(build_space(np.eye(3)).pinv, np.eye(3), atol=TOL_EIG)

    def test_zero(self):
        assert np.allclose(build_space(np.zeros((2, 2))).pinv, 0.0, atol=TOL_EIG)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=40)
    def test_moore_penrose_equations(self, seed, n, data):
        rank = data.draw(st.integers(0, n))
        A = random_psd(seed, n, rank)
        P = build_space(A).pinv
        scale = 1.0 + spectral_norm(A) + spectral_norm(P)
        tol = 1e-8 * scale
        assert spectral_norm(A @ P @ A - A) <= tol
        assert spectral_norm(P @ A @ P - P) <= tol
        assert spectral_norm(A @ P - (A @ P).conj().T) <= tol
        assert spectral_norm(P @ A - (P @ A).conj().T) <= tol


class TestSquareRoot:
    """The coordinate map C is an r x n square root of the seed: C* C = A."""

    def test_ones_matrix(self):
        # Hand value: C is the row [1, 1] up to a unimodular factor.
        C = build_space(ONES2).coord_map
        assert C.shape == (1, 2)
        assert np.allclose(np.abs(C), [[1.0, 1.0]], atol=TOL_EIG)
        assert np.allclose(C.conj().T @ C, ONES2, atol=TOL_EIG)

    def test_diagonal(self):
        C = build_space(np.diag([4.0, 9.0])).coord_map
        assert np.allclose(np.abs(C), [[2.0, 0.0], [0.0, 3.0]], atol=TOL_EIG)
        assert np.allclose(C.conj().T @ C, np.diag([4.0, 9.0]), atol=TOL_EIG)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=40)
    def test_square_recovers_input(self, seed, n, data):
        rank = data.draw(st.integers(0, n))
        A = random_psd(seed, n, rank)
        C = build_space(A).coord_map
        assert spectral_norm(C.conj().T @ C - A) <= 1e-9 * (1.0 + spectral_norm(A))


class TestSharedSpectralCalculus:
    def test_factors_commute_through_shared_eigensystem(self):
        A = random_psd(11, 5, 3)
        sp = build_space(A)
        scale = 1.0 + spectral_norm(A)
        U_r = sp.eigen.vectors[:, sp.dim - sp.rank :]
        proj_range = U_r @ U_r.conj().T
        # The factors compose consistently because they share one basis.
        assert spectral_norm(sp.coord_map @ sp.coord_lift - np.eye(sp.rank)) <= TOL_EIG * scale
        assert spectral_norm(sp.coord_lift @ sp.coord_map - proj_range) <= TOL_EIG * scale
        assert spectral_norm(A @ sp.pinv - proj_range) <= 1e-8 * scale


class TestSpectralNorm:
    def test_ones_matrix(self):
        assert spectral_norm(ONES2) == pytest.approx(2.0, abs=TOL_EIG)

    def test_nilpotent(self):
        assert spectral_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0, abs=TOL_EIG)

    def test_empty(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0

    def test_rectangular(self):
        assert spectral_norm(np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])) == pytest.approx(4.0, abs=TOL_EIG)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40)
    def test_adjoint_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert spectral_norm(M) == pytest.approx(spectral_norm(M.conj().T), rel=1e-12)
