"""Semi-inner product, membership tests, adjoint and reduction maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiradius.errors import DimensionMismatch, NotABounded, NotHermitian, NotInBA, NotPSD
from semiradius.kernel import spectral_norm
from semiradius.space import build_space

TOL = 1e-10

A_DEG = np.diag([2.0, 0.0])
T_LOWER = np.array([[1.0, 0.0], [5.0, 3.0]])


def random_space(seed: int, n: int, rank: int):
    """Random PSD seed of prescribed rank with spectrum in [0.1, 2]."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    lam = rng.uniform(0.1, 2.0, size=rank)
    A = (Q[:, :rank] * lam) @ Q[:, :rank].conj().T if rank else np.zeros((n, n))
    return build_space(0.5 * (A + A.conj().T))


def random_admissible(space, rng, scale=1.0):
    """Operator preserving the null space, built in the eigenbasis."""
    n, r = space.dim, space.rank
    V = space.eigen.vectors  # first n - r columns span the null space
    G = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    G[n - r :, : n - r] = 0.0  # no leakage from null block into range block
    return space.register(V @ G @ V.conj().T)


class TestBuildSpace:
    def test_degenerate_diag_factors(self):
        sp = build_space(A_DEG)
        assert sp.rank == 1
        assert np.allclose(sp.pinv, np.diag([0.5, 0.0]), atol=TOL)
        assert np.allclose(sp.proj_range, np.diag([1.0, 0.0]), atol=TOL)
        assert np.allclose(sp.coord_map, [[np.sqrt(2.0), 0.0]], atol=TOL)

    def test_identity_seed(self):
        sp = build_space(np.eye(3))
        assert sp.rank == 3
        assert np.allclose(sp.pinv, np.eye(3), atol=TOL)
        assert np.allclose(sp.proj_range, np.eye(3), atol=TOL)

    def test_zero_seed(self):
        sp = build_space(np.zeros((2, 2)))
        assert sp.rank == 0
        assert sp.coord_map.shape == (0, 2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            build_space(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            build_space([[0.0, 1.0], [0.0, 0.0]])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_coordinate_map_is_isometry(self, seed, n, data):
        rank = data.draw(st.integers(0, n))
        sp = random_space(seed, n, rank)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(sp.coord_map @ x) == pytest.approx(sp.a_vec_norm(x), abs=1e-9)


class TestVectors:
    def test_inner_product_value(self):
        sp = build_space(A_DEG)
        assert sp.a_inner([1.0, 1.0], [1.0, 0.0]) == pytest.approx(2.0, abs=TOL)

    def test_null_vector_has_zero_seminorm(self):
        sp = build_space(A_DEG)
        assert sp.a_vec_norm([0.0, 5.0]) == pytest.approx(0.0, abs=TOL)

    def test_range_vector_seminorm(self):
        sp = build_space(A_DEG)
        assert sp.a_vec_norm([1.0, 0.0]) == pytest.approx(np.sqrt(2.0), abs=TOL)

    def test_dimension_mismatch(self):
        sp = build_space(A_DEG)
        with pytest.raises(DimensionMismatch):
            sp.a_vec_norm([1.0, 0.0, 0.0])


class TestMembership:
    def test_leaky_operator_rejected_by_both_tests(self):
        sp = build_space(A_DEG)
        T = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert not sp.admits_a_adjoint(T)
        assert not sp.is_a_bounded(T)

    def test_null_preserving_operator_accepted_by_both_tests(self):
        sp = build_space(A_DEG)
        assert sp.admits_a_adjoint(T_LOWER)
        assert sp.is_a_bounded(T_LOWER)

    def test_register_all_matches_register(self):
        sp = random_space(3, 4, 2)
        rng = np.random.default_rng(4)
        good = random_admissible(sp, rng).matrix
        mats = [good, good + rng.standard_normal((4, 4)), np.eye(4), np.zeros((4, 4))]
        for op, M in zip(sp.register_all(mats), mats):
            single = sp.register(M)
            assert (op.admits_adjoint, op.a_bounded) == (single.admits_adjoint, single.a_bounded)
            assert np.array_equal(op.matrix, single.matrix)
        assert sp.register_all([]) == []

    def test_full_rank_seed_accepts_everything(self):
        sp = build_space(np.eye(2))
        assert sp.register([[0.0, 1.0], [0.0, 0.0]]).admits_adjoint

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_facts_coincide_on_sampled_operators(self, seed, n, data):
        rank = data.draw(st.integers(0, n))
        sp = random_space(seed, n, rank)
        rng = np.random.default_rng(seed + 2)
        op = random_admissible(sp, rng)
        assert op.admits_adjoint and op.a_bounded
        # A generic dense perturbation breaks both facts together.
        if 0 < rank < n:
            bad = sp.register(op.matrix + rng.standard_normal((n, n)))
            assert bad.admits_adjoint == bad.a_bounded


class TestSharp:
    def test_hand_value(self):
        sp = build_space(A_DEG)
        assert np.allclose(sp.sharp(T_LOWER), [[1.0, 0.0], [0.0, 0.0]], atol=TOL)

    def test_identity_seed_reduces_to_adjoint(self):
        sp = build_space(np.eye(2))
        T = np.array([[1.0, 2.0], [3j, 4.0]])
        assert np.allclose(sp.sharp(T), T.conj().T, atol=TOL)

    def test_rejects_inadmissible(self):
        sp = build_space(A_DEG)
        with pytest.raises(NotInBA):
            sp.sharp(np.array([[1.0, 2.0], [0.0, 3.0]]))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_algebra(self, seed, n, data):
        rank = data.draw(st.integers(1, n))
        sp = random_space(seed, n, rank)
        rng = np.random.default_rng(seed + 3)
        T = random_admissible(sp, rng)
        S = random_admissible(sp, rng)
        A, P = sp.matrix, sp.proj_range
        Ts = sp.sharp(T)
        scale = 1.0 + sp.seed_norm * spectral_norm(T.matrix) * (1.0 + spectral_norm(S.matrix))
        # Defining equation of the adjoint solution.
        assert spectral_norm(A @ Ts - T.matrix.conj().T @ A) <= TOL * scale
        # Product reversal.
        TS = sp.register(T.matrix @ S.matrix)
        assert spectral_norm(sp.sharp(TS) - sp.sharp(S) @ Ts) <= TOL * scale
        # Double sharp compresses to the range.
        Tss = sp.sharp(sp.register(Ts))
        assert spectral_norm(Tss - P @ T.matrix @ P) <= TOL * scale
        # Triple sharp reproduces the single sharp.
        assert spectral_norm(sp.sharp(sp.register(Tss)) - Ts) <= TOL * scale
        # sharp(T) T is positive for the seed.
        assert sp.is_a_positive(Ts @ T.matrix)


class TestTilde:
    def test_hand_value(self):
        sp = build_space(A_DEG)
        assert np.allclose(sp.tilde(T_LOWER), [[1.0]], atol=TOL)

    def test_identity_seed_is_identity_map(self):
        sp = build_space(np.eye(2))
        T = np.array([[1.0, 2.0], [3.0, 4j]])
        assert np.allclose(sp.tilde(T), T, atol=TOL)

    def test_rejects_unbounded(self):
        sp = build_space(A_DEG)
        with pytest.raises(NotABounded):
            sp.tilde(np.array([[1.0, 2.0], [0.0, 3.0]]))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_functoriality_and_intertwining(self, seed, n, data):
        rank = data.draw(st.integers(1, n))
        sp = random_space(seed, n, rank)
        rng = np.random.default_rng(seed + 4)
        T = random_admissible(sp, rng)
        S = random_admissible(sp, rng)
        tT, tS = sp.tilde(T), sp.tilde(S)
        scale = 1.0 + spectral_norm(T.matrix) * (1.0 + spectral_norm(S.matrix)) * (1.0 + sp.seed_norm)
        # Intertwining with the coordinate map.
        assert spectral_norm(sp.coord_map @ T.matrix - tT @ sp.coord_map) <= TOL * scale
        # Reduction is an algebra map.
        assert spectral_norm(sp.tilde(T.matrix @ S.matrix) - tT @ tS) <= TOL * scale
        assert spectral_norm(sp.tilde(T.matrix + S.matrix) - (tT + tS)) <= TOL * scale
        # Reduction turns the canonical adjoint into the plain adjoint.
        assert spectral_norm(sp.tilde(sp.sharp(T)) - tT.conj().T) <= TOL * scale


class TestParts:
    def test_hand_values(self):
        sp = build_space(A_DEG)
        re = sp.re_part(T_LOWER)
        im = sp.im_part(T_LOWER)
        assert np.allclose(re.matrix, [[1.0, 0.0], [2.5, 1.5]], atol=TOL)
        assert np.allclose(im.matrix, [[0.0, 0.0], [-2.5j, -1.5j]], atol=TOL)

    def test_identity_seed_values(self):
        sp = build_space(np.eye(2))
        T = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(sp.re_part(T).matrix, [[0.0, 0.5], [0.5, 0.0]], atol=TOL)
        assert np.allclose(sp.im_part(T).matrix, [[0.0, -0.5j], [0.5j, 0.0]], atol=TOL)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_decomposition_and_selfadjointness(self, seed, n, data):
        rank = data.draw(st.integers(1, n))
        sp = random_space(seed, n, rank)
        rng = np.random.default_rng(seed + 5)
        T = random_admissible(sp, rng)
        re, im = sp.re_part(T), sp.im_part(T)
        scale = 1.0 + spectral_norm(T.matrix)
        assert spectral_norm(re.matrix + 1j * im.matrix - T.matrix) <= TOL * scale
        assert sp.is_a_selfadjoint(re)
        assert sp.is_a_selfadjoint(im)


class TestSelfadjointness:
    def test_lower_triangular_example_is_selfadjoint(self):
        # seed @ T = [[2, 0], [0, 0]] is Hermitian, so T is selfadjoint here
        # even though T itself is not symmetric.
        sp = build_space(A_DEG)
        assert sp.is_a_selfadjoint(T_LOWER)

    def test_identity_seed_plain_adjointness(self):
        sp = build_space(np.eye(2))
        assert not sp.is_a_selfadjoint(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert sp.is_a_selfadjoint(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_positive_example(self):
        sp = build_space(A_DEG)
        Ts = sp.sharp(T_LOWER)
        assert sp.is_a_positive(Ts @ T_LOWER)

    def test_not_positive_example(self):
        sp = build_space(np.eye(2))
        assert not sp.is_a_positive(np.diag([1.0, -1.0]))


class TestDoubling:
    def test_double_dimensions(self):
        sp = build_space(A_DEG)
        dd = sp.double()
        assert dd.dim == 4 and dd.rank == 2
        assert dd is sp.double()  # cached

    def test_block_layouts(self):
        sp = build_space(np.eye(2))
        T = np.array([[1.0, 2.0], [3.0, 4.0]])
        S = np.array([[5.0, 6.0], [7.0, 8.0]])
        D = sp.block2(T, S, "diagonal")
        assert np.allclose(D.matrix[:2, :2], T) and np.allclose(D.matrix[2:, 2:], S)
        assert np.allclose(D.matrix[:2, 2:], 0.0) and np.allclose(D.matrix[2:, :2], 0.0)
        X = sp.block2(T, S, "antidiagonal")
        assert np.allclose(X.matrix[:2, 2:], T) and np.allclose(X.matrix[2:, :2], S)

    def test_block_membership_inherited(self):
        sp = random_space(9, 4, 2)
        rng = np.random.default_rng(10)
        T, S = random_admissible(sp, rng), random_admissible(sp, rng)
        B = sp.block2(T, S, "antidiagonal")
        assert B.admits_adjoint and B.a_bounded

    def test_block_sharp_swaps_antidiagonal(self):
        sp = random_space(13, 3, 2)
        rng = np.random.default_rng(14)
        T1, T2 = random_admissible(sp, rng), random_admissible(sp, rng)
        B = sp.block2(T1, T2, "antidiagonal")
        Bs = sp.double().sharp(B)
        n = sp.dim
        scale = 1.0 + spectral_norm(B.matrix) * (1.0 + sp.seed_norm)
        assert spectral_norm(Bs[:n, n:] - sp.sharp(T2)) <= TOL * scale
        assert spectral_norm(Bs[n:, :n] - sp.sharp(T1)) <= TOL * scale
        assert spectral_norm(Bs[:n, :n]) <= TOL * scale and spectral_norm(Bs[n:, n:]) <= TOL * scale

    def test_rejects_unknown_layout(self):
        sp = build_space(np.eye(2))
        with pytest.raises(DimensionMismatch):
            sp.block2(np.eye(2), np.eye(2), "rowwise")
