"""Semi-inner product, membership tests, adjoint and reduction maps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiradius.space as space_module
from semiradius.catalog import PASS_CERTIFIED, SKIPPED, run_all, run_many
from semiradius.errors import BadConfig, DimensionMismatch, NotABounded, NotHermitian, NotInBA, NotPSD
from semiradius.kernel import PSD_TOL, hermitian_eigendecomposition, spectral_norm
from semiradius.sampler import SPECTRUM_LAWS, SampleConfig, sample_bundle, sample_compressed, sample_space
from semiradius.space import FACT_TOL, build_space

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


def proj_range(space):
    """Orthogonal projector U_r U_r* onto the range of the seed."""
    U_r = space.eigen.vectors[:, space.dim - space.rank :]
    return U_r @ U_r.conj().T


def random_admissible(space, rng, scale=1.0):
    """Operator preserving the null space, built in the eigenbasis."""
    n, r = space.dim, space.rank
    V = space.eigen.vectors  # first n - r columns span the null space
    G = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    G[n - r :, : n - r] = 0.0  # no leakage from null block into range block
    return V @ G @ V.conj().T


def assert_a_positive(space, M):
    """seed @ M is Hermitian and positive semidefinite within tolerance."""
    assert space.is_a_selfadjoint(M)
    AM = space.matrix @ M
    lam_min = np.linalg.eigvalsh(0.5 * (AM + AM.conj().T))[0]
    assert lam_min >= -PSD_TOL * (1.0 + space.seed_norm * spectral_norm(M))


class TestBuildSpace:
    def test_degenerate_diag_factors(self):
        sp = build_space(A_DEG)
        assert sp.rank == 1
        assert np.allclose(sp.pinv, np.diag([0.5, 0.0]), atol=TOL)
        assert np.allclose(proj_range(sp), np.diag([1.0, 0.0]), atol=TOL)
        assert np.allclose(sp.coord_map, [[np.sqrt(2.0), 0.0]], atol=TOL)

    def test_identity_seed(self):
        sp = build_space(np.eye(3))
        assert sp.rank == 3
        assert np.allclose(sp.pinv, np.eye(3), atol=TOL)
        assert np.allclose(proj_range(sp), np.eye(3), atol=TOL)

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

    @pytest.mark.parametrize("cutoff", [math.nan, -1.0, 1.0])
    def test_rejects_cutoff_outside_unit_interval(self, cutoff):
        with pytest.raises(BadConfig):
            build_space(np.eye(3), cutoff=cutoff)
        # The constructor, which build_space calls, checks it too.
        with pytest.raises(BadConfig):
            space_module.SemiHilbertSpace(np.eye(3), hermitian_eigendecomposition(np.eye(3)), cutoff)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_coordinate_map_is_isometry(self, seed, n, data):
        rank = data.draw(st.integers(0, n))
        sp = random_space(seed, n, rank)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        seminorm = np.sqrt(max(np.real(x.conj() @ sp.matrix @ x), 0.0))
        assert np.linalg.norm(sp.coord_map @ x) == pytest.approx(seminorm, abs=1e-9)


class TestVectors:
    """The coordinate map realizes the semi-inner product y* A x as
    (C y)* (C x), so vectors need no helpers of their own."""

    def test_inner_product_value(self):
        C = build_space(A_DEG).coord_map
        x, y = np.array([1.0, 1.0]), np.array([1.0, 0.0])
        assert (C @ y).conj() @ (C @ x) == pytest.approx(2.0, abs=TOL)

    def test_null_vector_has_zero_seminorm(self):
        C = build_space(A_DEG).coord_map
        assert np.linalg.norm(C @ np.array([0.0, 5.0])) == pytest.approx(0.0, abs=TOL)

    def test_range_vector_seminorm(self):
        C = build_space(A_DEG).coord_map
        assert np.linalg.norm(C @ np.array([1.0, 0.0])) == pytest.approx(np.sqrt(2.0), abs=TOL)


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

    def test_reduce_all_matches_one_matrix_at_a_time(self):
        sp = random_space(3, 4, 2)
        rng = np.random.default_rng(4)
        good = random_admissible(sp, rng)
        mats = [good, good + rng.standard_normal((4, 4)), np.eye(4), np.zeros((4, 4))]
        admits, bounded, reduced = sp.reduce_all(mats)
        for k, M in enumerate(mats):
            a, b, R = sp.reduce_all([M])
            assert (admits[k], bounded[k]) == (a[0], b[0])
            assert np.array_equal(reduced[k], R[0])
        assert [len(x) for x in sp.reduce_all([])] == [0, 0, 0]

    def test_full_rank_seed_accepts_everything(self):
        sp = build_space(np.eye(2))
        assert sp.admits_a_adjoint([[0.0, 1.0], [0.0, 0.0]])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_facts_coincide_on_sampled_operators(self, seed, n, data):
        rank = data.draw(st.integers(0, n))
        sp = random_space(seed, n, rank)
        rng = np.random.default_rng(seed + 2)
        M = random_admissible(sp, rng)
        assert sp.admits_a_adjoint(M) and sp.is_a_bounded(M)
        # A generic dense perturbation breaks both facts together.
        if 0 < rank < n:
            bad = M + rng.standard_normal((n, n))
            assert sp.admits_a_adjoint(bad) == sp.is_a_bounded(bad)


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
        A, P = sp.matrix, proj_range(sp)
        Ts = sp.sharp(T)
        scale = 1.0 + sp.seed_norm * spectral_norm(T) * (1.0 + spectral_norm(S))
        # Defining equation of the adjoint solution.
        assert spectral_norm(A @ Ts - T.conj().T @ A) <= TOL * scale
        # Product reversal.
        assert spectral_norm(sp.sharp(T @ S) - sp.sharp(S) @ Ts) <= TOL * scale
        # Double sharp compresses to the range.
        Tss = sp.sharp(Ts)
        assert spectral_norm(Tss - P @ T @ P) <= TOL * scale
        # Triple sharp reproduces the single sharp.
        assert spectral_norm(sp.sharp(Tss) - Ts) <= TOL * scale
        # sharp(T) T is positive for the seed.
        assert_a_positive(sp, Ts @ T)


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
        scale = 1.0 + spectral_norm(T) * (1.0 + spectral_norm(S)) * (1.0 + sp.seed_norm)
        # Intertwining with the coordinate map.
        assert spectral_norm(sp.coord_map @ T - tT @ sp.coord_map) <= TOL * scale
        # Reduction is an algebra map.
        assert spectral_norm(sp.tilde(T @ S) - tT @ tS) <= TOL * scale
        assert spectral_norm(sp.tilde(T + S) - (tT + tS)) <= TOL * scale
        # Reduction turns the canonical adjoint into the plain adjoint.
        assert spectral_norm(sp.tilde(sp.sharp(T)) - tT.conj().T) <= TOL * scale


class TestParts:
    def test_hand_values(self):
        sp = build_space(A_DEG)
        re = sp.re_part(T_LOWER)
        im = sp.im_part(T_LOWER)
        assert np.allclose(re, [[1.0, 0.0], [2.5, 1.5]], atol=TOL)
        assert np.allclose(im, [[0.0, 0.0], [-2.5j, -1.5j]], atol=TOL)

    def test_identity_seed_values(self):
        sp = build_space(np.eye(2))
        T = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(sp.re_part(T), [[0.0, 0.5], [0.5, 0.0]], atol=TOL)
        assert np.allclose(sp.im_part(T), [[0.0, -0.5j], [0.5j, 0.0]], atol=TOL)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
    @settings(max_examples=30)
    def test_decomposition_and_selfadjointness(self, seed, n, data):
        rank = data.draw(st.integers(1, n))
        sp = random_space(seed, n, rank)
        rng = np.random.default_rng(seed + 5)
        T = random_admissible(sp, rng)
        re, im = sp.re_part(T), sp.im_part(T)
        scale = 1.0 + spectral_norm(T)
        assert spectral_norm(re + 1j * im - T) <= TOL * scale
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
        assert_a_positive(sp, Ts @ T_LOWER)


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
        assert np.allclose(D[:2, :2], T) and np.allclose(D[2:, 2:], S)
        assert np.allclose(D[:2, 2:], 0.0) and np.allclose(D[2:, :2], 0.0)
        X = sp.block2(T, S, "antidiagonal")
        assert np.allclose(X[:2, 2:], T) and np.allclose(X[2:, :2], S)

    def test_block_membership_inherited(self):
        sp = random_space(9, 4, 2)
        rng = np.random.default_rng(10)
        T, S = random_admissible(sp, rng), random_admissible(sp, rng)
        B = sp.block2(T, S, "antidiagonal")
        assert sp.double().admits_a_adjoint(B) and sp.double().is_a_bounded(B)

    def test_block_sharp_swaps_antidiagonal(self):
        sp = random_space(13, 3, 2)
        rng = np.random.default_rng(14)
        T1, T2 = random_admissible(sp, rng), random_admissible(sp, rng)
        B = sp.block2(T1, T2, "antidiagonal")
        Bs = sp.double().sharp(B)
        n = sp.dim
        scale = 1.0 + spectral_norm(B) * (1.0 + sp.seed_norm)
        assert spectral_norm(Bs[:n, n:] - sp.sharp(T2)) <= TOL * scale
        assert spectral_norm(Bs[n:, :n] - sp.sharp(T1)) <= TOL * scale
        assert spectral_norm(Bs[:n, :n]) <= TOL * scale and spectral_norm(Bs[n:, n:]) <= TOL * scale

    def test_rejects_unknown_layout(self):
        sp = build_space(np.eye(2))
        with pytest.raises(DimensionMismatch):
            sp.block2(np.eye(2), np.eye(2), "rowwise")


def seeded_space(seed: int, n: int, rank: int, null_level: float = 0.0):
    """Random seed of prescribed rank whose n - rank null eigenvalues are
    null_level * lambda_max times a random factor in [-1, 1] (null_level
    itself on a rank-0 seed, whose eigenvalues are then made nonpositive),
    so they are tiny but nonzero when null_level is positive."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    kept = rng.uniform(0.1, 2.0, rank)
    null = null_level * (kept.max() if rank else 1.0) * rng.uniform(-1.0, 1.0, n - rank)
    lam = np.concatenate([null if rank else -np.abs(null), kept])
    A = (Q * lam) @ Q.conj().T
    sp = build_space(0.5 * (A + A.conj().T))
    assert sp.rank == rank
    return sp


def projector_facts(sp, T):
    """The membership verdicts by the projector formulas, n x n throughout."""
    n, r = sp.dim, sp.rank
    U_r = sp.eigen.vectors[:, n - r :]
    P_null = np.eye(n) - U_r @ U_r.conj().T
    size = np.linalg.norm(T)
    admits = np.linalg.norm(P_null @ T.conj().T @ sp.matrix) <= FACT_TOL * (1.0 + sp.seed_norm * size)
    bounded = np.linalg.norm(sp.coord_map @ T @ P_null) <= FACT_TOL * (1.0 + np.sqrt(sp.seed_norm) * size)
    return admits, bounded


def membership_cases(sp, rng):
    """Admissible operators, and ones leaking from the null space into the
    range by 1e-14, 1e-3 and 1 relative to their size, with the expected
    verdict of each (one verdict for both tests)."""
    n, r = sp.dim, sp.rank
    V = sp.eigen.vectors
    cases = []
    for scale in (1e-3, 1.0, 1e3):
        G = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        G[n - r :, : n - r] = 0.0
        cases.append((V @ G @ V.conj().T, True))
        if 0 < r < n:
            for leak in (1e-14, 1e-3, 1.0):
                L = G.copy()
                L[n - r :, : n - r] = leak * scale * n * (rng.standard_normal((r, n - r)) + 1j)
                cases.append((V @ L @ V.conj().T, leak < 1e-8))
    return cases


class TestReduceAll:
    @pytest.mark.parametrize("null_level", [0.0, 1e-13, 4e-11])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 96])
    def test_verdicts_match_projector_formulas(self, n, null_level):
        rng = np.random.default_rng(1000 * n + int(null_level > 0))
        for rank in sorted({0, 1, n // 2, n - 1, n}):
            sp = seeded_space(int(rng.integers(2**32)), n, rank, null_level)
            mats, expected = zip(*membership_cases(sp, rng))
            admits, bounded, reduced = sp.reduce_all(list(mats))
            assert reduced.shape == (len(mats), rank, rank)
            for T, a, b, want in zip(mats, admits, bounded, expected):
                if not rank:
                    # A rank-0 seed counts as zero, tiny null eigenvalues and
                    # all, so every operator belongs (want is always True).
                    assert (bool(a), bool(b)) == (want, want)
                    continue
                old_admits, old_bounded = projector_facts(sp, T)
                assert bool(b) == old_bounded
                assert old_admits or not a  # never accepts what the projector test rejects
                assert (bool(a), bool(b)) == (old_admits, old_bounded) == (want, want)

    def test_doubled_space(self):
        sp = seeded_space(21, 4, 2, 1e-12)
        dd = sp.double()
        rng = np.random.default_rng(22)
        cases = membership_cases(dd, rng)
        T, S = [M for M, ok in membership_cases(sp, rng) if ok][:2]
        cases += [(sp.block2(T, S, layout), True) for layout in ("diagonal", "antidiagonal")]
        mats, expected = zip(*cases)
        admits, bounded, _ = dd.reduce_all(list(mats))
        for T, a, b, want in zip(mats, admits, bounded, expected):
            assert (bool(a), bool(b)) == projector_facts(dd, T) == (want, want)

    def test_each_operator_is_tested_alone(self):
        sp = seeded_space(31, 5, 3)
        rng = np.random.default_rng(32)
        mats = [M for M, _ok in membership_cases(sp, rng)]
        admits, bounded, _ = sp.reduce_all(mats)
        assert [sp.admits_a_adjoint(M) for M in mats] == list(admits)
        assert [sp.is_a_bounded(M) for M in mats] == list(bounded)
        assert [len(x) for x in sp.reduce_all([])] == [0, 0, 0]

    def test_rank_zero_seed_accepts_every_operator(self):
        # The seed's spectrum lies below the cutoff, so the rank decision
        # treats it as zero; membership must too.  The bound
        # max|lambda_null| |T|_F = 1e-12 |T|_F used to reject every operand
        # of this bundle, and run_all skipped all 23 rows.
        sp = build_space(np.diag([-1e-12, 0.0, 0.0]))
        zero = build_space(np.zeros((3, 3)))
        assert sp.rank == zero.rank == 0
        bundle = {name: 1e5 * M for name, M in sample_bundle(sp, seed=0).items()}
        admits, bounded, reduced = sp.reduce_all(list(bundle.values()))
        assert admits.all() and bounded.all() and reduced.shape == (len(bundle), 0, 0)
        verdicts = [row.verdict for row in run_all(sp, bundle)]
        assert verdicts == [row.verdict for row in run_all(zero, bundle)]
        assert verdicts.count(PASS_CERTIFIED) == 21

    @pytest.mark.parametrize("n,rank", [(2, 1), (5, 3), (6, 6), (96, 4), (96, 1)])
    def test_reductions_match_tilde(self, n, rank):
        sp = seeded_space(40 + n + rank, n, rank, 1e-12)
        rng = np.random.default_rng(41)
        mats = [M for M, ok in membership_cases(sp, rng) if ok]
        _, _, reduced = sp.reduce_all(mats)
        for T, R in zip(mats, reduced):
            scale = 1.0 + sp.seed_norm * np.linalg.norm(T)
            assert spectral_norm(R - sp.tilde(T)) <= 1e-13 * scale
            # The coordinate form C T C^+ of the reduction.
            assert spectral_norm(R - sp.coord_map @ T @ sp.coord_lift) <= 1e-12 * scale


def _householder(v):
    """Rational orthogonal reflection I - 2 v v^T / (v^T v)."""
    vv = sum(x * x for x in v)
    return [[Fraction(int(i == j)) - 2 * v[i] * v[j] / vv for j in range(len(v))] for i in range(len(v))]


def _mul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))] for i in range(len(X))]


def _t(X):
    return [list(row) for row in zip(*X)]


def _fro2(X):
    return sum(x * x for row in X for x in row)


@pytest.mark.parametrize("seed", range(6))
def test_adjoint_residual_bounds_projector_residual_exactly(seed):
    """In rational arithmetic, with seed = Q diag(lambda) Q^T for a rational
    orthogonal Q and tiny nonzero null eigenvalues: the adjoint residual of
    reduce_all is at least |P_null T* seed|_F, and the bounded residual
    equals |C T P_null|_F (compared squared)."""
    rng = np.random.default_rng(seed)
    n, r = 4, int(rng.integers(1, 4))
    frac = lambda x: Fraction(int(x), 97)  # noqa: E731
    Q = _mul(
        _householder([frac(x) or Fraction(1) for x in rng.integers(-97, 98, n)]),
        _householder([frac(x) or Fraction(1) for x in rng.integers(-97, 98, n)]),
    )
    null = [Fraction(int(x), 10**12) for x in rng.integers(-50, 51, n - r)]
    kept = [Fraction(int(x), 97) for x in rng.integers(10, 200, r)]
    lam = null + kept
    A = _mul(_mul(Q, [[lam[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]), _t(Q))
    T = [[frac(x) for x in row] for row in rng.integers(-300, 301, (n, n))]
    Q0, Qr = [row[: n - r] for row in Q], [row[n - r :] for row in Q]
    P_null = _mul(Q0, _t(Q0))
    old_adjoint = _fro2(_mul(_mul(P_null, _t(T)), A))
    Y = _mul(_mul(_t(Qr), T), Q)
    W = [row[: n - r] for row in Y]
    null_max = max(abs(x) for x in null)
    new_adjoint = sum((kept[i] * x) ** 2 for i, row in enumerate(W) for x in row) + null_max**2 * _fro2(T)
    assert new_adjoint >= old_adjoint
    # C^T C = Q_r Lambda_r Q_r^T, so |C T P_null|_F^2 = tr(P_null T^T Q_r Lambda_r Q_r^T T P_null).
    CtC = _mul(_mul(Qr, [[kept[i] if i == j else Fraction(0) for j in range(r)] for i in range(r)]), _t(Qr))
    TP = _mul(T, P_null)
    old_bounded = sum(_mul(_mul(_t(TP), CtC), TP)[i][i] for i in range(n))
    new_bounded = sum(kept[i] * x * x for i, row in enumerate(W) for x in row)
    assert new_bounded == old_bounded


class TestSelfadjointTolerance:
    def test_selfadjoint_part_passes(self):
        sp = seeded_space(51, 6, 3, 1e-12)
        T = random_admissible(sp, np.random.default_rng(52))
        assert sp.is_a_selfadjoint(sp.re_part(T))

    def test_near_tolerance_verdicts(self):
        # Identity seed, M = J + (delta/2) i I with J the 4 x 4 ones matrix:
        # the reduced matrix is M in the seed's eigenbasis, and its
        # deviation M - M* = delta i I has Frobenius norm 2 delta, while
        # |M|_F = 4.  delta = 2 FACT_TOL passes, 4 <= 1 + 4.
        sp = build_space(np.eye(4))
        J = np.ones((4, 4))
        assert sp.is_a_selfadjoint(J + 1j * FACT_TOL * np.eye(4))
        # Six times the deviation fails, 24 > 1 + 4.
        assert not sp.is_a_selfadjoint(J + 6j * FACT_TOL * np.eye(4))


class TestReducedSelfadjointness:
    @given(
        st.sampled_from(SPECTRUM_LAWS),
        st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, min(n - 1, 6)))),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_verdicts_match_the_full_space_formula(self, law, shape, compressed, seed):
        # The selfadjoint and skew parts of a sampled T, and re + i s im for
        # s far below the tolerance (1e-14) and far above it (s = 1 gives T
        # back).  The reference is the full-space formula
        # |seed M - (seed M)*| <= FACT_TOL (1 + |seed| |M|), spectral norms.
        (n, rank) = shape
        config = SampleConfig(dim=n, rank=rank, law=law, master_seed=seed)
        if compressed:
            sp, bundle = sample_compressed(config)
        else:
            sp = sample_space(config)
            bundle = sample_bundle(sp, seed=seed + 1)
        re, im = sp.re_part(bundle["T"]), sp.im_part(bundle["T"])
        cases = [re, im, re + 1e-14j * im, re + 1j * im]
        reference = []
        for M in cases:
            AM = sp.matrix @ M
            reference.append(spectral_norm(AM - AM.conj().T) <= FACT_TOL * (1.0 + sp.seed_norm * spectral_norm(M)))
        verdicts = [sp.is_a_selfadjoint(M) for M in cases]
        assert verdicts == reference
        assert verdicts[:3] == [True] * 3 and verdicts[3] == (rank == 0)
        rows = run_many([(sp, {"Tsa": M}, f"m{i}") for i, M in enumerate(cases)], checks=["C2"])
        assert [row.verdict == SKIPPED for (row,) in rows] == [not v for v in verdicts]
