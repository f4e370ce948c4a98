"""Sampling determinism, membership guarantees, and spectrum laws."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiradius import sampler
from semiradius.errors import BadConfig, DegenerateSpace
from semiradius.sampler import (
    SPECTRUM_LAWS,
    SampleConfig,
    derive_seed,
    haar_unitary,
    sample_a_selfadjoint,
    sample_bundle,
    sample_commuting_pair,
    sample_compressed,
    sample_operator_in_BA,
    sample_space,
    sample_unit_vectors,
)
from semiradius.space import SemiHilbertSpace, build_space


class TestSeedDerivation:
    def test_pure_and_path_sensitive(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
        assert derive_seed(42, 1) != derive_seed(43, 1)

    def test_prefix_independence(self):
        # Extending a path never disturbs sibling streams.
        before = [derive_seed(7, 0, k) for k in range(3)]
        _ = derive_seed(7, 0, 3)
        assert before == [derive_seed(7, 0, k) for k in range(3)]


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(BadConfig):
            SampleConfig(dim=0, rank=0)
        with pytest.raises(BadConfig):
            SampleConfig(dim=2, rank=3)
        with pytest.raises(BadConfig):
            SampleConfig(dim=2, rank=-1)
        with pytest.raises(BadConfig):
            SampleConfig(dim=2, rank=1, law="cauchy")
        with pytest.raises(BadConfig):
            SampleConfig(dim=2, rank=1, lam_min=0.0)
        with pytest.raises(BadConfig):
            SampleConfig(dim=2, rank=1, lam_max=math.inf)
        with pytest.raises(BadConfig):
            SampleConfig(dim=2, rank=1, lam_min=math.inf, lam_max=math.inf)
        with pytest.raises(BadConfig):
            SampleConfig(dim=2, rank=1, master_seed=-1)
        # Non-integral counts fail here, not with a TypeError in sample_space.
        for bad in (dict(dim=3.0, rank=1), dict(dim=3, rank=1.5), dict(dim=3, rank=1, master_seed=1.5)):
            with pytest.raises(BadConfig):
                SampleConfig(**bad)
        cfg = SampleConfig(dim=np.int64(3), rank=np.int32(1), master_seed=np.uint8(4))
        assert all(type(v) is int for v in (cfg.dim, cfg.rank, cfg.master_seed))

    def test_rank_zero_ignores_spectrum_bounds(self):
        SampleConfig(dim=2, rank=0, lam_min=-1.0, lam_max=-1.0)


class TestSampleSpace:
    def test_equal_full_rank_is_exactly_scalar(self):
        sp = sample_space(SampleConfig(dim=2, rank=2, law="equal", lam_max=1.0))
        assert np.array_equal(sp.matrix, np.eye(2))

    def test_equal_law_below_full_rank(self):
        sp = sample_space(SampleConfig(dim=4, rank=2, law="equal", lam_max=1.5, master_seed=5))
        assert np.allclose(sp.eigen.values, [0.0, 0.0, 1.5, 1.5], atol=1e-12) and sp.rank == 2

    def test_rank_zero_is_zero_matrix(self):
        sp = sample_space(SampleConfig(dim=3, rank=0))
        assert np.array_equal(sp.matrix, np.zeros((3, 3)))
        assert sp.rank == 0

    def test_reported_rank_matches_request(self):
        sp = sample_space(SampleConfig(dim=4, rank=2, master_seed=9))
        assert sp.rank == 2

    def test_geometric_law_is_ill_conditioned_with_exact_rank(self):
        sp = sample_space(SampleConfig(dim=5, rank=4, law="geometric", master_seed=3))
        assert sp.rank == 4
        kept = sp.eigen.values[-4:]
        assert kept[0] / kept[-1] == pytest.approx(1e-6, rel=1e-6)

    def test_spectrum_within_bounds(self):
        sp = sample_space(SampleConfig(dim=5, rank=5, master_seed=11))
        kept = sp.eigen.values[-5:]
        assert np.all(kept >= 0.1 - 1e-12) and np.all(kept <= 2.0 + 1e-12)

    def test_deterministic(self):
        cfg = SampleConfig(dim=4, rank=3, master_seed=21)
        assert np.array_equal(sample_space(cfg).matrix, sample_space(cfg).matrix)

    def test_haar_unitary_is_unitary(self):
        U = haar_unitary(np.random.default_rng(0), 6)
        assert np.linalg.norm(U @ U.conj().T - np.eye(6)) <= 1e-12


class TestSampleOperators:
    def test_null_to_range_block_vanishes(self):
        sp = build_space(np.diag([2.0, 0.0]))
        M = sample_operator_in_BA(sp, seed=5)
        V = sp.eigen.vectors
        B = V.conj().T @ M @ V
        assert abs(B[1, 0]) <= 1e-13
        assert sp.admits_a_adjoint(M) and sp.is_a_bounded(M)
        U_r = sp.eigen.vectors[:, 1:]
        resid = (np.eye(2) - U_r @ U_r.conj().T) @ M.conj().T @ sp.matrix
        assert np.linalg.norm(resid) <= 1e-13

    def test_full_rank_unconstrained(self):
        sp = build_space(np.eye(3))
        M = sample_operator_in_BA(sp, seed=1)
        assert sp.admits_a_adjoint(M) and sp.is_a_bounded(M)

    def test_scale_validation(self):
        sp = build_space(np.eye(2))
        for scale in (-0.5, math.nan, math.inf):
            with pytest.raises(BadConfig):
                sample_operator_in_BA(sp, scale=scale)

    def test_zero_scale_gives_zero_operator(self):
        sp = build_space(np.eye(2))
        M = sample_operator_in_BA(sp, scale=0.0, seed=3)
        assert not M.any()
        assert sp.admits_a_adjoint(M) and sp.is_a_bounded(M)

    def test_selfadjoint_sample_passes_check(self):
        sp = sample_space(SampleConfig(dim=4, rank=2, master_seed=13))
        op = sample_a_selfadjoint(sp, seed=4)
        assert sp.is_a_selfadjoint(op)

    def test_selfadjoint_identity_seed_is_hermitian(self):
        sp = build_space(np.eye(3))
        M = sample_a_selfadjoint(sp, seed=2)
        assert np.linalg.norm(M - M.conj().T) <= 1e-12

    def test_commuting_pair_commutes(self):
        sp = sample_space(SampleConfig(dim=4, rank=3, master_seed=17))
        first, second = sample_commuting_pair(sp, seed=8)
        comm = first @ second - second @ first
        scale = np.linalg.norm(first) * np.linalg.norm(second)
        assert np.linalg.norm(comm) <= 1e-12 * (1.0 + scale)
        assert sp.admits_a_adjoint(first) and sp.admits_a_adjoint(second)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=40)
    def test_membership_always_holds(self, seed, n):
        rank = seed % (n + 1)
        sp = sample_space(SampleConfig(dim=n, rank=rank, master_seed=seed))
        M = sample_operator_in_BA(sp, scale=2.0, seed=seed + 1)
        assert sp.admits_a_adjoint(M) and sp.is_a_bounded(M)


class TestSampleVectors:
    def test_unit_seminorm(self):
        sp = sample_space(SampleConfig(dim=5, rank=3, master_seed=19))
        X = sample_unit_vectors(sp, 7, seed=6)
        assert X.shape == (5, 7)
        seminorms = np.sqrt(np.einsum("ij,ik,kj->j", X.conj(), sp.matrix, X).real)
        assert np.allclose(seminorms, 1.0, rtol=0.0, atol=1e-12)

    def test_degenerate_direction_is_zeroed(self):
        sp = build_space(np.diag([2.0, 0.0]))
        X = sample_unit_vectors(sp, 3, seed=3)
        assert np.allclose(np.abs(X[0]), 1.0 / np.sqrt(2.0), rtol=0.0, atol=1e-12)
        assert not X[1].any()

    def test_rank_zero_raises(self):
        sp = build_space(np.zeros((2, 2)))
        with pytest.raises(DegenerateSpace):
            sample_unit_vectors(sp, 4, seed=0)


class TestBundle:
    def test_names_and_membership(self):
        sp = sample_space(SampleConfig(dim=4, rank=2, master_seed=23))
        bundle = sample_bundle(sp, scale=1.0, seed=31)
        assert set(bundle) == {"T", "S", "X", "Y", "T1", "T2", "S1", "S2", "Tsa", "P", "Q"}
        for M in bundle.values():
            assert sp.admits_a_adjoint(M) and sp.is_a_bounded(M)
        assert sp.is_a_selfadjoint(bundle["Tsa"])
        comm = bundle["P"] @ bundle["Q"] - bundle["Q"] @ bundle["P"]
        assert np.linalg.norm(comm) <= 1e-10

    def test_deterministic_and_seed_sensitive(self):
        sp = sample_space(SampleConfig(dim=3, rank=3, master_seed=29))
        a = sample_bundle(sp, seed=1)
        b = sample_bundle(sp, seed=1)
        c = sample_bundle(sp, seed=2)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert not np.array_equal(a["T"], c["T"])

    def test_only_the_selfadjoint_operand_tests_membership(self, monkeypatch):
        # The draws are admissible by construction; only sharp, behind the
        # selfadjoint part Tsa, asks reduce_all whether its operand admits
        # an adjoint.
        sp = sample_space(SampleConfig(dim=5, rank=2, master_seed=37))
        calls = []
        real = SemiHilbertSpace.reduce_all

        def counted(self, mats):
            calls.append(len(mats))
            return real(self, mats)

        monkeypatch.setattr(SemiHilbertSpace, "reduce_all", counted)
        sample_bundle(sp, seed=3)
        assert calls == [1]

    def test_samplers_return_plain_matrices(self):
        sp = sample_space(SampleConfig(dim=4, rank=2, master_seed=41))
        T = sample_operator_in_BA(sp, seed=1)
        outputs = [T, sample_a_selfadjoint(sp, seed=2), *sample_commuting_pair(sp, seed=3)]
        outputs += [sp.re_part(T), sp.im_part(T), sp.block2(T, T, "antidiagonal")]
        for M in outputs:
            assert type(M) is np.ndarray and M.dtype == np.complex128


def _sha256(named) -> str:
    digest = hashlib.sha256()
    for name, M in named:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(M).tobytes())
    return digest.hexdigest()


# sha256 of the seed matrix and of the bundle (names and matrices in name
# order) of a few draws, recorded before the Ginibre draw was rewritten in
# place: every instance id and report seed must keep naming the same
# matrices.  The dense products behind the seed and the bundle round by the
# numpy and BLAS build, so the pins hold for the build they were recorded
# with (numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
SAMPLER_PINS = [
    (
        2, 1, 0, "uniform",
        "cff519fd7bfd7ac97fc0283a86d46c01d3df3cf32f1599b3cc420f7d390c7bc0",
        "cdde04ed0c965846ca9f029404b7ece6ee0ded5e97c6bca9a7e1c9e59f51fa49",
    ),
    (
        4, 0, 3, "uniform",
        "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
        "16cc4b23ef664907fa6b1edb77e18d8d5d7c2b29dbcae7490dc5eb66e384115d",
    ),
    (
        5, 3, 7, "geometric",
        "79898650f95419ed4e1479545219ab48cbec4f860844c52253aadfaa8c1af5d4",
        "c97cb322cab7fc50ee65ebb3e4fd667c4c9b8a18c5082994d1c5c1f71f8116bb",
    ),
    (
        6, 6, 11, "uniform",
        "30562e9d7369f8499c7ef12f6d8399ae51403019e22a76e456c091a1c6b65bf0",
        "9098f953daefa4ca3e7ccc49b11c787d87956c41d45356f11ef3a807f3e3ab41",
    ),
    (
        96, 4, 5, "uniform",
        "247b8ccf1eddf53e8b37128161a85f376c417adbc16875e91a8909df4195ebac",
        "84e2e258f86838ac6a0e74898ac1b07a5f31b77b529de00933164aa5ff4eb705",
    ),
]


@pytest.mark.parametrize("dim,rank,seed,law,space_sha,bundle_sha", SAMPLER_PINS)
def test_sampler_bytes_are_pinned(dim, rank, seed, law, space_sha, bundle_sha):
    sp = sample_space(SampleConfig(dim=dim, rank=rank, law=law, master_seed=seed))
    bundle = sample_bundle(sp, seed=seed)
    assert _sha256([("", sp.matrix)]) == space_sha
    assert _sha256(sorted(bundle.items())) == bundle_sha


# The two draws' reduced operands differ by the rounding of the full seed's
# eigendecomposition.  Geometric spectra span a ratio of 1e-6, so their
# least eigenvalues carry relative errors near 1e-10.
COMPRESSED_TOL = {"uniform": 1e-13, "equal": 1e-13, "geometric": 1e-9}
COMPRESSED_CASES = [
    (law, dim, rank) for law in SPECTRUM_LAWS for dim in (2, 6, 40, 96, 128) for rank in sorted({0, 1, dim // 2, dim})
]


class TestCompressedDraw:
    @pytest.mark.parametrize("law,dim,rank", COMPRESSED_CASES)
    def test_reduced_operands_match_the_full_space_draw(self, law, dim, rank):
        config = SampleConfig(dim=dim, rank=rank, law=law, master_seed=131 * dim + rank)
        full = sample_space(config)
        bundle = sample_bundle(full, scale=0.5, seed=rank + 17)
        space, compressed = sample_compressed(config, scale=0.5, seed=rank + 17)
        assert space.dim == space.rank == rank
        assert list(compressed) == list(bundle)
        assert all(M.shape == (rank, rank) for M in compressed.values())
        *facts, reduced = full.reduce_all(list(bundle.values()))
        *compressed_facts, compressed_reduced = space.reduce_all(list(compressed.values()))
        assert all(fact.all() for fact in facts + compressed_facts)
        for M, C in zip(reduced, compressed_reduced):
            assert np.linalg.norm(C - M) <= COMPRESSED_TOL[law] * np.linalg.norm(M)

    def test_draws_only_the_bundle_streams(self, monkeypatch):
        # No Haar rotation and no change of basis: each stream runs its
        # 2 n^2 normals through one shared n x n float buffer, and only the
        # R stream's coefficients of P and Q are drawn as a Ginibre matrix.
        def forbidden(*args):
            raise AssertionError("full-space step in the compressed draw")

        shapes, buffers = [], []
        ginibre, corner = sampler._ginibre, sampler._ginibre_corner

        def recorded(rng, rows, cols):
            shapes.append((rows, cols))
            return ginibre(rng, rows, cols)

        def recorded_corner(rng, buf, r):
            after = np.random.default_rng()
            after.bit_generator.state = rng.bit_generator.state
            after.standard_normal(2 * 96 * 96)
            block = corner(rng, buf, r)
            assert rng.bit_generator.state == after.bit_generator.state
            buffers.append(buf)
            return block

        monkeypatch.setattr(sampler, "haar_unitary", forbidden)
        monkeypatch.setattr(sampler, "_in_BA", forbidden)
        monkeypatch.setattr(sampler, "_ginibre", recorded)
        monkeypatch.setattr(sampler, "_ginibre_corner", recorded_corner)
        space, bundle = sample_compressed(SampleConfig(dim=96, rank=3, master_seed=2), seed=4)
        assert shapes == [(2, 3)]
        assert len(buffers) == 10 and all(buf is buffers[0] for buf in buffers)
        assert buffers[0].shape == (96, 96) and buffers[0].dtype == np.float64
        assert space.matrix.shape == (3, 3) and space.is_a_selfadjoint(bundle["Tsa"])

    @given(
        st.integers(1, 130).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_corner_is_the_block_of_the_full_draw(self, shape, seed):
        # Bit for bit, signed zeros included, and the generator ends where
        # the full draw leaves it, so the streams' later draws are unchanged.
        n, r = shape
        full_rng, corner_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        full = sampler._ginibre(full_rng, n, n)[n - r :, n - r :]
        corner = sampler._ginibre_corner(corner_rng, np.empty((n, n)), r)
        assert np.array_equal(corner.view(np.uint64), full.view(np.uint64))
        assert corner_rng.bit_generator.state == full_rng.bit_generator.state

    def test_draw_holds_one_float_buffer_at_most(self):
        # Each stream's normals go through one n x n float buffer; a draw
        # that forms every stream's full Ginibre matrix peaks at 3 n^2 floats.
        n = 512
        sample_compressed(SampleConfig(dim=2, rank=1))  # first-call imports and caches
        tracemalloc.start()
        try:
            sample_compressed(SampleConfig(dim=n, rank=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_rank_zero_draws_no_normals(self, monkeypatch):
        # Every operand of a rank-0 draw is 0 x 0, so no normal a stream
        # draws would reach a matrix: none is drawn, and no n x n buffer is
        # allocated.
        n, calls = 512, []
        corner = sampler._ginibre_corner
        monkeypatch.setattr(sampler, "_ginibre_corner", lambda *args: calls.append(args) or corner(*args))
        sample_compressed(SampleConfig(dim=2, rank=0))  # first-call imports and caches
        tracemalloc.start()
        try:
            space, bundle = sample_compressed(SampleConfig(dim=n, rank=0), seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 0.25 * n * n * 8
        assert space.rank == 0 and all(M.shape == (0, 0) for M in bundle.values())

    def test_scale_validation(self):
        for scale in (-0.5, math.nan, math.inf):
            with pytest.raises(BadConfig):
                sample_compressed(SampleConfig(dim=3, rank=2), scale=scale)
