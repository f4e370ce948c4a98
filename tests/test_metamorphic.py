"""Metamorphic relations of the radius and Crawford enclosures.

The numerical range W(M) is unchanged by unitary similarity and by
transposition, rotated by e^{i phi} M and mirrored by the adjoint, so the
numerical radius and the Crawford number of U M U*, e^{i phi} M, M^T and
M* equal those of M; those of s M are s times those of M.  Every
enclosure holds its true value, so the enclosures of related matrices
must overlap (after scaling by s), whatever the search does to get them.

Every check reads only reduced operands, so a campaign instance, drawn at
its reduced size, lifted into seeds of any dim n >= r (a Haar-rotated
seed with its spectrum, operands with its matrices as range blocks and
random null rows) must reduce to its own reduced operands and give the
campaign's rows, up to the rounding of the lifted seed's eigenbasis.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiradius import campaign
from semiradius.campaign import CampaignConfig, run_campaign
from semiradius.catalog import run_many, tightness_report
from semiradius.functionals import radii_and_crawford_numbers
from semiradius.sampler import SPECTRUM_LAWS, SampleConfig, sample_compressed
from semiradius.space import build_space


def random_matrix(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def haar(rng, n: int) -> np.ndarray:
    """A Haar-distributed unitary: QR of a Ginibre matrix, R's phases
    moved into Q."""
    Q, R = np.linalg.qr(random_matrix(rng, n))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def operand(seed: int, n: int, family: str) -> np.ndarray:
    """A Ginibre matrix, one shifted off 0 (Crawford number above 0), or a
    hidden shifted Jordan block (a disk about c)."""
    rng = np.random.default_rng(seed)
    if family == "ginibre":
        return random_matrix(rng, n)
    if family == "shifted":
        return random_matrix(rng, n) / math.sqrt(2 * n) + (2.0 + 1.0j) * np.eye(n)
    U = haar(rng, n)
    c = rng.uniform(0.0, 2.0) * np.exp(2j * np.pi * rng.uniform())
    return U @ (np.diag(np.ones(n - 1), 1) + c * np.eye(n)) @ U.conj().T


def enclosures(mats: list) -> tuple:
    """Radius and Crawford enclosures of the matrices, as (lo, hi) arrays."""
    stacks = [M[None] for M in mats]
    radii, crawfords = radii_and_crawford_numbers(stacks, stacks)
    return (radii.lo, radii.hi), (crawfords.lo, crawfords.hi)


def overlapping(lo, hi, lo0, hi0) -> bool:
    return bool(np.all(lo <= hi0) and np.all(lo0 <= hi))


families = st.sampled_from(["ginibre", "shifted", "jordan"])


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), families, st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=25)
def test_similar_rotated_transposed_and_adjoint_matrices_overlap(seed, n, family, phi):
    M = operand(seed, n, family)
    U = haar(np.random.default_rng(seed + 1), n)
    related = [U @ M @ U.conj().T, np.exp(1j * phi) * M, M.T, M.conj().T]
    for lo, hi in enclosures([M] + related):
        assert overlapping(lo[1:], hi[1:], lo[0], hi[0])


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), families, st.sampled_from([1e-8, 1e8]))
@settings(max_examples=25)
def test_scaled_matrices_overlap_after_scaling(seed, n, family, s):
    M = operand(seed, n, family)
    for lo, hi in enclosures([M, s * M]):
        # s lo and s hi are rounded: widen them by an ulp or two.
        assert overlapping(lo[1], hi[1], s * lo[0] * (1.0 - 4e-16), s * hi[0] * (1.0 + 4e-16))


def lift(space, ops: dict, n: int, rng) -> tuple:
    """A dim-n instance that reduces to (space, ops), a diagonal r x r seed
    and its operands: the seed is U diag(0, lambda) U* for a Haar unitary
    U, and each operand's matrix in that seed's eigenbasis V (null
    coordinates first) has the r x r operand as its range block, random
    null rows and a zero null-to-range block."""
    r = space.rank
    U = haar(rng, n)[:, n - r :]
    seed = (U * np.diag(space.matrix).real) @ U.conj().T
    big = build_space(0.5 * (seed + seed.conj().T))
    V = big.eigen.vectors
    lifted = {}
    for name, M in ops.items():
        G = np.zeros((n, n), dtype=np.complex128)
        G[: n - r] = rng.standard_normal((n - r, n)) + 1j * rng.standard_normal((n - r, n))
        G[n - r :, n - r :] = M
        lifted[name] = V @ G @ V.conj().T
    return big, lifted


# A lift's reduced operands differ from the drawn ones by the rounding of
# the lifted seed's eigendecomposition.  Geometric spectra span a ratio of
# 1e-6, so their least eigenvalues carry relative errors near 1e-10.
COMPRESSED_TOL = {"uniform": 1e-13, "equal": 1e-13, "geometric": 1e-9}


COMPRESSED_CASES = [
    (law, dim, rank) for law in SPECTRUM_LAWS for dim in (2, 6, 40, 96, 128) for rank in sorted({0, 1, dim // 2, dim})
]


@pytest.mark.parametrize("law,dim,rank", COMPRESSED_CASES)
def test_lifted_instances_reduce_to_the_drawn_operands(law, dim, rank):
    config = SampleConfig(dim=dim, rank=rank, law=law, master_seed=131 * dim + rank)
    space, ops = sample_compressed(config, scale=0.5)
    *facts, drawn = space.reduce_all(list(ops.values()))
    assert all(fact.all() for fact in facts)
    rng = np.random.default_rng(config.master_seed)
    for n in (dim, 2 * dim):
        big, lifted = lift(space, ops, n, rng)
        assert (big.dim, big.rank) == (n, rank) and list(lifted) == list(ops)
        *facts, reduced = big.reduce_all(list(lifted.values()))
        assert all(fact.all() for fact in facts)
        for M, C in zip(reduced, drawn):
            assert np.linalg.norm(M - C) <= COMPRESSED_TOL[law] * np.linalg.norm(C)


def test_lifted_instances_give_the_campaign_report():
    # The campaign's instances, each lifted into dims n = dim and dim + 37,
    # give its counts and argmins, and slacks equal up to rounding.  C15
    # draws its unit vectors from a seed of the bytes of the reduced T,
    # which a lift gives only up to rounding, so only its counts are
    # compared.
    cfg = CampaignConfig(dims=(2, 3, 40), ranks=(0, 1, 2, 3), trials=5, master_seed=13, grid_count=64)
    report = run_campaign(cfg)["checks"]
    rng = np.random.default_rng(14)
    for pad in (0, 37):
        items = []
        for dim, rank in cfg.cells():
            for trial in range(cfg.trials):
                space, ops = campaign._instance(cfg, dim, rank, trial)
                items.append((*lift(space, ops, dim + pad, rng), f"d{dim}_r{rank}_t{trial}"))
        lifted = tightness_report([row for rows in run_many(items, opts=cfg.options()) for row in rows])
        assert list(lifted) == list(report)
        for cid, summary in report.items():
            expected = lifted[cid]
            assert summary.keys() == expected.keys()
            for key in campaign._COUNTS:
                assert summary[key] == expected[key], (pad, cid, key)
            if cid == "C15":
                continue
            assert summary.get("argmin_instance") == expected.get("argmin_instance"), (pad, cid)
            pairs = [(summary[key], expected[key]) for key in ("min_slack", "median_slack", "max_tightness") if key in summary]
            pairs += [(value, expected["note_mins"][key]) for key, value in summary.get("note_mins", {}).items()]
            for got, want in pairs:
                assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (pad, cid)
