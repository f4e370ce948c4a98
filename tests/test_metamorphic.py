"""Metamorphic relations of the radius and Crawford enclosures.

The numerical range W(M) is unchanged by unitary similarity and by
transposition, rotated by e^{i phi} M and mirrored by the adjoint, so the
numerical radius and the Crawford number of U M U*, e^{i phi} M, M^T and
M* equal those of M; those of s M are s times those of M.  Every
enclosure holds its true value, so the enclosures of related matrices
must overlap (after scaling by s), whatever the search does to get them.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semiradius.functionals import radii_and_crawford_numbers


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
