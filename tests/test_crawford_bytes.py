"""Crawford enclosure bytes are pinned.

The float.hex ends and the method of radii_and_crawford_numbers' Crawford
enclosures are hashed and compared with a digest recorded once.  The
inputs cover ranges containing 0 (Ginibre matrices and flat U J_n U*),
hidden shifted Jordan blocks whose Crawford number c - cos(pi / (n + 1))
is positive, zero or within 1e-9 relative of zero, diagonal matrices
and extreme scales, at coarse, fine and uneven grids (18 and 33 have 9
and 17 cells on the half circle), at the default gap and at one wide
enough to stop searches early.  Any change to which angles the search
solves that moves a last bit shows here; the inner polygon search takes
no grid, so every grid has the same digest.

tests/data/crawford_enclosures.json records the same enclosures as the
cell branch and bound gave them, without and after a Monte Carlo cap of
4096 samples that the package no longer applies; its keys name the
count.  Every enclosure must overlap each record at its gap
(conftest.reference_enclosures).
Re-record it, only where the record itself must change, with
``PYTHONPATH=src python tests/test_crawford_bytes.py``.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from semiradius.functionals import RadiusOptions, radii_and_crawford_numbers

# Per grid_count, recorded once.
CRAWFORD_SHA256 = {
    4: "70fa9c110417b5a8c81765148ab4587a5dc8d97d615ee39fa056fbc4d4abc07b",
    5: "70fa9c110417b5a8c81765148ab4587a5dc8d97d615ee39fa056fbc4d4abc07b",
    18: "70fa9c110417b5a8c81765148ab4587a5dc8d97d615ee39fa056fbc4d4abc07b",
    33: "70fa9c110417b5a8c81765148ab4587a5dc8d97d615ee39fa056fbc4d4abc07b",
    64: "70fa9c110417b5a8c81765148ab4587a5dc8d97d615ee39fa056fbc4d4abc07b",
    256: "70fa9c110417b5a8c81765148ab4587a5dc8d97d615ee39fa056fbc4d4abc07b",
}


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def hidden_jordan(seed: int, n: int, c: float, phi: float) -> np.ndarray:
    """exp(i phi) U (J_n + c I) U*: its range is the disk of radius
    cos(pi / (n + 1)) about c exp(i phi)."""
    U = np.linalg.qr(random_matrix(seed, n))[0]
    return np.exp(1j * phi) * (U @ (np.diag(np.ones(n - 1), 1) + c * np.eye(n)) @ U.conj().T)


def matrices() -> list:
    mats = [random_matrix(100 + n, n) for n in range(2, 33)]
    for n in (2, 3, 5, 8, 16, 32):
        r = math.cos(math.pi / (n + 1))
        # Phases off every grid of the cases below.
        for k, c in enumerate((0.5 * r, r * (1 - 1e-9), r * (1 + 1e-9), 1.3 * r, 3.0)):
            mats.append(hidden_jordan(n + k, n, c, 0.1234 + 0.777 * k))
        mats.append(hidden_jordan(200 + n, n, 0.0, 0.0))
    mats += [np.diag([1.0, 2.0j, -0.5 + 3.0j]), np.diag([2.0, 3.0 + 1.0j, 2.5 - 0.5j, 4.0]), np.diag([1.0, -1.0])]
    for scale in (1e-8, 1e8):
        mats += [scale * random_matrix(300, 4), scale * hidden_jordan(301, 6, 2.0, 0.5)]
    return mats


# Gap scales.
CASES = (1e-9, 0.3)

# The records of tests/data/crawford_enclosures.json, per grid: the Monte
# Carlo samples of the cap each was taken with, and its gap scale.  Both
# records at gap 1e-9 bound what the search may give at that gap now.
RECORDS = ((0, 1e-9), (4096, 1e-9), (4096, 0.3))


def record_key(grid: int, samples: int, gap_scale: float) -> str:
    """The key of a record in tests/data/crawford_enclosures.json."""
    return f"{grid}-{samples}-{gap_scale}"


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@pytest.mark.parametrize("grid", [4, 5, 18, 33, 64, 256])
def test_crawford_enclosure_bytes_are_pinned(grid):
    records = []
    for gap_scale in CASES:
        opts = RadiusOptions(grid_count=grid, gap_scale=gap_scale)
        stacks = [M[None] for M in matrices()]
        _radii, encs = radii_and_crawford_numbers([], stacks, opts)
        records.append([[encs.lo.item(i).hex(), encs.hi.item(i).hex(), encs[i].method] for i in range(len(stacks))])
    assert digest(records) == CRAWFORD_SHA256[grid]


@pytest.mark.parametrize("grid", list(CRAWFORD_SHA256))
@pytest.mark.parametrize("samples, gap_scale", RECORDS)
def test_crawford_enclosures_overlap_the_reference(grid, samples, gap_scale, reference_enclosures):
    mats = matrices()
    opts = RadiusOptions(grid_count=grid, gap_scale=gap_scale)
    encs = radii_and_crawford_numbers([], [M[None] for M in mats], opts)[1]
    norms = np.array([np.linalg.norm(M, ord=2) for M in mats])
    reference_enclosures("crawford_enclosures.json", record_key(grid, samples, gap_scale), encs, norms, gap_scale)


if __name__ == "__main__":
    records = {}
    for grid in CRAWFORD_SHA256:
        for samples, gap_scale in RECORDS:
            opts = RadiusOptions(grid_count=grid, gap_scale=gap_scale)
            encs = radii_and_crawford_numbers([], [M[None] for M in matrices()], opts)[1]
            records[record_key(grid, samples, gap_scale)] = [[lo.hex(), hi.hex()] for lo, hi in zip(encs.lo.tolist(), encs.hi.tolist())]
    path = pathlib.Path(__file__).with_name("data") / "crawford_enclosures.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=0) + "\n")
