"""Radius enclosure bytes are pinned.

The float.hex ends and the method of radii_and_crawford_numbers' radius
enclosures are hashed and compared with a digest recorded once.  The
inputs cover Ginibre matrices, hidden shifted Jordan blocks, flat
U J_n U* (disk-shaped ranges about 0, which take the dual certificate),
near-Hermitian matrices, rank-one matrices plus a shift, block
antidiagonal matrices [[0, X], [Y, 0]] (searched through their corner),
1e+-8-scaled copies and stacks of several matrices and sizes in one
call, at coarse, odd and fine grids and at two gaps.  Any change to which
cells the search prunes, refines or evaluates that moves a last bit shows
here.

tests/data/radius_enclosures.json records the same enclosures as the cell
branch and bound gave them; every enclosure must overlap its record
(conftest.reference_enclosures).  Re-record it, only where the record
itself must change, with ``PYTHONPATH=src python tests/test_radius_bytes.py``.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from semiradius.functionals import RadiusOptions, radii_and_crawford_numbers

# Per grid_count, recorded once.
RADIUS_SHA256 = {
    4: "5508914dbbbc47117cc234ad3d83b702fead2fe2c54ae66bb0f72f9a088a59f8",
    5: "6b72a9dd27eed584e8506559ecbea06b77e5df6b7d0cb8de5fdfd961817f7304",
    33: "6ced9b479454a7c78457c251e0763e56ce946f561682d4fcff296811a5b09e2c",
    64: "f347a5d3b0869e74da27e17750f41f8b8c7eec47fe772dcfe1ea43364ed44fc1",
    256: "e4362f7f440f4e0bb14e62c7b8b47ead70f82ae85b52c111e41862bc8aae1435",
}


def random_matrix(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def hidden(seed: int, M: np.ndarray) -> np.ndarray:
    """U M U* for a random unitary U, which hides the structure of M."""
    U = np.linalg.qr(random_matrix(seed, M.shape[0]))[0]
    return U @ M @ U.conj().T


def jordan_shift(seed: int, n: int, c: complex) -> np.ndarray:
    """U (J_n + c I) U*: its range is the disk of radius cos(pi / (n + 1))
    about c."""
    return hidden(seed, np.diag(np.ones(n - 1), 1) + c * np.eye(n))


def stacks() -> list:
    """(k, m, m) stacks of every family, several sizes in one list."""
    out = [np.stack([random_matrix(100 + 3 * n + i, n) for i in range(3)]) for n in (2, 3, 4, 5, 6, 8, 12, 16, 32)]
    for n in (3, 5, 16, 32):
        # Centers off every grid of the cases below.
        shifts = [c * np.exp(1j * (0.3141 + 1.1 * k)) for k, c in enumerate((0.2, 1.0, 4.0))]
        out.append(np.stack([jordan_shift(n + k, n, c) for k, c in enumerate(shifts)]))
    out += [jordan_shift(200 + n, n, 0.0)[None] for n in (3, 5, 16)]
    for n in (4, 9):
        H = random_matrix(400 + n, n)
        H = H + H.conj().T
        out.append(np.stack([H + 1j * d * random_matrix(410 + n, n) for d in (1e-6, 1e-10)]))
        u, v = random_matrix(420 + n, n)[:, :2].T
        out.append(np.stack([np.outer(u, v.conj()) + c * np.eye(n) for c in (0.0, 0.5 - 1.5j, 7.0)]))
    for r in (1, 3, 8):
        X, Y = random_matrix(500 + r, r), random_matrix(510 + r, r)
        Z = np.zeros((r, r))
        out.append(np.stack([np.block([[Z, X], [Y, Z]]), np.block([[Z, X], [X.conj().T, Z]])]))
    for scale in (1e-8, 1e8):
        out.append(scale * np.stack([random_matrix(600, 6), jordan_shift(601, 6, 2.0 - 1.0j)]))
        out.append(scale * jordan_shift(602, 5, 0.0)[None])
    return out


GAPS = (1e-9, 1e-4)


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@pytest.mark.parametrize("grid", [4, 5, 33, 64, 256])
def test_radius_enclosure_bytes_are_pinned(grid):
    records = []
    for gap_scale in GAPS:
        encs, _crawfords = radii_and_crawford_numbers(stacks(), [], RadiusOptions(grid_count=grid, gap_scale=gap_scale))
        records.append([[encs.lo.item(i).hex(), encs.hi.item(i).hex(), encs[i].method] for i in range(encs.lo.size)])
    assert digest(records) == RADIUS_SHA256[grid]


@pytest.mark.parametrize("grid", list(RADIUS_SHA256))
@pytest.mark.parametrize("gap_scale", GAPS)
def test_radius_enclosures_overlap_the_reference(grid, gap_scale, reference_enclosures):
    mats = stacks()
    encs = radii_and_crawford_numbers(mats, [], RadiusOptions(grid_count=grid, gap_scale=gap_scale))[0]
    norms = np.concatenate([np.linalg.norm(S, ord=2, axis=(1, 2)) for S in mats])
    reference_enclosures("radius_enclosures.json", f"{grid}-{gap_scale}", encs, norms, gap_scale)


if __name__ == "__main__":
    records = {}
    for grid in RADIUS_SHA256:
        for gap_scale in GAPS:
            encs = radii_and_crawford_numbers(stacks(), [], RadiusOptions(grid_count=grid, gap_scale=gap_scale))[0]
            records[f"{grid}-{gap_scale}"] = [[lo.hex(), hi.hex()] for lo, hi in zip(encs.lo.tolist(), encs.hi.tolist())]
    path = pathlib.Path(__file__).with_name("data") / "radius_enclosures.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(records, indent=0) + "\n")
