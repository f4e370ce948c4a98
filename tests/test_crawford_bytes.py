"""Crawford enclosure bytes are pinned.

The float.hex ends and the method of radii_and_crawford_numbers' Crawford
enclosures are hashed and compared with a digest recorded once.  The
inputs cover ranges containing 0 (Ginibre matrices and flat U J_n U*),
hidden shifted Jordan blocks whose Crawford number c - cos(pi / (n + 1))
is positive, zero or within 1e-9 relative of zero, diagonal matrices
and extreme scales, at coarse, fine and uneven grids (18 and 33 have 9
and 17 cells on the half circle), with and without the Monte Carlo cap,
and at a gap wide enough for the cap to trim some upper ends.  Any change to which cells the search prunes, refines or evaluates
that moves a last bit shows here.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from semiradius.functionals import DEFAULT_MC_SAMPLES, RadiusOptions, radii_and_crawford_numbers

# Per grid_count, recorded once.
CRAWFORD_SHA256 = {
    4: "74fcaae636bbaa6539e0eeb1878267ea4725c21efdc7e3942b9e32bc14a20922",
    5: "2d97ca3150555e232e9ca725b5d92e373e5c70727fd22969818849bac9369fe6",
    18: "32dc358dcdc920e6c0b0b314efd1fcf522add52273abcaa57bdf96fcc95cf93d",
    33: "dad5cee42eadbc3ad9ac8e20abdd952cd9d8923be3da1cf667f5824b94e906ef",
    64: "0ebefa8bd8a730b1b6059fd2b0f0f6f8709dd8fc356f4c8e0ea830b7e8a1f5e6",
    256: "32f7add88fa57de6a4bc6d846a6abc6ceafe7a0dca7de2a3b977c21a392c6423",
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


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@pytest.mark.parametrize("grid", [4, 5, 18, 33, 64, 256])
def test_crawford_enclosure_bytes_are_pinned(grid):
    records = []
    for samples, gap_scale in ((0, 1e-9), (DEFAULT_MC_SAMPLES, 1e-9), (DEFAULT_MC_SAMPLES, 0.3)):
        opts = RadiusOptions(grid_count=grid, gap_scale=gap_scale, oracle_samples=samples)
        stacks = [M[None] for M in matrices()]
        _radii, encs = radii_and_crawford_numbers([], stacks, opts)
        records.append([[encs.lo.item(i).hex(), encs.hi.item(i).hex(), encs[i].method] for i in range(len(stacks))])
    assert digest(records) == CRAWFORD_SHA256[grid]
