"""Deterministic random generation of seeds, operators, and vectors.

Every draw is reproducible from integer seeds.  Sub-seeds come from
``derive_seed``, which feeds a derivation path into numpy's splittable
``SeedSequence``.  The full-space samplers, which library users and the
acceptance criteria call, give each operand of a bundle its own stream;
campaigns draw each instance at its reduced size from one generator
(``sample_compressed``).  Adding trials or operands never shifts the
draws of earlier ones: a trial or a stream takes its own derivation
path, and an operand appended to the one generator's draw order is drawn
after every earlier value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, DegenerateSpace, integral
from .space import SemiHilbertSpace, build_space

SPECTRUM_LAWS = ("uniform", "equal", "geometric")

# Smallest-to-largest ratio of the geometric law, chosen to stress the
# rank cutoff from well above it so the numerical rank stays exact.
_GEOMETRIC_SPAN = 1e-6

_BUNDLE_SINGLES = ("T", "S", "X", "Y", "T1", "T2", "S1", "S2")
# The operands' draw order: one stream per name in sample_bundle, one
# generator in sample_compressed.  The coefficients of P and Q come next,
# from the generator that drew R.
_BUNDLE_STREAMS = (*_BUNDLE_SINGLES, "Tsa", "R")


def derive_seed(master: int, *path: int) -> int:
    """Stable 64-bit sub-seed for a derivation path under a master seed."""
    state = np.random.SeedSequence(master, spawn_key=tuple(path)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # The bits of (a + 1j * b) / sqrt(2) for consecutive draws a and b,
    # without the three complex temporaries of that expression.  Only a
    # draw of exactly -0.0 (probability about 2^-53) could differ, in the
    # sign of that zero.
    G = np.empty((rows, cols), dtype=np.complex128)
    G.real = rng.standard_normal((rows, cols))
    G.imag = rng.standard_normal((rows, cols))
    G /= np.sqrt(2.0)
    return G


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    Q, R = np.linalg.qr(_ginibre(rng, n, n))
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


@dataclass(frozen=True)
class SampleConfig:
    """Shape of one random seed operator draw."""

    dim: int
    rank: int
    law: str = "uniform"
    lam_min: float = 0.1
    lam_max: float = 2.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("dim", "rank", "master_seed"):
            object.__setattr__(self, name, integral(name, getattr(self, name)))
        if self.dim < 1:
            raise BadConfig(f"dim must be positive, got {self.dim}")
        if not 0 <= self.rank <= self.dim:
            raise BadConfig(f"rank must lie in [0, {self.dim}], got {self.rank}")
        if self.law not in SPECTRUM_LAWS:
            raise BadConfig(f"unknown spectrum law {self.law!r}")
        if self.rank > 0 and not 0.0 < self.lam_min <= self.lam_max < math.inf:
            raise BadConfig("spectrum bounds need 0 < lam_min <= lam_max < inf")
        if self.master_seed < 0:
            raise BadConfig(f"master_seed must be non-negative, got {self.master_seed}")


def _spectrum(config: SampleConfig, rng: np.random.Generator) -> np.ndarray:
    r = config.rank
    if config.law == "uniform":
        return rng.uniform(config.lam_min, config.lam_max, size=r)
    if config.law == "equal":
        return np.full(r, config.lam_max)
    top = rng.uniform(config.lam_min, config.lam_max)
    ratio = _GEOMETRIC_SPAN ** (1.0 / max(r - 1, 1))
    return top * ratio ** np.arange(r)


def sample_space(config: SampleConfig) -> SemiHilbertSpace:
    """Random PSD seed operator with exact numerical rank ``config.rank``."""
    rng = _as_rng(config.master_seed)
    n, r = config.dim, config.rank
    if r == 0:
        return build_space(np.zeros((n, n)))
    if config.law == "equal" and r == n:
        # Unitary conjugation of a scalar matrix is itself; skip the
        # rotation so the seed comes out exactly scalar.
        return build_space(config.lam_max * np.eye(n))
    lam = _spectrum(config, rng)
    U = haar_unitary(rng, n)
    A = (U[:, :r] * lam) @ U[:, :r].conj().T
    return build_space(0.5 * (A + A.conj().T))


def _check_scale(scale: float) -> None:
    if not 0.0 <= scale < math.inf:
        raise BadConfig(f"scale must be finite and nonnegative, got {scale}")


def _in_BA(space: SemiHilbertSpace, G: np.ndarray) -> np.ndarray:
    """The operator whose matrix in the seed's eigenbasis (null coordinates
    first) is G with its null-to-range block zeroed, in place."""
    n, r = space.dim, space.rank
    G[n - r :, : n - r] = 0.0
    V = space.eigen.vectors
    return V @ G @ V.conj().T


def sample_operator_in_BA(space: SemiHilbertSpace, scale: float = 1.0, seed=0) -> np.ndarray:
    """Random operator that maps the null space of the seed into itself.

    In the eigenbasis of the seed (null coordinates first) the block from
    null to range coordinates is zeroed, which makes the operator both
    adjoint-admitting and seminorm-bounded; no membership test runs.
    """
    _check_scale(scale)
    return _in_BA(space, scale * _ginibre(_as_rng(seed), space.dim, space.dim))


def sample_a_selfadjoint(space: SemiHilbertSpace, seed=0, scale: float = 1.0) -> np.ndarray:
    """Selfadjoint part of a random admissible operator."""
    return space.re_part(sample_operator_in_BA(space, scale, seed))


def sample_sphere(dim: int, count: int, seed=0) -> np.ndarray:
    """Matrix whose columns are independent unit vectors of C^dim, each
    uniform over the sphere."""
    Y = _ginibre(_as_rng(seed), dim, count)
    return Y / np.linalg.norm(Y, axis=0)


def sample_unit_vectors(space: SemiHilbertSpace, count: int, seed=0) -> np.ndarray:
    """Matrix whose columns are independent seminorm-one vectors: the lifts
    of sample_sphere's vectors of the reduced coordinates."""
    if space.rank == 0:
        raise DegenerateSpace("no unit vectors exist for a rank-zero seed")
    return space.coord_lift @ sample_sphere(space.rank, count, seed)


def _quadratics(R: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two quadratics in R, whose coefficients rng draws next."""
    R2 = R @ R
    eye = np.eye(R.shape[0])
    coeffs = _ginibre(rng, 2, 3)
    first = coeffs[0, 0] * eye + coeffs[0, 1] * R + coeffs[0, 2] * R2
    second = coeffs[1, 0] * eye + coeffs[1, 1] * R + coeffs[1, 2] * R2
    return first, second


def sample_commuting_pair(space: SemiHilbertSpace, scale: float = 1.0, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Two commuting admissible operators, polynomials in a common draw."""
    rng = _as_rng(seed)
    return _quadratics(sample_operator_in_BA(space, scale, rng), rng)


def sample_bundle(space: SemiHilbertSpace, scale: float = 1.0, seed: int = 0) -> dict[str, np.ndarray]:
    """Named operand set used by the check catalog, one stream per name:
    the k-th name of _BUNDLE_STREAMS draws from derive_seed(seed, k) an
    n x n Ginibre matrix, which becomes an operand of space.  Tsa is the
    selfadjoint part of its operand; the last stream then draws the
    coefficients of P and Q, two quadratics in its operand R."""
    _check_scale(scale)
    n = space.dim
    out = {}
    for k, name in enumerate(_BUNDLE_STREAMS):
        rng = np.random.default_rng(derive_seed(seed, k))
        out[name] = _in_BA(space, scale * _ginibre(rng, n, n))
    out["Tsa"] = space.re_part(out["Tsa"])
    out["P"], out["Q"] = _quadratics(out.pop("R"), rng)
    return out


def sample_compressed(config: SampleConfig, scale: float = 1.0) -> tuple[SemiHilbertSpace, dict[str, np.ndarray]]:
    """A seed and an operand bundle drawn at their reduced size, from one
    generator seeded by config.master_seed: the seed spectrum, then each
    operand's r x r Ginibre matrix in _BUNDLE_STREAMS order, then the
    coefficients of P and Q, quadratics in R.  The seed is diag(lambda),
    its spectrum in ascending order, as a full seed's eigenbasis orders it.
    The range block of an n x n Ginibre matrix in that eigenbasis is r x r
    Ginibre, so this is the law of sample_space(config) and its
    sample_bundle under scale, compressed to the range of the seed, at no
    cost in config.dim; the values are not those of the full-space draw.
    """
    _check_scale(scale)
    rng = np.random.default_rng(config.master_seed)
    r = config.rank
    space = build_space(np.diag(np.sort(_spectrum(config, rng))))
    out = {name: scale * _ginibre(rng, r, r) for name in _BUNDLE_STREAMS}
    out["Tsa"] = space.re_part(out["Tsa"])
    out["P"], out["Q"] = _quadratics(out.pop("R"), rng)
    return space, out
