"""Dense Hermitian eigendecompositions, PSD rank decisions, matrix norms.

The seed's eigendecomposition computed here is the one that space.py
derives all of its factors from (see build_space).  Rank decisions use a
relative eigenvalue cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, NoConvergence, NonSquare, NotHermitian, NotPSD

__all__ = [
    "DEFAULT_CUTOFF",
    "HERMITIAN_TOL",
    "PSD_TOL",
    "EigenData",
    "as_matrix",
    "hermitian_eigendecomposition",
    "psd_rank",
    "spectral_norm",
    "spectral_norm_bounds",
    "spectral_norms",
]

# Relative eigenvalue cutoff below which a PSD eigenvalue counts as zero.
DEFAULT_CUTOFF = 1e-10
# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_TOL = 1e-8
# Relative tolerance for accepting small negative eigenvalues as rounding.
PSD_TOL = 1e-8


def as_matrix(M, square: bool = True) -> np.ndarray:
    """Coerce input to a complex128 2-D array.

    Raises NonSquare when a square matrix is required but not supplied.
    """
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise NonSquare(f"expected a 2-D array, got ndim={A.ndim}")
    if square and A.shape[0] != A.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {A.shape}")
    return A


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues (ascending, real) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigendecomposition(M) -> EigenData:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (M + M*)/2 before factorization; inputs whose
    anti-Hermitian part exceeds HERMITIAN_TOL * (1 + |M|) are rejected.
    """
    A = as_matrix(M)
    scale = 1.0 + float(np.max(np.abs(A))) if A.size else 1.0
    dev = float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
    if not dev <= HERMITIAN_TOL * scale:
        raise NotHermitian(f"anti-Hermitian deviation {dev:.3e} exceeds {HERMITIAN_TOL:.1e} * {scale:.3e}")
    H = 0.5 * (A + A.conj().T)
    try:
        values, vectors = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    return EigenData(values=values, vectors=vectors)


def psd_rank(values: np.ndarray, cutoff: float = DEFAULT_CUTOFF) -> int:
    """Numerical rank of a PSD spectrum under a relative cutoff.

    Eigenvalues <= cutoff * lambda_max count as zero; the cutoff must lie
    in [0, 1).  Eigenvalues below -PSD_TOL * max(1, lambda_max) are a hard
    failure, not rounding noise.
    """
    if not 0.0 <= cutoff < 1.0:
        raise BadConfig(f"cutoff must lie in [0, 1), got {cutoff!r}")
    if values.size == 0:
        return 0
    lam_max = float(values[-1])
    floor = -PSD_TOL * max(1.0, lam_max)
    lam_min = float(values[0])
    if lam_min < floor:
        raise NotPSD(f"eigenvalue {lam_min:.3e} below tolerance {floor:.3e}")
    if lam_max <= 0.0:
        return 0
    return int(np.sum(values > cutoff * lam_max))


def spectral_norm(M) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise NonSquare(f"expected a 2-D array, got ndim={A.ndim}")
    return float(spectral_norms(A[None])[0])


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix of a stack; 0.0 for empty ones."""
    A = np.asarray(stack, dtype=np.complex128)
    if A.size == 0:
        return np.zeros(A.shape[:-2])
    try:
        return np.linalg.svd(A, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value computation failed: {exc}") from exc


def spectral_norm_bounds(stack) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lo <= largest singular value <= hi of each matrix of a stack.

    lo is the largest column norm (the norm of the image of a unit basis
    vector), hi the Frobenius norm; neither needs a factorization.
    """
    A = np.asarray(stack, dtype=np.complex128)
    columns = np.add.reduce(A.real**2 + A.imag**2, axis=-2)
    return np.sqrt(np.max(columns, axis=-1, initial=0.0)), np.sqrt(np.add.reduce(columns, axis=-1))
