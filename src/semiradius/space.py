"""Semi-inner-product geometry induced by a PSD seed matrix.

A PSD seed A defines the semi-inner product (x, y) -> y* A x and the
seminorm |x|_A.  Vectors enter only through the coordinate map
C = diag(sqrt(kept eigenvalues)) U_r*, which satisfies |C x| = |x|_A.
Operators are plain square matrices; membership in the compatible
algebra is a property of a matrix relative to the seed, read off
reduce_all, and so is selfadjointness for the seed.  Operators that map
the null space of A into itself act on the quotient; their action is
realized on coordinates by an r x r matrix (the "reduced" matrix)
through C.

All factors derived from A (pseudo-inverse, coordinate map and its right
inverse) come from one shared eigendecomposition, so identities that hold
in exact arithmetic hold here to rounding accuracy.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotABounded, NotInBA
from .kernel import (
    DEFAULT_CUTOFF,
    EigenData,
    as_matrix,
    hermitian_eigendecomposition,
    psd_rank,
)

__all__ = ["FACT_TOL", "SemiHilbertSpace", "build_space", "commutes", "is_hermitian"]

# Relative tolerance for the operator membership and selfadjointness tests.
FACT_TOL = 1e-8


class SemiHilbertSpace:
    """Finite-dimensional space carrying a PSD seed matrix.

    Build instances with build_space; the constructor wires the factors
    produced from the seed's eigendecomposition.
    """

    def __init__(self, matrix: np.ndarray, eigen: EigenData, cutoff: float):
        n = matrix.shape[0]
        r = psd_rank(eigen.values, cutoff)  # raises NotPSD on violation
        self.matrix = matrix
        self.eigen = eigen
        self.dim = n
        self.rank = r
        self.cutoff = cutoff

        U_r = eigen.vectors[:, n - r :]
        lam = np.maximum(eigen.values[n - r :], 0.0)
        self.pinv = (U_r * (1.0 / lam if r else lam)) @ U_r.conj().T
        # Coordinate map: r x n, isometry from the quotient onto C^r.
        self.coord_map = np.sqrt(lam)[:, None] * U_r.conj().T
        # Right inverse of the coordinate map on the range.
        self.coord_lift = U_r * (lam**-0.5 if r else lam)
        self.seed_norm = float(lam[-1]) if r else 0.0
        self._range_values = lam
        # Largest |eigenvalue| below the cutoff; it bounds the seed on its
        # numerical null space.  Zero for a rank-0 seed, which counts as zero.
        self._null_norm = float(np.max(np.abs(eigen.values[: n - r]))) if 0 < r < n else 0.0
        self._doubled: SemiHilbertSpace | None = None

    # -- operator membership ---------------------------------------------

    def _as_square(self, M) -> np.ndarray:
        T = as_matrix(M)
        if T.shape[0] != self.dim:
            raise DimensionMismatch(f"operator is {T.shape[0]}x{T.shape[1]}, space dim is {self.dim}")
        return T

    def admits_a_adjoint(self, M) -> bool:
        """Whether the adjoint equation X* seed = seed M has a solution.

        Tested as: the part of M* seed leaving the range of the seed is
        negligible relative to the operator scales involved (see reduce_all).
        """
        return bool(self.reduce_all([M])[0][0])

    def is_a_bounded(self, M) -> bool:
        """Whether the seminorm of M x is controlled by the seminorm of x.

        Tested as: M maps the null space of the seed into itself, i.e. the
        coordinate image of M restricted to the null space is negligible
        (see reduce_all).
        """
        return bool(self.reduce_all([M])[1][0])

    def reduce_all(self, mats) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Membership facts and reduced matrices of a list of operators.

        Returns the boolean arrays ``admits`` and ``bounded`` and the stack
        of r x r reduced matrices, all read off one product Y = U_r* T U per
        operator, where U is the seed's eigenbasis (null columns first),
        U_r its last r columns and Lambda_r the kept eigenvalues.  With W the
        first n - r (null) columns of Y:

        - bounded residual |Lambda_r^(1/2) W|_F, which equals
          |C T P_null|_F for the null-space projector P_null;
        - adjoint residual sqrt(|Lambda_r W|_F^2 + (max|lambda_null| |T|_F)^2),
          never below |P_null T* seed|_F, so accepting on it is the stricter
          test;
        - reduced matrix Lambda_r^(1/2) Y[:, n-r:] Lambda_r^(-1/2), which is
          C T C^+ (see tilde).

        Each residual is compared with FACT_TOL relative to the operator's
        Frobenius norm; Frobenius norms dominate the operator norm on the
        residual side, so acceptance here is the stricter test.  The
        reduced matrix of an operator that fails a test is returned all the
        same; it means nothing there.  A rank-0 seed counts as zero: both
        residuals vanish and every operator passes.
        """
        n, r = self.dim, self.rank
        T = np.stack([self._as_square(M) for M in mats]) if len(mats) else np.zeros((0, n, n), complex)
        U = self.eigen.vectors
        Y = (U[:, n - r :].conj().T @ T) @ U
        W = Y[:, :, : n - r]
        lam = self._range_values
        root = np.sqrt(lam)
        size = _frobenius(T)
        bounded_resid = _frobenius(root[:, None] * W)
        adjoint_resid = np.hypot(_frobenius(lam[:, None] * W), self._null_norm * size)
        admits = adjoint_resid <= FACT_TOL * (1.0 + self.seed_norm * size)
        bounded = bounded_resid <= FACT_TOL * (1.0 + np.sqrt(self.seed_norm) * size)
        reduced = root[:, None] * Y[:, :, n - r :] * lam**-0.5
        return admits, bounded, reduced

    # -- adjoint and reduction -------------------------------------------

    def sharp(self, M) -> np.ndarray:
        """Canonical adjoint solution pinv(seed) M* seed.

        Defined only for operators admitting an adjoint; the result maps
        the range of the seed into itself.
        """
        T = self._as_square(M)
        if not self.reduce_all([T])[0][0]:
            raise NotInBA("operator admits no adjoint for this seed")
        return self.pinv @ T.conj().T @ self.matrix

    def tilde(self, M) -> np.ndarray:
        """Reduced r x r matrix acting on quotient coordinates.

        Satisfies coord_map @ M = tilde(M) @ coord_map for seminorm-bounded
        operators, so every seminorm-based functional of M equals the
        corresponding plain functional of tilde(M).
        """
        _, bounded, reduced = self.reduce_all([M])
        if not bounded[0]:
            raise NotABounded("operator is not bounded for this seminorm")
        return reduced[0]

    def re_part(self, M) -> np.ndarray:
        """Selfadjoint part (M + sharp(M)) / 2."""
        T = self._as_square(M)
        return 0.5 * (T + self.sharp(T))

    def im_part(self, M) -> np.ndarray:
        """Skew part (M - sharp(M)) / (2i); itself selfadjoint for the seed."""
        T = self._as_square(M)
        return -0.5j * (T - self.sharp(T))

    def is_a_selfadjoint(self, M) -> bool:
        """Whether seed @ M is Hermitian: M is selfadjoint for the seed.

        Tested in reduced coordinates.  A selfadjoint M is in the compatible
        algebra, and there seed M = C* tilde(M) C for the coordinate map C,
        so M is selfadjoint exactly when it passes both membership tests
        and tilde(M) is Hermitian (is_hermitian).  Both come from one
        reduce_all call, with no n x n product.  A rank-0 seed counts as
        zero, so every operator is selfadjoint for it.
        """
        admits, bounded, reduced = self.reduce_all([M])
        return bool(admits[0] and bounded[0] and is_hermitian(reduced)[0])

    # -- doubled space and two-by-two blocks -----------------------------

    def double(self) -> "SemiHilbertSpace":
        """Space of twice the dimension seeded by seed (+) seed.

        The doubled eigensystem is assembled from the original one instead of
        refactored, so reductions of block operators keep zero blocks exact.
        """
        if self._doubled is None:
            n = self.dim
            AA = np.zeros((2 * n, 2 * n), dtype=np.complex128)
            AA[:n, :n] = self.matrix
            AA[n:, n:] = self.matrix
            values = np.repeat(self.eigen.values, 2)
            vectors = np.zeros((2 * n, 2 * n), dtype=np.complex128)
            vectors[:n, 0::2] = self.eigen.vectors
            vectors[n:, 1::2] = self.eigen.vectors
            self._doubled = SemiHilbertSpace(AA, EigenData(values=values, vectors=vectors), self.cutoff)
        return self._doubled

    def block2(self, T, S, layout: str = "diagonal") -> np.ndarray:
        """Two-by-two block operator on the doubled space.

        layout "diagonal" places T and S on the diagonal; "antidiagonal"
        places T upper right and S lower left.  Blocks built from admissible
        operators are admissible; this is asserted.
        """
        T, S = self._as_square(T), self._as_square(S)
        n = self.dim
        B = np.zeros((2 * n, 2 * n), dtype=np.complex128)
        if layout == "diagonal":
            B[:n, :n] = T
            B[n:, n:] = S
        elif layout == "antidiagonal":
            B[:n, n:] = T
            B[n:, :n] = S
        else:
            raise DimensionMismatch(f"unknown block layout {layout!r}")
        if self.reduce_all([T, S])[0].all():
            admits, bounded, _ = self.double().reduce_all([B])
            assert admits[0] and bounded[0]
        return B


def _frobenius(T: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack; einsum makes no squared copy
    of the stack, which at large n had every instance re-fault its heap."""
    x = np.ascontiguousarray(T).reshape(*T.shape[:-2], T.shape[-2] * T.shape[-1]).view(np.float64)
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def is_hermitian(reduced: np.ndarray) -> np.ndarray:
    """Whether each matrix M of a stack is Hermitian within tolerance:
    |M - M*|_F <= FACT_TOL (1 + |M|_F), in Frobenius norms as reduce_all
    measures its residuals."""
    return _frobenius(reduced - np.swapaxes(reduced.conj(), -1, -2)) <= FACT_TOL * (1.0 + _frobenius(reduced))


def commutes(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Whether each pair of matrices of two stacks commutes within tolerance:
    |PQ - QP|_F <= FACT_TOL (1 + |P|_F |Q|_F), in Frobenius norms as
    is_hermitian measures."""
    return _frobenius(P @ Q - Q @ P) <= FACT_TOL * (1.0 + _frobenius(P) * _frobenius(Q))


def build_space(A, cutoff: float = DEFAULT_CUTOFF) -> SemiHilbertSpace:
    """Validate a PSD seed matrix and derive all factors from one eigensystem."""
    M = as_matrix(A)
    eigen = hermitian_eigendecomposition(M)
    return SemiHilbertSpace(0.5 * (M + M.conj().T), eigen, cutoff)
