"""Certified enclosures for seminorm, numerical radius, Crawford number.

The radius of a matrix M is the maximum over angles of the top eigenvalue
of the rotated Hermitian part H(t) = cos(t) P + sin(t) K, where
P = (M + M*)/2 and K = i (M - M*)/2.  The Crawford number replaces the top
eigenvalue by the bottom one and clamps at zero.  H(t + pi) = -H(t), so
one eigensolve at t answers for t and t + pi: both are computed by branch
and bound over the half circle [0, pi), the radius as the maximum of
max(lambda_max, -lambda_min) of H(t), the Crawford number as
max(0, maximum of max(lambda_min, -lambda_max)).

* every evaluated angle yields an attained value, so the running maximum
  is a true lower bound;
* each cell of half-width w is capped by a rotation certificate.  For the
  radius, the cell holding a maximizing angle (of either half turn)
  satisfies value >= radius * cos(w), giving the cap value / cos(w).  For
  the Crawford number, the bottom eigenvector y of H at the cell center t
  gives the cosine curve s -> Re(exp(is) y* M y), which lies above
  lambda_min(H(s)) and touches it at t; the top eigenvector gives one
  touching at t + pi.  The larger of their exact maxima caps the cell.
  Both curves have amplitude at most |M| and pass at or below the cell
  value v, so v cos(w) + |M| sin(w) caps the cell from its eigenvalues
  alone: a cell whose such cap cannot beat its matrix's floor is pruned
  with it, and only the other cells are eigensolved again for their
  eigenvectors;
* round 0 of a search eigensolves _SUBGRID of its angles per half turn
  first and bounds the value of every other cell from above; a cell whose
  bound, padded for rounding, gives a cap that round 0 would prune is left
  unsolved, the others are eigensolved, and the bounds and surviving cells
  after round 0 are those of solving every cell.  For the radius, the
  subgrid's eigenvalues give the support function h of the range at its
  angles and at those plus pi, and between two such angles the convex
  range keeps h below the vertex of their support lines (C. R. Johnson,
  "Numerical determination of the field of values of a general complex
  matrix", SIAM J. Numer. Anal. 15, 1978).  The bound holds for upper
  bounds of h in place of its values, so its levels run as one loop:
  pencils of at least _FINE_M rows also solve the cells of a subgrid twice
  as fine that the first level leaves alive, and bound the rest again
  from the values solved and the first level's bounds, and pencils of at
  least 2 _FINE_M rows do the same once more on a subgrid four times as
  fine.  For the Crawford number, the probe's eight attained points q_j
  (below) bound lambda_min(H(t)) from above by min_j Re(exp(it) q_j) and
  lambda_max(H(t)) from below by max_j Re(exp(it) q_j), and with them the
  cell's value and its eigenvalue-only cap;
* the Lipschitz cap value + |M| * w is implied: with at least four grid
  angles w is about pi/4 at most, where no rotation cap exceeds it;
* a radius matrix whose objective is flat on the initial grid, so that
  every round-0 cell survives pruning (disk-shaped ranges about 0, such as
  weighted shifts and U J_n U*), is also capped by Ando's dual certificate
  (T. Ando, "Structure of operators with numerical radius one", Acta Sci.
  Math. (Szeged) 34, 1973): omega(M) = min over Hermitian Z of
  lambda_max([[Z, M], [M*, -Z]]), and every Hermitian Z gives an upper
  bound.  Z is fitted to the round-0 eigenvectors, and a flat matrix
  whose certificate meets its gap leaves the search at round 0; the
  others refine as before;
* a Crawford matrix whose round 0 would prune every cell by its
  eigenvalue-only cap never enters the search (_crawford_direct).  The
  bound (above) from attained points of its range, padded for rounding,
  caps every round-0 cell with the margin the search prunes by; when no
  such cap exceeds 0, the matrix gets the enclosure [0, E] the search
  would give it (E the evaluation pad).  The points are first its
  diagonal entries e_j* M e_j, exact and free (Horn and Johnson, "Topics
  in Matrix Analysis", 1991, section 1.2), which settle such a matrix with
  no eigensolve; a matrix they leave a cap above 0 takes eight points
  y* M y instead, from the bottom and top eigenvectors y of H(t) at
  t = k pi / 4: 4 eigensolves instead of the round-0 grid.  The matrices
  neither settles take the eight points' caps into the search's round 0,
  which solves only the cells whose cap exceeds the subgrid's floor.

Cells whose cap cannot beat the running lower bound are pruned; surviving
cells are subdivided until the enclosure gap meets the target or the round
budget runs out.  After the search, Crawford upper ends above 0 are
further capped by a Monte Carlo scan of |y* M y| over random unit vectors,
which bounds the infimum from above; an upper end at 0 cannot be trimmed,
so its matrix is not scanned.  Nor is a matrix whose search proves that
the scan cannot trim it: the eigenpair of +-H(t) that set its lower end,
with the next eigenvalue, bounds |y* M y| from below through the largest
overlap of the scan's vectors with that eigenvector (Davis and Kahan,
SIAM J. Numer. Anal. 7, 1970), and where that bound, padded, reaches the
upper end the matrix keeps the enclosure the scan would leave it.

radii_and_crawford_numbers runs one search for the matrices of lists of
(k, m, m) stacks: each round makes one eigensolve call (per chunk of
cells of bounded size) for the cells of the matrices of one size and
functional; a finished matrix owns no cells.  Each matrix keeps its own
cells, bounds and stopping test, so its enclosure, a row of the
Enclosures returned, is the one it gets alone; numerical_radius and
crawford_number are one-matrix stacks.
Block-antidiagonal matrices [[0, X], [Y, 0]] are searched through the
singular values of the corner of H(t), from r x r instead of 2r x 2r
eigensolves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, NoConvergence, NonSquare, integral
from .kernel import as_matrix, spectral_norms
from .space import SemiHilbertSpace

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_GAP_SCALE",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_MC_SAMPLES",
    "Enclosure",
    "Enclosures",
    "METHODS",
    "RadiusOptions",
    "numerical_radius",
    "crawford_number",
    "radii_and_crawford_numbers",
    "matrix_norms",
    "op_seminorm",
    "a_numerical_radius",
    "crawford",
    "mc_radius_lower",
    "mc_crawford_upper",
    "ipoint",
    "iadd",
    "isub",
    "imul",
    "iscale",
    "isq",
    "isqrt",
    "imax",
    "imin",
    "iabs",
]

DEFAULT_GRID = 256
DEFAULT_GAP_SCALE = 1e-9
DEFAULT_MAX_ROUNDS = 20
DEFAULT_MC_SAMPLES = 4096
# Each refinement round splits every surviving cell in four.
_SUBDIV = 4
# Round 0 of a search eigensolves this many of its angles per half turn
# first, evenly spread, and the other cells only where a bound from them
# cannot prune them (_Pencils._sifted): the support lines through them for
# the radius, the probe's attained points for the Crawford number.
_SUBGRID = 8
# Radius pencils of at least this size sift in two levels: they also solve
# the cells of the subgrid of 2 _SUBGRID angles, which holds the first,
# that the first level's bounds leave alive, before bounding the rest
# (_Pencils._support_sift).  Measured on hidden Ginibre and shifted Jordan
# matrices at the default grid, two levels take 0.96-0.98 of one level's
# time at m = 16 in five runs of six (1.035 in one), 0.81-0.93 at m = 20
# to 32 (shifted Jordan blocks alone: 1.00 at m = 20), and 0.98-1.04 at
# m = 8 and 12, where one more eigensolve call costs about what it saves.
# Pencils of at least 2 _FINE_M rows sift in three, the third through the
# subgrid of 4 _SUBGRID angles: on 12 Ginibre 32 x 32 matrices at the
# default grid that cuts 55.0 eigensolved matrices per call to 50.1, at a
# median 0.92 of two levels' time (ten alternating passes, ten won).
_FINE_M = 16
# Relative half-width assigned to directly computed (non-grid) values.
_EXACT_ERR = 1e-13
# Anti-Hermitian deviation below which the eigenvalue shortcut applies.
_SHORTCUT_TOL = 1e-13
# Evaluated eigenvalues carry backward-stable rounding error of order
# eps * norm, so attained values are only lower bounds up to that much.
_EVAL_ERR = 1e-13
_EPS = float(np.finfo(np.float64).eps)
# Relative margin, times 1 + |M|, by which a Crawford cell's eigenvalue-only
# cap must fall below its matrix's floor to be pruned without eigenvectors.
# With computed eigenvalues within E = _EVAL_ERR (1 + |M|) of the exact
# ones, a cell's eigvalsh and eigh values differ by at most 2E, and the
# curves of its eigh vectors (Rayleigh quotients within E of the exact
# value, |q| within m eps |M| of |M|) pass at most 2E above its eigvalsh
# value, so its vector cap exceeds its eigenvalue-only cap by at most 2E.
# The cell setting the eigvalsh floor is always eigensolved (its cap is at
# least its value), so that floor exceeds the eigh floor by at most 2E.
# Hence a pruned cell's vector cap lies at least margin - 4E below the eigh
# floor, and its eigh value at least margin - 4E below the floor's cell's:
# above 4E plus the rounding of q, cos and sin, the margin prunes only cells
# the vector caps would prune and whose values could not raise the lower
# bound, so enclosures keep their bits.  8E doubles that; measured
# eigvalsh/eigh gaps stay below 0.03E (m = 2 to 48: Ginibre, shifted, flat
# and 1e+-8-scaled Jordan matrices), and no vector cap was measured above
# its eigenvalue-only cap.
_PRUNE_MARGIN = 8 * _EVAL_ERR
# Pad, in units of a matrix's evaluation error E, by which the support-line
# bound of a round-0 radius cell must fall below its matrix's subgrid floor
# (times cos(hw)) for the cell to be left unsolved.  E = _EVAL_ERR (1 + |M|)
# bounds the error of each computed support value (sqrt(_EVAL_ERR) (1 + |M|)
# for antidiagonal pencils, whose values are square roots of eigenvalues of
# Z* Z, each within _EVAL_ERR (1 + |M|)^2: |s' - s|^2 <= |s'^2 - s^2|).  The
# exact support value at t is at most the exact bound, whose weights sum to
# cos((s1 + s2) / 2 - t) / cos(D / 2) <= 1 / cos(D / 2) (D = s2 - s1 <= 2 pi / 9,
# so at most 1.07), so the computed value at t exceeds the bound from
# computed values by at most E + 1.07 E.  The weights come from angles h p
# for integer p, each within about 7 eps of the difference of the true
# directions (fl(h j), plus pi for the other half turn), and sin(D) >=
# sin(pi / 15), so each weight is within about 70 eps and the bound within
# 140 eps (1 + |M|) = 0.31 E of its exact value; the rest of its arithmetic
# and the rounding of bound + pad and of the division by cos(hw) add a few
# eps (1 + |M|).  That is below 2.5 E; 8 E leaves three times that.  The
# second level (_FINE_M) takes first-level bounds for h at the finer
# subgrid's unsolved directions, which h exceeds by at most 1.07 E + 0.31 E
# and a few eps (1 + |M|), below 1.4 E.  There D <= pi / 16 + pi / 17, so
# the weights sum to at most 1.02, and D >= pi / 32, so each weight is
# within about 150 eps and the bound within 0.9 E of its exact value: the
# computed value at t exceeds the second-level bound by at most
# E + 1.02 * 1.4 E + 0.9 E and a few eps (1 + |M|), below 3.4 E, and 8 E
# leaves twice that.  The third level (2 _FINE_M) takes second-level bounds,
# which h exceeds by at most 1.02 * 1.4 E + 0.9 E and a few eps (1 + |M|),
# below 2.4 E.  There, with more than 4 _SUBGRID cells, D <= 2 pi / 33, so
# the weights sum to at most 1.005, and D >= pi / 63 > pi / 64, so each
# weight is within about 290 eps and the bound within 1.5 E of its exact
# value: the computed value at t exceeds the third-level bound by at most
# E + 1.005 * 2.4 E + 1.5 E and a few eps (1 + |M|), below 5 E, and 8 E
# leaves 1.6 times that.  A cell so left then has a computed cap below the
# floor and a computed value below the largest, so lo, hi, the kept cells
# and the flat gate after round 0 are those of solving every cell:
# enclosures keep their bits.
_SUPPORT_PAD = 8.0
# Pad, in units of a matrix's evaluation error E = _EVAL_ERR (1 + |M|), by
# which the points bound of a round-0 Crawford cell (_hull_bounds) is
# raised, with (4m + 16) eps (1 + |M|) more for the points, before its
# eigenvalue-only cap is taken from it (_point_caps).  Each point
# q = y* M y is within about 2m eps (1 + |M|) of the Rayleigh quotient of
# its computed vector y, a point of the range (m eps |M| in the sums, as
# much from |y|^2 - 1).  At a cell's angle, the computed cos and sin c, s
# are, to an ulp, those that built H, and y* (c P + s K) y = c Re q - s Im q,
# so the bound holds for the computed pencil up to the rounding of P, K and
# H (in E, as for _PRUNE_MARGIN), of q and of c Re q - s Im q (3 eps |q|,
# with the ulp of c and s); the computed value exceeds the exact one by at
# most E.  The computed value is thus at most the computed bound plus
# E + (2m + 4) eps (1 + |M|), and the sum with the pad rounds by an eps
# more; 2 E + (4m + 16) eps (1 + |M|) doubles that.  The diagonal points
# q = M_jj carry no rounding at all (y = e_j exactly, |y| = 1), so the pad
# covers them with room to spare.  The cap and test of _Pencils.evaluate,
# computed from a value no smaller than the cell's, are no smaller than
# the cell's own, as rounding is monotone; so a cell whose such cap does
# not exceed a floor would be pruned against it.  Every floor is at least
# 0: a matrix none of whose caps exceeds 0 has every cell pruned, and
# _crawford_direct writes the enclosure its search would.  In the round-0
# sift a cell whose cap does not exceed the subgrid's floor
# F = max(subgrid values, 0) is left unsolved: it would be pruned against
# the floor, which is at least F, and its value is below F too, as a value
# v > F would give a cap v cos(hw) + |M| sin(hw) >= v - E sin(hw)
# (|M| >= v - E, cos + sin >= 1), above F - margin.  So the floor, the candidates and lo after round 0 are
# those of solving every cell, and the cell's cap (-inf, not a value below
# the floor by the margin) changes only upper ends below 0, which the
# caller clamps at 0: enclosures keep their bits.
_POINT_PAD = 2.0
# Pad, in units of a matrix's evaluation error E = _EVAL_ERR (1 + |M|), by
# which the eigenpair bound of _Pencils.untrimmable is lowered, with
# (32m + 64) eps (1 + |M|) more, before it is set against the upper end.
# mu1, mu2 and u come from eigh of the computed H at one cell.  eigh
# is backward stable: its eigenvalues are exactly those of a Hermitian G'
# within E of the exact +-H(t) at the computed cos and sin (E covers the
# eigensolver and the rounding of P, K and H, as for _PRUNE_MARGIN), and
# u is within m eps of a unit eigenvector u' of G' for mu1.  Every other
# eigenvalue of G' is at least mu2, so y* G' y >= mu2 |y|^2 - (mu2 - mu1)
# |u'* y|^2 (the Rayleigh quotient off an eigenvector: Davis and Kahan,
# "The rotation of eigenvectors by a perturbation. III", SIAM J. Numer.
# Anal. 7, 1970), and |y* M y| >= y* (+-H(t)) y >= y* G' y - E |y|^2, up
# to an eps of |cos + i sin| (y* H(t) y = Re(exp(it) y* M y)).  A scan
# vector has |y|^2 within (m + 3) eps of 1; |u'* y|^2 exceeds the computed
# overlap by at most (6m + 4) eps (m eps for u, 2m eps for the rounding of
# u* y, 3 eps for abs and the square), which mu2 - mu1 <= 2 |M| + 2 E
# doubles; the bound's own arithmetic adds 12 eps (1 + |M|), and the
# scan's computed |q| may lie (2m + 4) eps (1 + |M|) below the exact one.
# So every |q| the scan computes is at least the computed bound less
# E + (15m + 29) eps (1 + |M|), which the pad more than doubles.  A padded
# bound no smaller than max(hi, lo, 0) leaves the scan's minimum no
# smaller, so cap + err < hi cannot hold: the enclosure is the scan's.
_PAIR_PAD = 2.0
_MC_CHUNK = 1 << 13
# Relative distance from the top within which eigenvalues of a dual
# certificate's block matrix count as one cluster.
_CLUSTER = 1e-6
# Bytes of per-cell matrices (rotated matrices for one eigensolve call,
# Crawford operands for y* M y) a search builds at once.
_CHUNK_BYTES = 1 << 22


# Methods by precedence: an interval computed from several takes the last.
METHODS = ("exact", "oracle", "grid")


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] certified to contain the true value."""

    lo: float
    hi: float
    method: str  # "grid" | "exact" | "oracle"

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise NoConvergence("enclosure ends are not finite")
        if self.lo > self.hi:
            raise BadConfig(f"enclosure lo {self.lo!r} exceeds hi {self.hi!r}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def code(self) -> int:
        return METHODS.index(self.method)


class Enclosures:
    """Enclosures of many quantities: arrays lo, hi and method indices in
    METHODS.  An integer index gives one Enclosure, a slice a stack."""

    __slots__ = ("lo", "hi", "code")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, code: np.ndarray):
        self.lo, self.hi, self.code = lo, hi, code

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Enclosures(self.lo[i], self.hi[i], self.code[i])
        return Enclosure(self.lo.item(i), self.hi.item(i), METHODS[self.code.item(i)])


@dataclass(frozen=True)
class RadiusOptions:
    """Knobs for the half-circle branch and bound and its Monte Carlo cap.

    The search starts from grid_count angles around the circle, that is
    ceil(grid_count / 2) cells on the half circle, and refines for at most
    DEFAULT_MAX_ROUNDS rounds towards the enclosure gap
    gap_scale * (1 + |M|) per matrix.  oracle_samples drives the Monte
    Carlo cap applied after the search to the Crawford enclosures whose
    upper ends lie above 0 (no other can be trimmed); its vectors come
    from stream 0.  Such an enclosure is scanned only where the search's
    own eigenpair does not prove that the cap cannot trim it; either way it
    is the enclosure the scan gives.
    """

    grid_count: int = DEFAULT_GRID
    gap_scale: float = DEFAULT_GAP_SCALE
    oracle_samples: int = DEFAULT_MC_SAMPLES

    def __post_init__(self):
        if integral("grid_count", self.grid_count) < 4:
            raise BadConfig("grid_count must be at least 4")
        if not 0.0 < self.gap_scale < math.inf:
            raise BadConfig("gap_scale must be positive and finite")
        if integral("oracle_samples", self.oracle_samples) < 0:
            raise BadConfig("oracle_samples must be nonnegative")

    def resolve_gap(self, norm: float) -> float:
        return self.gap_scale * (1.0 + norm)


# -- interval helpers ------------------------------------------------------
#
# The helpers take Enclosure values, Enclosures stacks, or one of each, and
# compute stacks elementwise with the doubles of the scalar case.  _min and
# _max keep Python's min and max, which return the first of equal values
# (-0.0 or 0.0); np.minimum and np.maximum return the second.


def _min(a, b):
    return np.minimum(b, a)


def _max(a, b):
    return np.maximum(b, a)


def _made(lo, hi, a, b=None):
    """An interval of ends lo and hi whose method joins those of a and b:
    a stack when either is one."""
    code = a.code if b is None else np.maximum(a.code, b.code)
    if isinstance(a, Enclosures) or isinstance(b, Enclosures):
        return Enclosures(lo, hi, code)
    return Enclosure(float(lo), float(hi), METHODS[code])


def ipoint(value: float, method: str = "exact", err: float = 0.0) -> Enclosure:
    return Enclosure(value - err, value + err, method)


def iadd(a, b):
    return _made(a.lo + b.lo, a.hi + b.hi, a, b)


def isub(a, b):
    return _made(a.lo - b.hi, a.hi - b.lo, a, b)


def imul(a, b):
    p, q, s, t = a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi
    return _made(_min(_min(_min(p, q), s), t), _max(_max(_max(p, q), s), t), a, b)


def iscale(c: float, a):
    lo, hi = c * a.lo, c * a.hi
    return _made(_min(lo, hi), _max(lo, hi), a)


def isq(a):
    """imul(a, a), whose products lo * hi and hi * lo are equal."""
    p, q, t = a.lo * a.lo, a.lo * a.hi, a.hi * a.hi
    return _made(_min(_min(p, q), t), _max(_max(p, q), t), a)


def isqrt(a):
    """Square root, clamping negative rounding at zero."""
    return _made(np.sqrt(_max(a.lo, 0.0)), np.sqrt(_max(a.hi, 0.0)), a)


def imax(a, b):
    return _made(_max(a.lo, b.lo), _max(a.hi, b.hi), a, b)


def imin(a, b):
    return _made(_min(a.lo, b.lo), _min(a.hi, b.hi), a, b)


def iabs(a):
    lo, hi = abs(a.lo), abs(a.hi)
    return _made(np.where((a.lo <= 0.0) & (0.0 <= a.hi), 0.0, _min(lo, hi)), _max(lo, hi), a)


# -- rotated Hermitian pencil ----------------------------------------------


def _pencil(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian and skew parts P, K of a matrix or a stack of matrices."""
    Mh = np.swapaxes(M.conj(), -1, -2)
    return 0.5 * (M + Mh), 0.5j * (M - Mh)


def _rotated(Pv, Kv, seg, ts, H, S):
    """H(t) = cos(t) P + sin(t) K for each cell, with the pencil of its
    matrix; Pv and Kv are the float views of the stacked pencils.  H is
    built in the float array H, with the sin(t) K terms in S, both of
    ts.size matrices."""
    c, s = np.cos(ts)[:, None, None], np.sin(ts)[:, None, None]
    if Pv.shape[0] == 1:
        # One matrix: broadcasting saves gathering a copy per cell.
        np.multiply(c, Pv[0], out=H)
        np.multiply(s, Kv[0], out=S)
    else:
        # seg holds valid rows: "clip" spares take's buffered "raise" mode.
        np.multiply(np.take(Pv, seg, axis=0, out=H, mode="clip"), c, out=H)
        np.multiply(np.take(Kv, seg, axis=0, out=S, mode="clip"), s, out=S)
    H += S
    return H.view(np.complex128)


def _extremes(H, vectors: bool = False):
    """Bottom and top eigenvalues of each matrix of a stack; with vectors,
    also their eigenvectors and the next eigenvalues in from each end."""
    if H.shape[-1] == 2 and not vectors:
        a, d, b = H[:, 0, 0].real, H[:, 1, 1].real, H[:, 0, 1]
        mean = 0.5 * (a + d)
        rad = np.sqrt(0.25 * (a - d) ** 2 + np.abs(b) ** 2)
        return mean - rad, mean + rad
    try:
        if vectors:
            w, V = np.linalg.eigh(H)
            return w[:, 0], w[:, -1], V[:, :, 0], V[:, :, -1], w[:, 1], w[:, -2]
        w = np.linalg.eigvalsh(H)
        return w[:, 0], w[:, -1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"batched eigendecomposition failed: {exc}") from exc


def _quad_forms(M: np.ndarray, Y: np.ndarray, Yc: np.ndarray) -> np.ndarray:
    """y* M y for every column y of Y, Yc its conjugate; the products are
    formed in the buffer of M @ Y."""
    MY = M @ Y
    return np.add.reduce(np.multiply(Yc, MY, out=MY), axis=0)


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return np.mod(x + np.pi, 2.0 * np.pi) - np.pi


def _joined(parts: list):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _in_chunks(step: int, f, *arrays):
    """f of the arrays, sliced along their first axis into chunks of at
    most step rows, its results (arrays or tuples of arrays) joined."""
    if len(arrays[0]) <= step:
        return f(*arrays)
    parts = [f(*(x[a : a + step] for x in arrays)) for a in range(0, len(arrays[0]), step)]
    return tuple(map(_joined, zip(*parts))) if isinstance(parts[0], tuple) else _joined(parts)


def _runs(seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first cell of each run of the nondecreasing seg, and its matrix."""
    starts = np.concatenate(([True], seg[1:] != seg[:-1])).nonzero()[0]
    return starts, seg[starts]


class _Pencils:
    """The matrices of one size and one functional in a search: float
    views of their parts P and K, their spectral norms, and for the
    Crawford search (crawford) the matrices themselves and the caps of
    their round-0 cells from the probe's points (_crawford_direct).

    Radius matrices [[0, X], [Y, 0]] may be marked antidiagonal: then H(t)
    is [[0, Z(t)], [Z(t)*, 0]], whose eigenvalues are +-sigma(Z(t)), so
    only the upper right corners of P and K are kept and the extremes come
    from the r x r matrices Z* Z instead of 2r x 2r eigensolves.
    """

    def __init__(self, P: np.ndarray, K: np.ndarray, norms, crawford=None, antidiagonal: bool = False):
        if antidiagonal:
            r = P.shape[1] // 2
            P, K = np.ascontiguousarray(P[:, :r, r:]), np.ascontiguousarray(K[:, :r, r:])
        self.antidiagonal = antidiagonal
        self.m = P.shape[1]
        self.Pv, self.Kv, self.L = P.view(np.float64), K.view(np.float64), norms
        self.A, self.caps = (None, None) if crawford is None else crawford
        # Per round, the Crawford cells eigensolved with their vectors: their
        # matrices, values mu1 = max(lambda_min, -lambda_max) and, for G = H
        # or -H, whichever has mu1 at its bottom, the next eigenvalue mu2 of
        # G and the eigenvector u of mu1 (untrimmable).
        self.pairs = []
        # Cells per eigensolve call or quadratic-form batch, so that the
        # per-cell matrices built at once stay within _CHUNK_BYTES.
        self.step = max(1, _CHUNK_BYTES // (16 * self.m * self.m))
        self.bufs = (np.empty(0), np.empty(0))  # see _buffers

    def extremes(self, seg: np.ndarray, ts: np.ndarray, vectors: bool = False) -> tuple:
        """Extremes of H at the cells (seg, ts): bottom and top eigenvalues,
        and with vectors their eigenvectors and the next eigenvalues."""
        return _in_chunks(self.step, functools.partial(self._extremes, vectors=vectors), seg, ts)

    def _buffers(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Two float arrays of n matrices of the pencils' shape, for
        _rotated: views of arrays grown on demand and reused by every
        eigensolve call of the search."""
        if len(self.bufs[0]) < n:
            self.bufs = tuple(np.empty((n,) + self.Pv.shape[1:]) for _ in range(2))
        return self.bufs[0][:n], self.bufs[1][:n]

    def _extremes(self, seg: np.ndarray, ts: np.ndarray, vectors: bool):
        H = _rotated(self.Pv, self.Kv, seg, ts, *self._buffers(ts.size))
        if not self.antidiagonal:
            return _extremes(H, vectors)
        # sigma_max(Z)^2 = lambda_max(Z* Z), to within eps |Z|^2.
        s = np.sqrt(np.maximum(_extremes(np.swapaxes(H.conj(), -1, -2) @ H)[1], 0.0))
        return -s, s

    def evaluate(self, seg: np.ndarray, ts: np.ndarray, hw: float, lower: np.ndarray, first: bool):
        """Objective values and caps of the cells (seg, ts) of half-width hw.

        lower holds the running lower bound of each matrix.  A Crawford
        cell whose cap cannot beat its matrix's floor is pruned with a cap
        from its eigenvalues alone: its value is -inf, so it sets no lower
        bound.  At round 0 (first), the cells go through _sifted, whose
        unsolved cells get value -inf and cap -inf.  The eigenpairs of the
        Crawford cells solved with vectors are kept in pairs."""
        v = self._sifted(seg, ts, hw) if first else self._values(seg, ts)
        if self.A is None:
            return v, v / np.cos(hw)
        # Every curve of bound() has amplitude |y* M y| <= |M| and passes at
        # or below v at the cell center, so v cos(d) + |M| sin(|d|) lies
        # above it at distance d; as |v| <= |M| and hw <= pi/4, that grows
        # with |d| up to hw (the 1e-12 widening of hw moves it by far less
        # than the margin).
        L = self.L[seg]
        caps = v * np.cos(hw) + L * np.sin(hw)
        starts, mats = _runs(seg)
        floor = np.maximum(lower, 0.0)
        floor[mats] = np.maximum(floor[mats], np.maximum.reduceat(v, starts))
        cand = np.flatnonzero(caps + _PRUNE_MARGIN * (1.0 + L) > floor[seg])
        vals = np.full(v.size, -np.inf)
        if cand.size:
            seg, ts = seg[cand], ts[cand]
            wmin, wmax, ymin, ymax, wnext, wprev = self.extremes(seg, ts, vectors=True)
            neg = -wmax
            vals[cand] = mu1 = np.maximum(wmin, neg)
            caps[cand] = self.bound(*_in_chunks(self.step, self._forms, seg, ymin, ymax), ts, hw)
            bottom = wmin >= neg
            self.pairs.append((seg, mu1, np.where(bottom, wnext, -wprev), np.where(bottom[:, None], ymin, ymax)))
        return vals, caps

    def _values(self, seg: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Values of H at the cells: max(lambda_max, -lambda_min) for the
        radius, max(lambda_min, -lambda_max) for the Crawford number."""
        wmin, wmax = self.extremes(seg, ts)
        return np.maximum(wmax, -wmin) if self.A is None else np.maximum(wmin, -wmax)

    def _sifted(self, seg: np.ndarray, ts: np.ndarray, hw: float) -> np.ndarray:
        """Values of the round-0 cells (seg, ts) of half-width hw: every
        matrix's cells, in order, at the same angles h j.  The _SUBGRID
        cells are solved first; a cell that a bound from them proves pruned
        (_support_sift for the radius; for the Crawford number, a cap from
        the probe's points, in caps, that does not exceed the subgrid's
        floor) is not solved and gets -inf, so it sets no lower bound and
        survives no pruning.

        Only round 0 is sifted: there each matrix's subgrid is solved.  A
        later round's matrix whose cells were all left unsolved would get
        hi = lo from their -inf caps."""
        k = self.L.size
        half = ts.size // k
        if half <= _SUBGRID or self.m == 2:
            # 2 x 2 extremes come in closed form, cheaper than the bounds.
            return self._values(seg, ts)
        ts = ts[:half]
        vals = np.full((k, half), -np.inf)
        if self.A is None:
            alive = self._support_sift(ts, hw, vals)
        else:
            known = _sift_plan(half, _SUBGRID)[0]
            vals[:, known] = self._values(np.arange(k).repeat(known.size), np.tile(ts[known], k)).reshape(k, -1)
            # Round 0 starts from no lower bound.
            alive = self.caps > np.maximum(vals.max(axis=1), 0.0)[:, None]
            alive[:, known] = False
        mats, cells = np.nonzero(alive)
        if mats.size:
            vals[mats, cells] = self._values(mats, ts[cells])
        return vals.ravel()

    def _support_sift(self, ts: np.ndarray, hw: float, vals: np.ndarray) -> np.ndarray:
        """Which round-0 radius cells at the angles ts to solve, a (k, half)
        mask, once the cells of the subgrid of _SUBGRID angles, for pencils
        of at least _FINE_M rows those of the subgrid of 2 _SUBGRID angles
        that the first level leaves alive, and for pencils of at least
        2 _FINE_M rows those of the subgrid of 4 _SUBGRID angles that the
        second leaves alive, are solved into vals.

        lambda_max(H(s)) is the support function h(s) of the range W(M), and
        -lambda_min(H(s)) = h(s + pi): each solved cell gives h at two
        directions of the doubled circle.  For t between known s1 < s2
        (s2 - s1 < pi), convexity of W puts its support line at t below the
        vertex of those at s1 and s2 (Johnson 1978):
            h(t) <= (h(s1) sin(s2 - t) + h(s2) sin(t - s1)) / sin(s2 - s1),
        which bounds the value max(h(t), h(t + pi)) of the cell at t.  A
        cell whose bound, padded (_SUPPORT_PAD), over cos(hw) stays below
        the largest value solved is left unsolved.  The weights are >= 0, so
        upper bounds of h(s1) and h(s2) in place of the values bound h(t)
        too: support holds, at the directions h p, p = 0 .. 2 half (the
        last the first a full turn on), the values solved or the bounds of
        the level before."""
        k, half = vals.shape
        pad = _SUPPORT_PAD * (math.sqrt(_EVAL_ERR) if self.antidiagonal else _EVAL_ERR) * (1.0 + self.L)[:, None]
        cos = np.cos(hw)
        support = np.empty((k, 2 * half + 1))
        alive = np.ones((k, half), dtype=bool)
        # Subgrids of 2 _SUBGRID and 4 _SUBGRID angles for pencils of at
        # least _FINE_M and 2 _FINE_M rows, where they leave cells over.
        finer = [c for c, rows in ((2 * _SUBGRID, _FINE_M), (4 * _SUBGRID, 2 * _FINE_M)) if self.m >= rows and half > c]
        for count in [_SUBGRID] + finer:
            known, other, p, p1, p2, w1, w2 = _sift_plan(half, count)
            mats, cols = np.nonzero(alive[:, known])
            if mats.size:
                cells = known[cols]
                wmin, wmax = self.extremes(mats, ts[cells])
                vals[mats, cells] = np.maximum(wmax, -wmin)
                support[mats, cells], support[mats, cells + half] = wmax, -wmin
            alive[:, known] = False
            support[:, -1] = support[:, 0]
            support[:, p] = bound = support[:, p1] * w1 + support[:, p2] * w2
            n = other.size
            alive[:, other] &= (np.maximum(bound[:, :n], bound[:, n:]) + pad) / cos >= vals.max(axis=1)[:, None]
        return alive

    def untrimmable(self, which: np.ndarray, top: np.ndarray, blocks) -> np.ndarray:
        """Which Crawford matrices which, of upper ends top > 0 after the
        search, the Monte Carlo cap of the vector blocks could not trim: a
        (which.size,) mask, from one product u* Y per block and no
        eigensolve.

        Each matrix takes the pair (mu1, mu2, u) of its first cell of
        largest value in pairs, the cell that set its lower end: an upper
        end above 0 needs an eigensolved cell, as a search whose cells are
        all pruned from their eigenvalues ends below 0.  For unit y,
        |y* M y| >= y* G y >= mu1 + (mu2 - mu1) (1 - |u* y|^2): G = +-H(t)
        at that cell has every eigenvalue but mu1 at least mu2.  A bound
        from the largest overlap |u* y|^2, padded (_PAIR_PAD), that
        reaches top caps no scanned |y* M y| below it."""
        seg, mu1, mu2, u = map(_joined, zip(*self.pairs))
        order = np.lexsort((-mu1, seg))
        cell = order[np.searchsorted(seg[order], which)]
        U = u[cell].conj()
        overlap = np.zeros(which.size)
        for Y, _Yc in blocks:
            np.maximum(overlap, np.abs(U @ Y).max(axis=1), out=overlap)
        pad = (_PAIR_PAD * _EVAL_ERR + (32 * self.m + 64) * _EPS) * (1.0 + self.L[which])
        mu1 = mu1[cell]
        return mu1 + (mu2[cell] - mu1) * (1.0 - overlap * overlap) - pad >= top

    def _forms(self, seg: np.ndarray, *Ys: np.ndarray) -> tuple:
        """y* M y for each cell's matrix M and its vector y in each of Ys."""
        A = self.A[0] if self.A.shape[0] == 1 else np.take(self.A, seg, axis=0)
        return tuple(np.add.reduce(Y.conj() * np.add.reduce(A * Y[:, None, :], axis=2), axis=1) for Y in Ys)

    def dual(self, which: np.ndarray, ts: np.ndarray, lower: np.ndarray, gap: np.ndarray) -> np.ndarray:
        """Ando's dual upper bound for the radius of the matrices which, from
        the attaining eigenvectors at the angles ts, their lower bounds and
        their target gaps.

        omega(M) = min over Hermitian Z of lambda_max([[Z, M], [M*, -Z]]),
        and every Hermitian Z bounds it from above: v = [x; exp(it) x] / sqrt 2
        gives v* B v = Re(exp(it) x* M x).  Z is fitted to the complementary
        slackness equations Z x_t = lower x_t - exp(it) M x_t by least
        squares over the attaining vectors x_t and made Hermitian.  At the
        optimum the top eigenvalue of B is multiple, which the fit misses
        when the x_t are ill-conditioned; so where its bound misses the gap,
        one first-order step moves the top eigenvalues of B towards one
        common value, and the smaller bound of the two is kept.
        """
        per = max(1, self.step // ts.size)
        return _in_chunks(per, functools.partial(self._dual, ts), which, lower, gap)

    def _dual(self, ts: np.ndarray, which: np.ndarray, lower: np.ndarray, gap: np.ndarray) -> np.ndarray:
        k, n, m = which.size, ts.size, self.m
        Pv, Kv = self.Pv[which], self.Kv[which]
        H = _rotated(Pv, Kv, np.arange(k).repeat(n), np.tile(ts, k), *self._buffers(k * n))
        wmin, wmax, vmin, vmax = _extremes(H, vectors=True)[:4]
        # Where -lambda_min attains, the bottom vector is the top one at t + pi.
        bottom = -wmin > wmax
        X = np.swapaxes(np.where(bottom[:, None], vmin, vmax).reshape(k, n, m), 1, 2)
        phase = (np.exp(1j * np.tile(ts, k)) * np.where(bottom, -1.0, 1.0)).reshape(k, 1, n)
        M = Pv.view(np.complex128) - 1j * Kv.view(np.complex128)
        try:
            Z = (lower[:, None, None] * X - phase * (M @ X)) @ np.linalg.pinv(X)
            Z = 0.5 * (Z + np.swapaxes(Z.conj(), 1, 2))
            w, V = np.linalg.eigh(_ando(Z, M))
            cap = _top(w)
            loose = np.flatnonzero(cap - np.maximum(lower, 0.0) > gap)
            if loose.size:
                Z = Z[loose] + np.stack([_equalizing_step(w[j], V[j], m) for j in loose])
                cap[loose] = np.minimum(cap[loose], _top(np.linalg.eigvalsh(_ando(Z, M[loose]))))
            return cap
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"dual bound failed: {exc}") from exc

    @staticmethod
    def bound(qmin: np.ndarray, qmax: np.ndarray, centers: np.ndarray, hw: float) -> np.ndarray:
        """The Crawford rotation certificate of cells of half-width hw from
        q = y* M y at the bottom and the top eigenvectors y."""
        # y* H(s) y = Re(exp(is) q) lies above lambda_min(H(s)) for every s;
        # the top eigenvector's curve, taken at s = t + pi, is
        # Re(exp(it) (-q)).  Each curve's exact maximum over the cell.
        bounds = []
        for q in (qmin, -qmax):
            dist = np.abs(_wrap_angle(-np.angle(q) - centers))
            bounds.append(np.abs(q) * np.cos(np.maximum(dist - hw, 0.0)))
        return np.maximum(*bounds)


def _ando(Z: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The stack of Hermitian matrices [[Z, M], [M*, -Z]]."""
    return np.block([[Z, M], [np.swapaxes(M.conj(), 1, 2), -Z]])


def _top(w: np.ndarray) -> np.ndarray:
    """Top eigenvalues of a stack from its eigenvalues w, padded by their
    rounding error."""
    return w[:, -1] + _EVAL_ERR * (1.0 + np.maximum(w[:, -1], -w[:, 0]))


def _equalizing_step(w: np.ndarray, V: np.ndarray, m: int) -> np.ndarray:
    """The Hermitian dZ that moves, to first order, the top eigenvalues of
    B = [[Z, M], [M*, -Z]] (eigenpairs w, V) to one common value: least
    squares on V1* dZ V1 - V2* dZ V2 - mu I = diag(w_max - w_i) over the
    eigenvectors [V1; V2] within _CLUSTER of the top, as in Overton's
    method for the maximum eigenvalue (SIAM J. Matrix Anal. Appl. 9,
    1988).  Zero when that system would exceed _CHUNK_BYTES."""
    top = w >= w[-1] - _CLUSTER * (1.0 + max(w[-1], -w[0]))
    V1, V2 = V[:m, top], V[m:, top]
    c = V1.shape[1]
    if 16 * c * c * (m * m + 1) > _CHUNK_BYTES:
        return np.zeros((m, m), dtype=np.complex128)
    L = np.einsum("ja,kb->abjk", V1.conj(), V1) - np.einsum("ja,kb->abjk", V2.conj(), V2)
    A = np.concatenate([L.reshape(c * c, m * m), -np.eye(c).reshape(c * c, 1)], axis=1)
    dZ = np.linalg.lstsq(A, np.diag(w[-1] - w[top]).reshape(-1), rcond=None)[0][:-1].reshape(m, m)
    return 0.5 * (dZ + dZ.conj().T)


@functools.lru_cache(maxsize=16)
def _sift_plan(half: int, count: int) -> tuple:
    """What round 0 of half cells sifts with count subgrid angles (count <
    half): the subgrid's cells, the other cells, and for each of the other
    cells' directions t, then t + pi, its position and those of its known
    neighbours s1 < t < s2 (p of angle h p on the doubled circle, 0 to
    2 half) and their weights sin(s2 - t) / sin(s2 - s1) and
    sin(t - s1) / sin(s2 - s1)."""
    known = np.arange(count) * half // count
    other = np.delete(np.arange(half), known)
    # The known directions, then the first again a full turn on.
    pos = np.concatenate([known, known + half, [2 * half]])
    p = np.concatenate([other, other + half])
    right = np.searchsorted(pos, p)
    p1, p2 = pos[right - 1], pos[right]
    h = np.pi / half
    span = np.sin(h * (p2 - p1))
    plan = (known, other, p, p1, p2, np.sin(h * (p2 - p)) / span, np.sin(h * (p - p1)) / span)
    for a in plan:
        a.flags.writeable = False
    return plan


def _first_cells(opts: RadiusOptions) -> tuple[int, float, float]:
    """The round-0 cells of a search: their count on the half circle, the
    spacing of their centers and their half-width, widened against
    rounding."""
    half = (opts.grid_count + 1) // 2
    h = np.pi / half
    return half, h, 0.5 * h * (1.0 + 1e-12)


def _search(groups: list[_Pencils], gap, opts: RadiusOptions):
    """Half-circle branch and bound over stacks of pencils.

    Radius matrices maximize max(lambda_max, -lambda_min) of H(t) over
    [0, pi), Crawford matrices max(lambda_min, -lambda_max).  gap holds
    the per-matrix targets in group order.  Returns per-matrix arrays
    (lo, hi) before the evaluation pad.

    Every matrix owns its cells, bounds and stopping test, and finishes as
    soon as its own gap is met, so its result does not depend on the other
    matrices.  The cells are the only state that shrinks: seg holds the
    matrix of each cell, nondecreasing, so cells stay grouped by matrix
    and matrices by group, and a finished matrix owns no cells.  Per
    round, one eigensolve call per group (per chunk of cells) serves
    every matrix of the group that owns cells.

    Round 0 of a group eigensolves its subgrid, then, in a second call,
    only the cells that a bound from it cannot prune (_Pencils._sifted):
    support lines for the radius, in two levels for pencils of at least
    _FINE_M rows (a third call) and in three for pencils of at least
    2 _FINE_M rows (a fourth), and for the Crawford number the caps
    from the probe's attained points (_crawford_direct) against the
    subgrid's floor.  The bounds and surviving cells after round 0 are
    those of solving every cell.

    An unfinished radius matrix all of whose round-0 cells survive pruning
    (a flat objective) has its upper end capped for the rest of the search
    by Ando's dual certificate (_Pencils.dual).  Antidiagonal pencils and
    Crawford matrices take none.  Crawford cells pruned from their
    eigenvalues alone (_Pencils.evaluate) set no lower bound, so a matrix
    all of whose cells are so pruned finishes with lo = -inf, which the
    caller clamps at 0.
    """
    half, h, hw = _first_cells(opts)
    k = gap.size
    first = np.cumsum([0] + [g.Pv.shape[0] for g in groups]).tolist()  # first matrix of each group, then k
    seg = np.arange(k).repeat(half)
    centers = np.tile(h * np.arange(half), k)
    lo, hi, cap = np.full(k, -np.inf), np.empty(k), np.full(k, np.inf)
    halves = (2.0 * np.arange(_SUBDIV) + 1.0 - _SUBDIV) / _SUBDIV
    for round_no in range(DEFAULT_MAX_ROUNDS + 1):
        cells = np.searchsorted(seg, first).tolist()
        parts = [
            g.evaluate(seg[c:d] - f, centers[c:d], hw, lo[f:e], round_no == 0)
            for g, f, e, c, d in zip(groups, first, first[1:], cells, cells[1:])
            if c < d
        ]
        vals, ub = map(_joined, zip(*parts))
        starts, mats = _runs(seg)
        lo[mats] = lo_m = np.maximum(lo[mats], np.maximum.reduceat(vals, starts))
        hi[mats] = np.maximum(lo_m, np.minimum(np.maximum.reduceat(ub, starts), cap[mats]))
        if round_no == DEFAULT_MAX_ROUNDS:
            break
        floor = np.maximum(lo, 0.0)
        done = np.maximum(hi, 0.0) - floor <= gap
        # Cells that can beat the running lower bound of an unfinished matrix.
        keep = ub > np.where(done, np.inf, floor)[seg]
        if round_no == 0:
            # Matrices no rotation cap could prune get dual caps, which may
            # meet their gaps.
            _dual_caps(groups, first, np.bincount(seg[keep], minlength=k) == half, lo, gap, centers[:half], cap)
            hi = np.maximum(lo, np.minimum(hi, cap))
            done = np.maximum(hi, 0.0) - floor <= gap
            keep &= ~done[seg]
        centers = (centers[keep][:, None] + hw * halves).reshape(-1)
        seg = seg[keep].repeat(_SUBDIV)
        if not seg.size:
            break
        hw /= _SUBDIV
    # A met gap keeps hi, and so does a matrix still owning cells when the
    # rounds run out; no surviving cell means the running lower bound is
    # the maximum.
    out = np.maximum(hi, 0.0) - np.maximum(lo, 0.0) > gap
    out[seg] = False
    hi[out] = lo[out]
    return lo, hi


def _dual_caps(groups, first, flat, lower, gap, ts, caps) -> None:
    """Dual caps, into caps, for the radius matrices whose objective is flat
    on the initial grid of angles ts: the unfinished ones all of whose
    cells survive pruning, where the rotation caps cannot narrow the
    enclosure.  first holds the first matrix of each group."""
    for g, f, e in zip(groups, first, first[1:]):
        which = np.flatnonzero(flat[f:e])
        if which.size and g.A is None and not g.antidiagonal:
            caps[f + which] = g.dual(which, ts, lower[f + which], gap[f + which])


def _by_size(stacks, first: int = 0):
    """The rows of (k, m, m) stacks, numbered from first, grouped by m:
    the row count and (rows, joined stack) per size."""
    groups: dict[int, tuple[list, list]] = {}
    for S in stacks:
        S = np.asarray(S, dtype=np.complex128)
        if S.ndim != 3 or S.shape[1] != S.shape[2]:
            raise NonSquare(f"expected a stack of square matrices, got shape {S.shape}")
        rows, parts = groups.setdefault(S.shape[1], ([], []))
        rows.append(np.arange(first, first + len(S)))
        parts.append(S)
        first += len(S)
    out = [(_joined(rows), _joined(parts)) for rows, parts in groups.values()]
    if not all(np.isfinite(A).all() for _rows, A in out):
        raise NoConvergence("matrix has non-finite entries")
    return first, out


def _put(out: Enclosures, rows, v, err=None) -> None:
    """Directly computed nonnegative values v into out at rows (whose method
    is "exact"), padded by err, by default their relative rounding pad."""
    err = _EXACT_ERR * v if err is None else err
    out.lo[rows], out.hi[rows] = _max(v - err, 0.0), v + err


def _abs_entries(A: np.ndarray) -> np.ndarray:
    """|a| for each 1 x 1 matrix of a stack, by Python's abs: np.abs of a
    complex array can differ from it in the last bit."""
    return np.array([abs(a) for a in A[:, 0, 0]])


def _radius_direct(A: np.ndarray, rows: np.ndarray, out: Enclosures) -> tuple:
    """Radii of a stack of m x m matrices, m >= 2, that need no search, into
    out at their rows; returns (stack positions, P, K, norms) of the others."""
    d = A.diagonal(axis1=1, axis2=2)
    direct = np.count_nonzero(A, axis=(1, 2)) == np.count_nonzero(d, axis=1)
    # Diagonal matrix: the range is the hull of the entries.
    _put(out, rows[direct], np.abs(d[direct]).max(axis=1))
    if A.shape[1] == 2:
        # Zero diagonal: the range is an ellipse centered at zero with
        # major semi-axis (|b| + |c|) / 2 from the off entries.
        ellipse = ~direct & ~d.any(axis=1)
        sums = [abs(complex(b)) + abs(complex(c)) for b, c in zip(A[ellipse, 0, 1], A[ellipse, 1, 0])]
        _put(out, rows[ellipse], 0.5 * np.array(sums))
        direct |= ellipse
    rest = np.flatnonzero(~direct)
    M = A[rest]
    P, K = _pencil(M)
    L = spectral_norms(M)
    # Shortcut: (skew-)Hermitian up to delta means the radius is the
    # largest absolute eigenvalue of the dominant part, up to delta.
    tol = _SHORTCUT_TOL * (1.0 + L)
    # No entry exceeds the spectral norm, so a part with an entry above the
    # tolerance (doubled against rounding) fails the test without one.
    normP, normK = np.full(rest.size, np.inf), np.full(rest.size, np.inf)
    near = np.flatnonzero(np.minimum(abs(P).max(axis=(1, 2)), abs(K).max(axis=(1, 2))) <= 2.0 * tol)
    if near.size:
        s = spectral_norms(np.concatenate([P[near], K[near]]))
        normP[near], normK[near] = s[: near.size], s[near.size :]
    use_p = normK <= tol
    short = use_p | (normP <= tol)
    if short.any():
        w = np.linalg.eigvalsh(np.where(use_p[:, None, None], P, K)[short])
        delta = np.where(use_p, normK, normP)[short]
        v = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        _put(out, rows[rest[short]], v, delta + _EVAL_ERR * (1.0 + L[short]))
    grid = ~short
    return rest[grid], P[grid], K[grid], L[grid]


def _crawford_direct(M: np.ndarray, rows: np.ndarray, out: Enclosures, opts: RadiusOptions) -> tuple:
    """Crawford numbers of a stack of m x m matrices, m >= 2, whose round-0
    search would prune every cell, into out at their rows; returns (stack
    positions, P, K, norms, caps of the round-0 cells) of the others.

    A cell's cap here (_point_caps) is the eigenvalue-only cap and pruning
    margin of _Pencils.evaluate taken from an upper bound of the cell's
    computed value from points of the range (_hull_bounds): as rounding is
    monotone, it is no smaller than the cell's own padded cap.  Every floor
    of the search is at least 0, so a matrix none of whose caps exceeds 0
    has every cell pruned; its search ends with lo = -inf and hi <= 0,
    scans no Monte Carlo cap, and writes [0, E] with E = _EVAL_ERR (1 + |M|),
    method "grid", whatever the eigenvalues: that is written here.  Any
    sound padded bound serves: the bound from the diagonal entries
    (_diagonal_bounds), taken only where they surround 0, settles a matrix
    with no eigensolve and no pencil built, and only the matrices it does
    not settle take the probe's (_point_bounds), 4 eigensolves each.
    """
    half, h, hw = _first_cells(opts)
    ts, m = h * np.arange(half), M.shape[1]
    L = spectral_norms(M)
    # Probe matrices (4 per matrix) and forms (8 per cell, m for the
    # diagonal) built at once stay within _CHUNK_BYTES.
    step = max(1, _CHUNK_BYTES // (64 * (m * m + half) + 8 * m * half))
    # Diagonal points all in a closed half-plane of the real or the
    # imaginary axis keep the diagonal bound at the cell nearest 0 or
    # pi / 2 above -|M| sin(hw) + pad, and that cell's cap above 0; two
    # points do the same at the cell nearest their segment's normal.  Only
    # the matrices of at least 3 rows whose diagonal points surround 0,
    # with Re(z d_j) > 0 at some j for each z = 1, -1, i, -i, take the
    # diagonal caps.
    d = M.diagonal(axis1=1, axis2=2)
    rest = np.arange(len(M))
    near = np.flatnonzero((d[:, :, None] * (1, -1, 1j, -1j)).real.max(axis=1).min(axis=1) > 0.0) if m > 2 else rest[:0]
    if near.size:
        caps = _point_caps(_in_chunks(step, functools.partial(_diagonal_bounds, ts), M[near], L[near]), L[near], hw)
        rest = np.delete(rest, near[~(caps > 0.0).any(axis=1)])
    P = K = np.empty((0, m, m))
    caps = np.empty((0, half))
    if rest.size:
        Mr, Lr = (M, L) if rest.size == len(M) else (M[rest], L[rest])
        P, K = _pencil(Mr)
        caps = _point_caps(_in_chunks(step, functools.partial(_point_bounds, ts), Mr, P, K, Lr), Lr, hw)
        keep = (caps > 0.0).any(axis=1)
        rest, P, K, caps = rest[keep], P[keep], K[keep], caps[keep]
    fired = np.ones(len(M), dtype=bool)
    fired[rest] = False
    done = rows[fired]
    out.lo[done], out.hi[done], out.code[done] = 0.0, _EVAL_ERR * (1.0 + L[fired]), METHODS.index("grid")
    return rest, P, K, L[rest], caps


def _point_caps(bounds: np.ndarray, L: np.ndarray, hw: float) -> np.ndarray:
    """The eigenvalue-only caps of round-0 Crawford cells of half-width hw,
    raised by the pruning margin, from upper bounds of their values."""
    return bounds * np.cos(hw) + L[:, None] * np.sin(hw) + _PRUNE_MARGIN * (1.0 + L[:, None])


def _diagonal_bounds(ts: np.ndarray, M: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Upper bounds of the Crawford values of H at the angles ts for each
    matrix of a stack (norms L), a (k, cells) array, from its diagonal
    entries M_jj = e_j* M e_j, exact points of its range (_hull_bounds)."""
    return _hull_bounds(ts, M.diagonal(axis1=1, axis2=2), M.shape[1], L)


def _point_bounds(ts: np.ndarray, M, P, K, L) -> np.ndarray:
    """Upper bounds of the Crawford values of H at the angles ts for each
    matrix of a stack (parts P, K, norms L), a (k, cells) array, from
    eight attained points of its range (_hull_bounds).

    The bottom and top eigenvectors y of H(t) at t = j pi / 4 (H scaled by
    sqrt 2 at the odd j, which keeps its eigenvectors) give the points
    q = y* M y."""
    k, m = M.shape[:2]
    H = np.concatenate([P, P + K, K, K - P], axis=1).reshape(4 * k, m, m)
    ymin, ymax = _extremes(H, vectors=True)[2:4]
    Y = np.concatenate([ymin, ymax], axis=1).reshape(k, 8, m)
    q = np.add.reduce(Y.conj() * (Y @ np.swapaxes(M, 1, 2)), axis=2)
    return _hull_bounds(ts, q, m, L)


def _hull_bounds(ts: np.ndarray, q: np.ndarray, m: int, L: np.ndarray) -> np.ndarray:
    """Upper bounds of the Crawford values of H at the angles ts, a
    (k, cells) array, for each m x m matrix of a stack (norms L) whose
    range holds the points of its row of q, padded (_POINT_PAD).

    A point of the range, q = y* M y for a unit vector y, has
    y* H(t) y = Re(exp(it) q), so lambda_min(H(t)) <= min_j Re(exp(it) q_j)
    and lambda_max(H(t)) >= max_j Re(exp(it) q_j): the value
    max(lambda_min, -lambda_max) is at most the larger of the first and
    minus the second."""
    q = q[:, :, None]
    forms = q.real * np.cos(ts) - q.imag * np.sin(ts)
    pad = (_POINT_PAD * _EVAL_ERR + (4 * m + 16) * _EPS) * (1.0 + L)
    return np.maximum(forms.min(axis=1), -forms.max(axis=1)) + pad[:, None]


def _mc_unit_rows(rng, count: int, dim: int) -> np.ndarray:
    Y = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(Y, axis=1)
    # A zero draw has probability zero; guard against it anyway.
    norms[norms == 0.0] = 1.0
    return Y / norms[:, None]


def _mc_vectors(samples: int, seed: int, dim: int):
    """Seeded random unit vectors, samples of them in all, as the columns
    of dim x chunk blocks Y, each given with its conjugate."""
    rng = np.random.default_rng(seed)
    for done in range(0, samples, _MC_CHUNK):
        Y = np.ascontiguousarray(_mc_unit_rows(rng, min(_MC_CHUNK, samples - done), dim).T)
        yield Y, Y.conj()


@functools.lru_cache(maxsize=16)
def _cap_vectors(samples: int, dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The vector blocks of the Crawford cap scan with their conjugates,
    read-only and drawn once.

    Every cap of one size scans the same vectors (stream 0), so the draw,
    which costs more than the scan, is shared by all Crawford calls.
    """
    blocks = tuple(_mc_vectors(samples, 0, dim))
    for pair in blocks:
        for Y in pair:
            Y.flags.writeable = False
    return blocks


def _mc_extreme(M: np.ndarray, blocks, reduce_max: bool) -> float:
    best = -np.inf if reduce_max else np.inf
    for Y, Yc in blocks:
        vals = np.abs(_quad_forms(M, Y, Yc))
        best = max(best, float(np.max(vals))) if reduce_max else min(best, float(np.min(vals)))
    return best


def _checked(out: Enclosures) -> Enclosures:
    """out, once its ends are finite and ordered."""
    if not (np.isfinite(out.lo).all() and np.isfinite(out.hi).all()):
        raise NoConvergence("enclosure ends are not finite")
    bad = np.flatnonzero(out.lo > out.hi)
    if bad.size:
        raise BadConfig(f"enclosure lo {out.lo.item(bad[0])!r} exceeds hi {out.hi.item(bad[0])!r}")
    return out


def radii_and_crawford_numbers(radius_stacks, crawford_stacks, opts: RadiusOptions = RadiusOptions()):
    """Radius enclosures of the matrices of radius_stacks and Crawford
    enclosures of those of crawford_stacks, lists of (k, m, m) arrays of
    any sizes, from one search whose rounds serve both: an Enclosures
    stack over the joined rows of each list.  Each enclosure equals the
    one its matrix gets alone."""
    n_radii, radius_groups = _by_size(radius_stacks)
    n, crawford_groups = _by_size(crawford_stacks, n_radii)
    # Rows left alone are exact zeros: empty matrices, and Crawford numbers
    # of matrices with a zero diagonal, where a basis vector attains zero.
    out = Enclosures(np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.intp))
    for rows, A in radius_groups + crawford_groups:
        if A.shape[1] == 1:
            # The radius and the Crawford number of a 1 x 1 matrix are |a|.
            _put(out, rows, _abs_entries(A))
    searches = []  # (pencils, rows of out) per searched group
    for rows, A in radius_groups:
        if A.shape[1] < 2:
            continue
        pos, P, K, L = _radius_direct(A, rows, out)
        # [[0, X], [Y, 0]] with square blocks X and Y.
        searched, r = A[pos], A.shape[1] // 2
        diagonal_blocks = searched[:, :r, :r].any(axis=(1, 2)) | searched[:, r:, r:].any(axis=(1, 2))
        antidiagonal = (A.shape[1] % 2 == 0) & ~diagonal_blocks
        for part, anti in ((~antidiagonal, False), (antidiagonal, True)):
            if part.any():
                searches.append((_Pencils(P[part], K[part], L[part], antidiagonal=anti), rows[pos[part]]))
    for rows, A in crawford_groups:
        rest = np.flatnonzero(A.diagonal(axis1=1, axis2=2).any(axis=1))
        if A.shape[1] < 2 or not rest.size:
            continue
        M = A[rest]
        pos, P, K, L, caps = _crawford_direct(M, rows[rest], out, opts)
        if pos.size:
            searches.append((_Pencils(P, K, L, (M[pos], caps)), rows[rest[pos]]))
    if searches:
        groups, targets = zip(*searches)
        L, rows = np.concatenate([g.L for g in groups]), np.concatenate(targets)
        lo, hi = _search(list(groups), opts.resolve_gap(L), opts)
        # The Monte Carlo cap, >= 0, can trim only upper ends above 0, and
        # is scanned only where the search's eigenpair does not prove that
        # it cannot trim them; with no samples it is the vacuous +inf.
        cap, top, first = np.full(L.size, np.inf), np.maximum(hi, lo), 0
        for g in groups:
            which = np.flatnonzero(top[first : first + g.L.size] > 0.0)
            if g.A is not None and which.size:
                # Drawn once per size, on first need.
                blocks = _cap_vectors(opts.oracle_samples, g.m)
                spared = g.untrimmable(which, top[first + which], blocks)
                for i in which[~spared]:
                    cap[first + i] = _mc_extreme(g.A[i], blocks, reduce_max=False)
            first += g.L.size
        err = _EVAL_ERR * (1.0 + L)
        hi = _max(_max(hi, lo), 0.0) + err
        lo = _max(lo - err, 0.0)
        capped = cap + err < hi
        out.lo[rows], out.hi[rows] = lo, np.where(capped, _max(cap + err, lo), hi)
        out.code[rows] = np.where(capped, METHODS.index("oracle"), METHODS.index("grid"))
    _checked(out)
    return out[:n_radii], out[n_radii:]


def numerical_radius(M, opts: RadiusOptions = RadiusOptions()) -> Enclosure:
    """Certified enclosure of the numerical radius of a square matrix."""
    return radii_and_crawford_numbers([as_matrix(M)[None]], [], opts)[0][0]


def crawford_number(M, opts: RadiusOptions = RadiusOptions()) -> Enclosure:
    """Certified enclosure of the Crawford number (distance from zero to
    the numerical range, zero when the range contains zero)."""
    return radii_and_crawford_numbers([], [as_matrix(M)[None]], opts)[1][0]


def matrix_norms(stacks) -> Enclosures:
    """Spectral norm enclosures of the matrices of a list of (k, m, m)
    arrays of any sizes, with their relative rounding pads: an Enclosures
    stack over the joined rows, from one singular value call per size."""
    n, groups = _by_size(stacks)
    out = Enclosures(np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.intp))
    for rows, A in groups:
        _put(out, rows, _abs_entries(A) if A.shape[1] == 1 else spectral_norms(A))
    return _checked(out)


def op_seminorm(space: SemiHilbertSpace, T) -> Enclosure:
    """Operator seminorm, the spectral norm of the reduced matrix."""
    return matrix_norms([space.tilde(T)[None]])[0]


def a_numerical_radius(space: SemiHilbertSpace, T, opts: RadiusOptions = RadiusOptions()) -> Enclosure:
    """Numerical radius taken in the semi-inner product geometry."""
    return numerical_radius(space.tilde(T), opts)


def crawford(space: SemiHilbertSpace, T, opts: RadiusOptions = RadiusOptions()) -> Enclosure:
    """Crawford number taken in the semi-inner product geometry."""
    return crawford_number(space.tilde(T), opts)


def mc_radius_lower(space: SemiHilbertSpace, T, samples: int, seed: int = 0) -> float:
    """Monte Carlo lower bound: the best |y* My| over sampled unit vectors.

    Always <= the true radius; 0.0 when no samples are drawn or the
    reduced space is trivial.
    """
    if integral("samples", samples) < 0:
        raise BadConfig("samples must be nonnegative")
    red = space.tilde(T)
    if samples == 0 or red.shape[0] == 0:
        return 0.0
    return _mc_extreme(red, _mc_vectors(samples, seed, red.shape[0]), reduce_max=True)


def mc_crawford_upper(space: SemiHilbertSpace, T, samples: int, seed: int = 0) -> float:
    """Monte Carlo upper bound: the worst |y* My| over sampled unit vectors.

    Always >= the true Crawford number.  With no samples the vacuous bound
    is +inf; a trivial reduced space gives 0.0.
    """
    if integral("samples", samples) < 0:
        raise BadConfig("samples must be nonnegative")
    red = space.tilde(T)
    if red.shape[0] == 0:
        return 0.0
    if samples == 0:
        return math.inf
    return _mc_extreme(red, _mc_vectors(samples, seed, red.shape[0]), reduce_max=False)
