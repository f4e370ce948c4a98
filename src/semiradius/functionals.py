"""Certified enclosures for seminorm, numerical radius, Crawford number.

The radius of a matrix M is the maximum over angles of the top eigenvalue
of the rotated Hermitian part H(t) = cos(t) P + sin(t) K, where
P = (M + M*)/2 and K = i (M - M*)/2.  The Crawford number replaces the top
eigenvalue by the bottom one and clamps at zero.  H(t + pi) = -H(t), so
one eigensolve at t answers for t and t + pi.  y* H(t) y = Re(exp(it) q)
for the point q = y* M y of the numerical range W(M), so lambda_max(H(t))
is the support function h of W in the direction -t: one eigensolve gives
two support lines of W, and its bottom and top eigenvectors two points.

The radius, the maximum of max(lambda_max, -lambda_min) of H(t), comes
from branch and bound over the half circle [0, pi):

* every evaluated angle yields an attained value, so the running maximum
  is a true lower bound;
* the cell holding a maximizing angle (of either half turn) of half-width
  w satisfies value >= radius * cos(w), giving the cap value / cos(w), and
  the Lipschitz cap value + |M| * w is implied: with at least four grid
  angles w is about pi/4 at most, where no rotation cap exceeds it;
* round 0 of a search eigensolves _SUBGRID of its angles per half turn
  first and bounds the value of every other cell from above; a cell whose
  bound, padded for rounding, gives a cap that round 0 would prune is left
  unsolved, the others are eigensolved, and the bounds and surviving cells
  after round 0 are those of solving every cell.  The subgrid's
  eigenvalues give h at its angles and at those plus pi, and between two
  such angles the convex range keeps h below the vertex of their support
  lines (C. R. Johnson, "Numerical determination of the field of values of
  a general complex matrix", SIAM J. Numer. Anal. 15, 1978).  The bound
  holds for upper bounds of h in place of its values, so its levels run as
  one loop: pencils of at least _FINE_M rows also solve the cells of a
  subgrid twice as fine that the first level leaves alive, and bound the
  rest again from the values solved and the first level's bounds, and
  pencils of at least 2 _FINE_M rows do the same once more on a subgrid
  four times as fine;
* a matrix whose subgrid values are flat, all within cos(w) of their
  largest, which their caps leave short of its gap (disk-shaped ranges
  about 0, such as weighted shifts and U J_n U*), solves no other round-0
  cell: it is capped by Ando's dual certificate (T. Ando, "Structure of
  operators with numerical radius one", Acta Sci. Math. (Szeged) 34,
  1973), omega(M) = min over Hermitian Z of lambda_max([[Z, M], [M*, -Z]]),
  every Hermitian Z giving an upper bound, whose fit eigensolves every
  round-0 angle and so gives every round-0 value.  A flat matrix whose
  certificate meets its gap leaves the search at round 0; the others
  refine as before;
* cells whose cap cannot beat the running lower bound are pruned;
  surviving cells are subdivided until the enclosure gap meets the target
  or the budget runs out: DEFAULT_MAX_ROUNDS rounds, or _MAX_CELLS cells
  eigensolved per matrix.

The Crawford number, c(M) = max(0, max over t of lambda_min(H(t))), the
distance from 0 to W, comes from an inner polygon of W (_inner_search):

* the diagonal entries e_j* M e_j are exact points of W (Horn and
  Johnson, "Topics in Matrix Analysis", 1991, section 1.2): a matrix whose
  diagonal entries surround 0 has c(M) = 0 and is settled with no
  eigensolve (_crawford_direct);
* every solved lambda_min(H(t)), a support line of W, bounds c from
  below, and the distance from 0 to the hull of the attained points
  bounds it from above, as the hull lies in W;
* each step solves the direction of the hull's nearest point to 0 (E. G.
  Gilbert, "An iterative procedure for computing the minimum of a
  quadratic form on a convex set", SIAM J. Control 4, 1966) and that of
  the disk fitted to its two best solves, exact where W is a disk.

radii_and_crawford_numbers runs one search per functional for the
matrices of lists of (k, m, m) stacks, each round or step one eigensolve
call (per bounded chunk) per size.  Each matrix keeps its own cells or
polygon, bounds and stopping test, so its enclosure is the one it gets
alone; numerical_radius and crawford_number are one-matrix stacks.
Block-antidiagonal matrices [[0, X], [Y, 0]] are searched through the
singular values of the corner of H(t), from r x r eigensolves.
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
# Each refinement round splits every surviving cell in four.
_SUBDIV = 4
# Cells a radius search eigensolves per matrix at most (its budget).  Flat
# ranges whose dual certificate misses its gap refine every cell, 4 times
# more per round: hidden J4 + J3 takes 43,658 at the default gap.
_MAX_CELLS = 1 << 16
# Round 0 of a radius search eigensolves this many of its angles per half
# turn first, evenly spread, and the other cells only where the support
# lines through them cannot prune them (_Pencils._sifted).
_SUBGRID = 8
# Radius pencils of at least this size sift in two levels: they also solve
# the cells of the subgrid of 2 _SUBGRID angles, which holds the first,
# that the first level's bounds leave alive, before bounding the rest
# (_Pencils._support_sift); pencils of at least 2 _FINE_M rows sift in
# three, through the subgrid of 4 _SUBGRID angles.  Measured at the default
# grid, two levels take 0.81-0.98 of one level's time at m = 16 to 32 and
# about the same at m = 8 and 12; three cut a 32 x 32 Ginibre radius from
# 55.0 to 50.1 eigensolved matrices, at 0.92 of two levels' time.
_FINE_M = 16
# Relative half-width assigned to directly computed (non-grid) values.
_EXACT_ERR = 1e-13
# Anti-Hermitian deviation below which the eigenvalue shortcut applies.
_SHORTCUT_TOL = 1e-13
# Evaluated eigenvalues carry backward-stable rounding error of order
# eps * norm, so attained values are only lower bounds up to that much.
_EVAL_ERR = 1e-13
_EPS = float(np.finfo(np.float64).eps)
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
# floor and a computed value below the largest, so lo, hi and the kept
# cells after round 0 are those of solving every cell: the bits are kept.
_SUPPORT_PAD = 8.0
_MC_CHUNK = 1 << 13
# Relative distance from the top within which eigenvalues of a dual
# certificate's block matrix count as one cluster.
_CLUSTER = 1e-6
# Directions of a Crawford search's probe, its first step, evenly spread
# over the half circle.
_PROBE = 4
# Bytes of per-cell matrices (rotated matrices for one eigensolve call,
# Crawford operands for y* M y) a search builds at once.
_CHUNK_BYTES = 1 << 22


# Methods by precedence: an interval computed from several takes the last.
METHODS = ("exact", "grid")


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] certified to contain the true value."""

    lo: float
    hi: float
    method: str  # "grid" | "exact"

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
    """Knobs for the radius and Crawford searches.

    gap_scale sets each enclosure's target width gap_scale * (1 + |M|).
    grid_count applies to the radius alone: its branch and bound starts
    from ceil(grid_count / 2) cells on the half circle, solves at round 0
    only those that the support lines of a subgrid of 8 angles cannot
    prune, and refines until DEFAULT_MAX_ROUNDS rounds pass or a matrix's
    next round would take it past _MAX_CELLS eigensolved cells, either way
    with a sound enclosure.  The Crawford inner polygon takes no grid and
    at most DEFAULT_MAX_ROUNDS steps.
    """

    grid_count: int = DEFAULT_GRID
    gap_scale: float = DEFAULT_GAP_SCALE

    def __post_init__(self):
        if integral("grid_count", self.grid_count) < 4:
            raise BadConfig("grid_count must be at least 4")
        if not 0.0 < self.gap_scale < math.inf:
            raise BadConfig("gap_scale must be positive and finite")

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


def _rotated(PK, seg, ts):
    """H(t) = cos(t) P + sin(t) K for each cell, with the pencil of its
    matrix: PK holds each matrix's P and K as two rows of floats, so that
    one product with the rows (cos t, sin t) builds every H."""
    cs = np.empty((ts.size, 2))
    np.cos(ts, out=cs[:, 0])
    np.sin(ts, out=cs[:, 1])
    # One matrix broadcasts; several are gathered per cell ("clip" spares
    # take's buffered "raise" mode).  Both take the same stacked product,
    # so a matrix gets the same H in either.
    H = np.matmul(cs[:, None, :], PK if len(PK) == 1 else np.take(PK, seg, axis=0, mode="clip"))
    m = math.isqrt(PK.shape[2] // 2)
    return H.view(np.complex128).reshape(ts.size, m, m)


def _extremes(H, vectors: bool = False):
    """Bottom and top eigenvalues of each matrix of a stack; with vectors,
    also their eigenvectors."""
    if H.shape[-1] == 2 and not vectors:
        a, d, b = H[:, 0, 0].real, H[:, 1, 1].real, H[:, 0, 1]
        mean = 0.5 * (a + d)
        rad = np.sqrt(0.25 * (a - d) ** 2 + np.abs(b) ** 2)
        return mean - rad, mean + rad
    try:
        if vectors:
            w, V = np.linalg.eigh(H)
            return w[:, 0], w[:, -1], V[:, :, 0], V[:, :, -1]
        w = np.linalg.eigvalsh(H)
        return w[:, 0], w[:, -1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"batched eigendecomposition failed: {exc}") from exc


def _quad_forms(M: np.ndarray, Y: np.ndarray, Yc: np.ndarray) -> np.ndarray:
    """y* M y for every column y of Y, Yc its conjugate; the products are
    formed in the buffer of M @ Y."""
    MY = M @ Y
    return np.add.reduce(np.multiply(Yc, MY, out=MY), axis=0)


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


def _holds_zero(z: np.ndarray) -> np.ndarray:
    """Whether the hull of each row of points z holds 0: a point is 0, or no
    gap between their sorted arguments exceeds pi, so that no open
    half-plane through 0 holds them all."""
    a = np.sort(np.angle(z), axis=1)
    gap = np.maximum((a[:, 1:] - a[:, :-1]).max(axis=1, initial=0.0), a[:, 0] + 2.0 * np.pi - a[:, -1])
    return (gap <= np.pi) | (z == 0.0).any(axis=1)


_pairs = functools.lru_cache(maxsize=64)(np.triu_indices)


def _nearest(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row of points z whose hull does not hold 0: the hull's
    nearest point to 0, and the positions of the two points whose segment,
    an edge of the hull (or one vertex, twice), holds it.  The nearest
    point lies on an edge, and every segment of two points lies in the
    hull, so it is the nearest of the points of all their segments."""
    i, j = _pairs(z.shape[1])
    a, b = z[:, i], z[:, j]
    d = b - a
    dd = d.real * d.real + d.imag * d.imag
    f = np.clip(-(a.real * d.real + a.imag * d.imag) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
    p = a + f * d
    best = np.argmin(np.abs(p), axis=1)
    return p.ravel()[i.size * np.arange(len(z)) + best], i[best], j[best]


class _Pencils:
    """The matrices of one size and one functional in a search: float
    views of their parts P and K, their spectral norms, and for the
    Crawford search (A) the matrices themselves.

    Radius matrices [[0, X], [Y, 0]] may be marked antidiagonal: then H(t)
    is [[0, Z(t)], [Z(t)*, 0]], whose eigenvalues are +-sigma(Z(t)), so
    only the upper right corners of P and K are kept and the extremes come
    from the r x r matrices Z* Z instead of 2r x 2r eigensolves.
    """

    def __init__(self, P: np.ndarray, K: np.ndarray, norms, A=None, antidiagonal: bool = False):
        if antidiagonal:
            r = P.shape[1] // 2
            P, K = np.ascontiguousarray(P[:, :r, r:]), np.ascontiguousarray(K[:, :r, r:])
        self.antidiagonal = antidiagonal
        self.m = P.shape[1]
        self.PK, self.L = np.stack([P, K], axis=1).view(np.float64).reshape(len(P), 2, -1), norms
        self.A = A
        # Cells per eigensolve call or quadratic-form batch, so that the
        # per-cell matrices built at once stay within _CHUNK_BYTES.
        self.step = max(1, _CHUNK_BYTES // (16 * self.m * self.m))
        # Radius matrices marked flat (_flat); no antidiagonal pencil is.
        self.flat = np.zeros(P.shape[0], dtype=bool)

    def extremes(self, seg: np.ndarray, ts: np.ndarray, vectors: bool = False) -> tuple:
        """Extremes of H at the cells (seg, ts): bottom and top eigenvalues,
        and with vectors their eigenvectors."""
        return _in_chunks(self.step, functools.partial(self._extremes, vectors=vectors), seg, ts)

    def _extremes(self, seg: np.ndarray, ts: np.ndarray, vectors: bool):
        H = _rotated(self.PK, seg, ts)
        if not self.antidiagonal:
            return _extremes(H, vectors)
        # sigma_max(Z)^2 = lambda_max(Z* Z), to within eps |Z|^2.
        s = np.sqrt(np.maximum(_extremes(np.swapaxes(H.conj(), -1, -2) @ H)[1], 0.0))
        return -s, s

    def evaluate(self, seg: np.ndarray, ts: np.ndarray, hw: float, gap=None):
        """Values and rotation caps of the radius cells (seg, ts) of
        half-width hw; at round 0 (gap given) through _sifted."""
        v = self._values(seg, ts) if gap is None else self._sifted(seg, ts, hw, gap)
        return v, v / np.cos(hw)

    def _values(self, seg: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Values max(lambda_max, -lambda_min) of H at the cells."""
        wmin, wmax = self.extremes(seg, ts)
        return np.maximum(wmax, -wmin)

    def points(self, seg: np.ndarray, ts: np.ndarray) -> tuple:
        """Bottom and top eigenvalues of H at the angles ts of the Crawford
        matrices seg, and the points y* M y of their eigenvectors."""
        wmin, wmax, ymin, ymax = self.extremes(seg, ts, vectors=True)
        qmin, qmax = _in_chunks(self.step, self._forms, seg, ymin, ymax)
        return wmin, wmax, qmin, qmax

    def _sifted(self, seg: np.ndarray, ts: np.ndarray, hw: float, gap: np.ndarray) -> np.ndarray:
        """Values of the round-0 cells (seg, ts) of half-width hw: every
        matrix's cells, in order, at the same angles h j.  The _SUBGRID
        cells are solved first; a cell that a bound from them proves pruned
        (_support_sift) is not solved and gets -inf, so it sets no lower
        bound and survives no pruning.  Only round 0 is sifted: a later
        round's matrix whose cells were all left unsolved would get hi = lo
        from their -inf caps."""
        k = self.L.size
        half = ts.size // k
        ts = ts[:half]
        vals = np.full((k, half), -np.inf)
        alive = self._support_sift(ts, hw, vals, gap)
        mats, cells = np.nonzero(alive)
        if mats.size:
            vals[mats, cells] = self._values(mats, ts[cells])
        return vals.ravel()

    def _support_sift(self, ts: np.ndarray, hw: float, vals: np.ndarray, gap: np.ndarray) -> np.ndarray:
        """Which round-0 radius cells at the angles ts to solve, a (k, half)
        mask, once the cells of the subgrid of _SUBGRID angles (every cell
        for grids of at most _SUBGRID cells and for 2 x 2 pencils, whose
        extremes come in closed form, cheaper than the bounds), for pencils
        of at least _FINE_M rows those of the subgrid of 2 _SUBGRID angles
        that the first level leaves alive, and for pencils of at least
        2 _FINE_M rows those of the subgrid of 4 _SUBGRID angles that the
        second leaves alive, are solved into vals; the first level marks the
        matrices flat (_flat), which keep no other cell, as their dual
        certificate solves them.

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
        first = half if self.m == 2 else min(_SUBGRID, half)
        finer = [c for c, rows in ((2 * _SUBGRID, _FINE_M), (4 * _SUBGRID, 2 * _FINE_M)) if self.m >= rows and half > c]
        for count in [first] + finer:
            known, other, p, p1, p2, w1, w2 = _sift_plan(half, count)
            mats, cols = np.nonzero(alive[:, known])
            if mats.size:
                cells = known[cols]
                wmin, wmax = self.extremes(mats, ts[cells])
                vals[mats, cells] = np.maximum(wmax, -wmin)
                support[mats, cells], support[mats, cells + half] = wmax, -wmin
            alive[:, known] = False
            if count == first:
                self.flat = _flat(vals[:, known], hw, gap) & (not self.antidiagonal)
                alive[self.flat] = False
            support[:, -1] = support[:, 0]
            support[:, p] = bound = support[:, p1] * w1 + support[:, p2] * w2
            n = other.size
            alive[:, other] &= (np.maximum(bound[:, :n], bound[:, n:]) + pad) / cos >= vals.max(axis=1)[:, None]
        return alive

    def _forms(self, seg: np.ndarray, *Ys: np.ndarray) -> tuple:
        """y* M y for each cell's matrix M and its vector y in each of Ys."""
        A = self.A[0] if self.A.shape[0] == 1 else np.take(self.A, seg, axis=0)
        return tuple(np.add.reduce(Y.conj() * np.add.reduce(A * Y[:, None, :], axis=2), axis=1) for Y in Ys)

    def dual(self, which: np.ndarray, ts: np.ndarray, lower: np.ndarray, gap: np.ndarray, values=None) -> np.ndarray:
        """Ando's dual upper bound for the radius of the matrices which, from
        the attaining eigenvectors at the angles ts, their lower bounds and
        their target gaps; values, where given, takes the values
        max(lambda_max, -lambda_min) at ts, a (which.size, ts.size) array.

        omega(M) = min over Hermitian Z of lambda_max([[Z, M], [M*, -Z]]),
        and every Hermitian Z bounds it from above: v = [x; exp(it) x] / sqrt 2
        gives v* B v = Re(exp(it) x* M x).  Z is fitted to the complementary
        slackness equations Z x_t = lower x_t - exp(it) M x_t by least
        squares over the attaining vectors x_t, lower raised to the largest
        value attained at ts, and made Hermitian.  At the
        optimum the top eigenvalue of B is multiple, which the fit misses
        when the x_t are ill-conditioned; so where its bound misses the gap,
        one first-order step moves the top eigenvalues of B towards one
        common value, and the smaller bound of the two is kept.
        """
        per = max(1, self.step // ts.size)
        values = np.empty((which.size, ts.size)) if values is None else values
        return _in_chunks(per, functools.partial(self._dual, ts), which, lower, gap, values)

    def _dual(self, ts: np.ndarray, which: np.ndarray, lower: np.ndarray, gap: np.ndarray, values: np.ndarray) -> np.ndarray:
        k, n, m = which.size, ts.size, self.m
        PK = self.PK[which]
        H = _rotated(PK, np.arange(k).repeat(n), np.tile(ts, k))
        wmin, wmax, vmin, vmax = _extremes(H, vectors=True)
        values[:] = np.maximum(wmax, -wmin).reshape(k, n)
        lower = np.maximum(lower, values.max(axis=1))
        # Where -lambda_min attains, the bottom vector is the top one at t + pi.
        bottom = -wmin > wmax
        X = np.swapaxes(np.where(bottom[:, None], vmin, vmax).reshape(k, n, m), 1, 2)
        phase = (np.exp(1j * np.tile(ts, k)) * np.where(bottom, -1.0, 1.0)).reshape(k, 1, n)
        P, K = (PK[:, j].view(np.complex128).reshape(k, m, m) for j in (0, 1))
        M = P - 1j * K
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


class _Inner:
    """Inner polygons of the ranges of the Crawford matrices of a search,
    each kept by its nearest point to 0 and the two points whose segment
    holds it, with the points, angles and values of each matrix's two best
    solves (targets) and its largest solved value (lower); they start from
    the diagonal entries and a probe's solves (add) at the rows bases."""

    def __init__(self, groups: list[_Pencils], bases: list[int], ts, wmin, wmax, qmin, qmax):
        k = bases[-1]
        self.near, self.ends = np.empty(k, dtype=np.complex128), np.empty((k, 2), dtype=np.complex128)
        self.best, self.best_t, self.best_v = np.zeros((k, 2), dtype=np.complex128), np.full((k, 2), np.nan), np.full((k, 2), -np.inf)
        self.lower, self.pad = np.full(k, -np.inf), np.empty(k)
        for g, b, e in zip(groups, bases, bases[1:]):
            z = np.concatenate([g.A.diagonal(axis1=1, axis2=2), qmin[b:e], qmax[b:e]], axis=1)
            self.add(np.arange(b, e), ts[b:e], wmin[b:e], wmax[b:e], qmin[b:e], qmax[b:e], z)
            # Computed points y* M y lie within (2m + 4) eps (1 + |M|) of
            # points of the range (m eps |M| in the sums, as much from
            # |y|^2 - 1), and the nearest point's arithmetic adds a few
            # eps (1 + |M|): the distance to the hull of the computed
            # points, raised by twice that, bounds the distance to the range.
            self.pad[b:e] = (4 * g.m + 16) * _EPS * (1.0 + g.L)

    def bounds(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of the matrices rows before the evaluation pad E: the
        largest solved value, and the distance from 0 to the inner polygon,
        raised by pad, or 0 where the polygon holds 0, as the points'
        rounding is then below E."""
        near = self.near[rows]
        return self.lower[rows], np.where(near == 0.0, 0.0, np.abs(near) + self.pad[rows])

    def targets(self, rows: np.ndarray) -> np.ndarray:
        """The next two angles of each matrix of rows, a (rows.size, 2)
        array: the direction of its nearest point (Gilbert's step, which
        always moves the polygon nearer 0), and once its lower end is above
        0, the direction of the nearest point of the disk whose support
        lines at the angles t of its two best solves touch it at their
        points q, q = c - rho exp(-i t) (exact where the range is a disk),
        else the direction a quarter turn on."""
        gilbert = -np.angle(self.near[rows])
        (p1, p2), (t1, t2) = self.best[rows].T, self.best_t[rows].T
        with np.errstate(invalid="ignore", divide="ignore"):
            e1 = np.exp(-1j * t1)
            rho = ((p1 - p2) / (np.exp(-1j * t2) - e1)).real
            fit = -np.angle(p1 + rho * e1)
        fit = np.where((self.lower[rows] > 0.0) & (rho > 0.0) & np.isfinite(fit), fit, gilbert + 0.5 * np.pi)
        return np.stack([gilbert, fit], axis=1)

    def add(self, rows, ts, wmin, wmax, qmin, qmax, z=None) -> None:
        """Join the points qmin and qmax, which touch the support lines of
        H at the angles ts and ts + pi, (r, n) arrays, to the polygons of the
        matrices rows: z, by default their segments' ends and these."""
        z = np.concatenate([self.ends[rows], qmin, qmax], axis=1) if z is None else z
        # _nearest builds about eight complex arrays of point pairs per row.
        near, i, j = _in_chunks(max(1, _CHUNK_BYTES // (64 * z.shape[1] * (z.shape[1] + 1))), _nearest, z)
        k, zero = z.shape[1] * np.arange(rows.size), _holds_zero(z)
        self.near[rows] = np.where(zero, 0.0, near)
        self.ends[rows, 0], self.ends[rows, 1] = z.ravel()[k + i], z.ravel()[k + j]
        v = np.concatenate([self.best_v[rows], wmin, -wmax], axis=1)
        self.lower[rows] = np.maximum(self.lower[rows], v[:, 2:].max(axis=1))
        if zero.all():  # settled: no step follows
            return
        keep = (np.arange(rows.size)[:, None], np.argsort(-v, axis=1)[:, :2])
        self.best[rows] = np.concatenate([self.best[rows], qmin, qmax], axis=1)[keep]
        self.best_t[rows] = np.concatenate([self.best_t[rows], ts, ts + np.pi], axis=1)[keep]
        self.best_v[rows] = v[keep]


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
    """What round 0 of half cells sifts with count subgrid angles (count <=
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


def _flat(V: np.ndarray, hw: float, gap: np.ndarray) -> np.ndarray:
    """Which rows of radius values V, at cells of half-width hw, are flat:
    all within cos(hw) of their largest, which their caps leave more than
    gap short, so that every cell survives the rotation caps."""
    top = V.max(axis=1)
    return (V.min(axis=1) / np.cos(hw) > top) & (top / np.cos(hw) - top > gap)


def _first_cells(opts: RadiusOptions) -> tuple[int, float, float]:
    """The round-0 cells of a search: their count on the half circle, the
    spacing of their centers and their half-width, widened against
    rounding."""
    half = (opts.grid_count + 1) // 2
    h = np.pi / half
    return half, h, 0.5 * h * (1.0 + 1e-12)


def _search(groups: list[_Pencils], gap, opts: RadiusOptions):
    """Half-circle branch and bound over stacks of radius pencils: matrices
    maximize max(lambda_max, -lambda_min) of H(t) over [0, pi).  gap holds
    the per-matrix targets in group order.  Returns per-matrix arrays
    (lo, hi) before the evaluation pad.

    Every matrix owns its cells, bounds and stopping test, and finishes as
    soon as its own gap is met or its budget runs out, so its result does
    not depend on the other matrices.  The cells are the only state that
    shrinks: seg holds the matrix of each cell, nondecreasing, so cells
    stay grouped by matrix and matrices by group, and a finished matrix
    owns no cells.  Per round, one eigensolve call per group (per chunk of
    cells) serves every matrix of the group that owns cells.

    Round 0 of a group solves its subgrid, then only the cells that the
    support lines through it cannot prune (_Pencils._sifted), in one call
    per level; its bounds and surviving cells are those of solving every
    cell.  A matrix marked flat (_flat) solves no other round-0 cell: Ando's
    dual certificate caps it for the rest of the search, and its
    eigendecompositions give every round-0 value (_early_duals).

    A matrix whose next round would take its eigensolved cells past
    _MAX_CELLS stops with the bounds it has: its upper end is the largest
    cap of its surviving cells, sound but wider than its gap.
    """
    half, h, hw = _first_cells(opts)
    k = gap.size
    first = np.cumsum([0] + [g.L.size for g in groups]).tolist()  # first matrix of each group, then k
    seg = np.arange(k).repeat(half)
    centers = np.tile(h * np.arange(half), k)
    lo, hi, cap = np.full(k, -np.inf), np.empty(k), np.full(k, np.inf)
    solved, spent = [], np.zeros(k, dtype=bool)
    halves = (2.0 * np.arange(_SUBDIV) + 1.0 - _SUBDIV) / _SUBDIV
    for round_no in range(DEFAULT_MAX_ROUNDS + 1):
        cells = np.searchsorted(seg, first).tolist()
        parts = [
            g.evaluate(seg[c:d] - f, centers[c:d], hw, gap[f:e] if round_no == 0 else None)
            for g, f, e, c, d in zip(groups, first, first[1:], cells, cells[1:])
            if c < d
        ]
        vals, ub = map(_joined, zip(*parts))
        if round_no == 0 and any(g.flat.any() for g in groups):
            _early_duals(groups, first, vals.reshape(k, half), ub.reshape(k, half), centers[:half], hw, gap, cap)
        starts, mats = _runs(seg)
        lo[mats] = lo_m = np.maximum(lo[mats], np.maximum.reduceat(vals, starts))
        hi[mats] = np.maximum(lo_m, np.minimum(np.maximum.reduceat(ub, starts), cap[mats]))
        if round_no == DEFAULT_MAX_ROUNDS:
            break
        floor = np.maximum(lo, 0.0)
        done = np.maximum(hi, 0.0) - floor <= gap
        # Cells that can beat the running lower bound of an unfinished matrix.
        keep = ub > np.where(done, np.inf, floor)[seg]
        # The budget: cells solved so far and those the next round solves,
        # counted per matrix once all matrices together could pass it.
        solved.append(seg)
        if sum(map(len, solved)) + _SUBDIV * np.count_nonzero(keep) > _MAX_CELLS:
            spent |= np.bincount(_joined(solved), minlength=k) + _SUBDIV * np.bincount(seg[keep], minlength=k) > _MAX_CELLS
            keep &= ~spent[seg]
        centers = (centers[keep][:, None] + hw * halves).reshape(-1)
        seg = seg[keep].repeat(_SUBDIV)
        if not seg.size:
            break
        hw /= _SUBDIV
    # A met gap keeps hi, and so does a matrix still owning cells when the
    # rounds run out or whose cell budget ran out; no surviving cell means
    # the running lower bound is the maximum.
    out = np.maximum(hi, 0.0) - np.maximum(lo, 0.0) > gap
    out[seg] = False
    out[spent] = False
    hi[out] = lo[out]
    return lo, hi


def _inner_search(groups: list[_Pencils], gap: np.ndarray) -> tuple:
    """Inner polygon search over stacks of Crawford pencils: per-matrix
    arrays (lo, hi) before the evaluation pad, gap holding the per-matrix
    targets in group order.

    Each step solves, with eigenvectors, the next two angles of every live
    matrix (_Inner.targets: Gilbert's step and the disk fit) in one call
    per group, and joins the points they attain.  The first step, a probe,
    solves _PROBE directions evenly spread over the half circle: with the
    diagonal, their points hold a disk about 0 where the range holds a
    wide one, which settles c(M) = 0.  A matrix stops once its gap is met
    or after DEFAULT_MAX_ROUNDS steps."""
    bases = np.cumsum([0] + [g.L.size for g in groups]).tolist()

    def solved(rows: np.ndarray, ts: np.ndarray) -> tuple:
        """wmin, wmax, qmin, qmax of the angles ts (one row each) of the
        matrices rows, in one eigensolve call per group."""
        n = ts.shape[1]
        seg, flat = rows.repeat(n), ts.ravel()
        cut = np.searchsorted(seg, bases).tolist()
        parts = [g.points(seg[c:d] - b, flat[c:d]) for g, b, c, d in zip(groups, bases, cut, cut[1:]) if c < d]
        return tuple(_joined(x).reshape(-1, n) for x in zip(*parts))

    rows = np.arange(bases[-1])
    ts = np.broadcast_to(np.pi / _PROBE * np.arange(_PROBE), (rows.size, _PROBE))
    hulls = _Inner(groups, bases, ts, *solved(rows, ts))
    lo, hi = np.empty(rows.size), np.empty(rows.size)
    for step in range(1, DEFAULT_MAX_ROUNDS + 1):
        lo[rows], hi[rows] = hulls.bounds(rows)
        rows = rows[np.maximum(hi[rows], 0.0) - np.maximum(lo[rows], 0.0) > gap[rows]]
        if step == DEFAULT_MAX_ROUNDS or not rows.size:
            break
        ts = hulls.targets(rows)
        hulls.add(rows, ts, *solved(rows, ts))
    return lo, hi


def _early_duals(groups, first, vals, ub, ts, hw, gap, caps) -> None:
    """Round 0 of the radius matrices marked flat: their dual caps, into
    caps, fitted at the round-0 angles ts, and the values
    max(lambda_max, -lambda_min) they attain there, into vals (ub their
    rotation caps).  first holds the first matrix of each group."""
    for g, f in zip(groups, first):
        which = np.flatnonzero(g.flat)
        if which.size:
            values = np.empty((which.size, ts.size))
            caps[f + which] = g.dual(which, ts, np.full(which.size, -np.inf), gap[f + which], values)
            vals[f + which], ub[f + which] = values, values / np.cos(hw)


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


def _crawford_direct(M: np.ndarray, rows: np.ndarray, out: Enclosures) -> tuple:
    """Crawford numbers of a stack of m x m matrices, m >= 2, whose diagonal
    entries surround 0, into out at their rows; returns (stack positions,
    P, K, norms) of the others.

    The diagonal entries M_jj = e_j* M e_j are exact points of the range,
    so where their hull holds 0, so does the range: c(M) = 0, written as
    [0, E] with E = _EVAL_ERR (1 + |M|), method "grid".  A hull whose
    computed arguments leave no gap above pi lies within a few eps |M| of
    0, which E covers."""
    L = spectral_norms(M)
    fired = _holds_zero(M.diagonal(axis1=1, axis2=2))
    done = rows[fired]
    out.lo[done], out.hi[done], out.code[done] = 0.0, _EVAL_ERR * (1.0 + L[fired]), METHODS.index("grid")
    rest = np.flatnonzero(~fired)
    P, K = _pencil(M[rest])
    return rest, P, K, L[rest]


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
    any sizes, from one search per functional: an Enclosures
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
        pos, P, K, L = _crawford_direct(M, rows[rest], out)
        if pos.size:
            searches.append((_Pencils(P, K, L, M[pos]), rows[rest[pos]]))
    if searches:
        groups, targets = zip(*searches)
        L, rows = np.concatenate([g.L for g in groups]), np.concatenate(targets)
        gap = opts.resolve_gap(L)
        # Radius groups come first: cells for the radius, inner polygons for
        # the Crawford number.
        split = sum(g.L.size for g in groups if g.A is None)
        radius = [g for g in groups if g.A is None]
        lo, hi = np.empty(L.size), np.empty(L.size)
        if radius:
            lo[:split], hi[:split] = _search(radius, gap[:split], opts)
        if split < L.size:
            lo[split:], hi[split:] = _inner_search([g for g in groups if g.A is not None], gap[split:])
        err = _EVAL_ERR * (1.0 + L)
        out.lo[rows], out.hi[rows] = _max(lo - err, 0.0), _max(_max(hi, lo), 0.0) + err
        out.code[rows] = METHODS.index("grid")
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
