"""Directional checks over operator tuples, evaluated with enclosures.

Each catalog entry states one inequality or identity between functionals
of named operands.  Both sides are evaluated as enclosures and compared
direction-safely: an upper bound claim passes certified only when the
entire left enclosure sits at or below the entire right enclosure, up
to a floor that absorbs last-place rounding between parallel routes.
Entries carrying a sign choice evaluate both variants and record the one
with the worse slack.  Checks work on the reduced matrices of their
operands, which each instance computes once, up front (see Evaluator).
A run evaluates in one pass: every check states its requests, the
radius and Crawford requests of all instances are solved together in
one stacked search, and every check then finishes on its enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BadConfig,
    EmptyInput,
    MembershipViolated,
    PreconditionFailed,
    UnknownCheck,
)
from .functionals import (
    Enclosure,
    RadiusOptions,
    iabs,
    iadd,
    imax,
    imin,
    imul,
    ipoint,
    iscale,
    isq,
    isqrt,
    isub,
    matrix_norms,
    radii_and_crawford_numbers,
)
from .instances import content_seed
from .kernel import spectral_norm_bounds, spectral_norms
from .sampler import sample_unit_vectors
from .space import FACT_TOL, SemiHilbertSpace

LE, GE, EQ, CONDITIONAL = "le", "ge", "eq", "conditional"

PASS_CERTIFIED = "PASS_CERTIFIED"
PASS_UNCERTIFIED = "PASS_UNCERTIFIED"
VIOLATION_CANDIDATE = "VIOLATION_CANDIDATE"
SKIPPED = "SKIPPED"

VIOLATION_TOL = 1e-7
CERT_EPS = 1e-11
EQ_TOL = 1e-9
EQUALITY_TOL = 1e-6
TIGHTNESS_EPS = 1e-15
VECTOR_COUNT = 32
RADIUS_FLOOR = 1e-12

_2SQRT2 = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class CheckDefinition:
    check_id: str
    operands: tuple[str, ...]
    direction: str
    formula: str
    evaluate: Callable


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    instance: str
    lhs: Enclosure
    rhs: Enclosure
    slack: float
    verdict: str
    tightness: float
    variant: str = ""
    notes: dict = field(default_factory=dict)


class Evaluator:
    """Shared per-instance evaluation state in reduced coordinates.

    Every supplied operand is membership-tested and reduced to its r x r
    matrix tilde(T) on construction, in one reduce_all call; ``reduced``
    maps each name to that matrix, or to None when a test fails.  Since
    the reduction is an algebra map that turns the A-adjoint into the
    conjugate transpose, the checks then do plain matrix algebra: block
    operators are 2r x 2r blocks, and the seminorm, A-numerical radius and
    A-Crawford number of an operator are the spectral norm, numerical
    radius and Crawford number of its reduced matrix.

    Checks request these functionals with ``n``, ``w`` and ``c``, which
    return a request key; ``_solve_together`` computes every pending
    request at once (the radii and Crawford numbers in one stacked search)
    and ``resolve`` turns keys into enclosures.  Requests are keyed by the
    exact bytes of the matrix, so identical derived operands are solved
    once no matter which check built them.
    """

    def __init__(self, space: SemiHilbertSpace, operands):
        self.space = space
        self.ops = {name: np.asarray(M, dtype=np.complex128) for name, M in operands.items()}
        admits, bounded, reduced = space.reduce_all(list(self.ops.values()))
        self.reduced = {name: R if a and b else None for name, a, b, R in zip(self.ops, admits, bounded, reduced)}
        self._pending: dict[tuple, np.ndarray] = {}
        self._solved: dict[tuple, Enclosure] = {}

    def mat(self, name: str) -> np.ndarray:
        """The operand's reduced matrix (None when it fails the membership
        tests; the driver runs no check that names such an operand)."""
        return self.reduced[name]

    # -- functional requests on reduced matrices ---------------------------

    def _request(self, tag: str, M: np.ndarray) -> tuple:
        key = (tag, M.shape[0], M.tobytes())
        if key not in self._solved:
            self._pending[key] = M
        return key

    def w(self, M: np.ndarray) -> tuple:
        """Request the numerical radius of a reduced matrix."""
        return self._request("radius", M)

    def c(self, M: np.ndarray) -> tuple:
        """Request the Crawford number of a reduced matrix."""
        return self._request("crawford", M)

    def n(self, M: np.ndarray) -> tuple:
        """Request the spectral norm of a reduced matrix."""
        return self._request("norm", M)

    def resolve(self, keys) -> tuple:
        """The enclosures of solved requests."""
        return tuple(self._solved[key] for key in keys)


def _solve_together(evaluators, opts: RadiusOptions) -> None:
    """Solve the pending requests of evaluators: all radii and Crawford
    numbers in one search under opts, the norms in one singular value call
    per size.  Each enclosure is the one its matrix gets alone."""
    pending = {tag: [] for tag in ("radius", "crawford", "norm")}
    for ev in evaluators:
        for key, M in ev._pending.items():
            pending[key[0]].append((ev, key, M))
        ev._pending.clear()
    radii, crawfords = radii_and_crawford_numbers(
        [M for _ev, _key, M in pending["radius"]],
        [M for _ev, _key, M in pending["crawford"]],
        opts,
    )
    norms = matrix_norms([M for _ev, _key, M in pending["norm"]])
    for (ev, key, _M), enc in zip(pending["radius"] + pending["crawford"] + pending["norm"], radii + crawfords + norms):
        ev._solved[key] = enc


# -- reduced-coordinate algebra ---------------------------------------------


def _adj(M: np.ndarray) -> np.ndarray:
    """The A-adjoint in reduced coordinates."""
    return M.conj().T


def _re(M: np.ndarray) -> np.ndarray:
    """Selfadjoint part (M + adj(M)) / 2."""
    return 0.5 * (M + M.conj().T)


def _im(M: np.ndarray) -> np.ndarray:
    """Skew part (M - adj(M)) / (2i)."""
    return -0.5j * (M - M.conj().T)


def _block(X: np.ndarray, Y: np.ndarray, layout: str) -> np.ndarray:
    """Two-by-two block operator: X, Y on the diagonal or X upper right
    and Y lower left ("antidiagonal")."""
    r = X.shape[0]
    B = np.zeros((2 * r, 2 * r), dtype=np.complex128)
    if layout == "diagonal":
        B[:r, :r], B[r:, r:] = X, Y
    else:
        B[:r, r:], B[r:, :r] = X, Y
    return B


def _pm(L: np.ndarray, R: np.ndarray):
    return (("+", L + R), ("-", L - R))


# -- shared composite quantities --------------------------------------------


def _parts(ev: Evaluator, M: np.ndarray) -> tuple:
    """Requests for the seminorms of the re and im parts of M."""
    return ev.n(_re(M)), ev.n(_im(M))


def _part_gap(n_re: Enclosure, n_im: Enclosure) -> Enclosure:
    """| seminorm(re part)^2 - seminorm(im part)^2 |."""
    return iabs(isub(isq(n_re), isq(n_im)))


def _damped_radius_sq(w: Enclosure, gap: Enclosure) -> Enclosure:
    """sqrt(radius^2 - part_gap/2), the refinement factor."""
    return isqrt(isub(isq(w), iscale(0.5, gap)))


def _coarse_commutator_rhs(nT: Enclosure, nS: Enclosure, wT: Enclosure, wS: Enclosure) -> Enclosure:
    return iscale(_2SQRT2, imin(imul(nT, wS), imul(nS, wT)))


# -- check evaluators --------------------------------------------------------
#
# Each evaluator is a generator that yields once: it yields the keys of
# the functionals it needs and receives their enclosures in the same
# order.  The driver collects the requests of every entry before solving
# any, so that one search serves the whole catalog.


def _c1(ev: Evaluator):
    T = ev.mat("T")
    w, nrm = yield ev.w(T), ev.n(T)
    return [
        ("lower", iscale(0.5, nrm), w),
        ("upper", w, nrm),
    ]


def _c2(ev: Evaluator):
    if not ev.space.is_a_selfadjoint(ev.ops["Tsa"]):
        raise PreconditionFailed("operand Tsa is not selfadjoint for the seed")
    Tsa = ev.mat("Tsa")
    nrm, w = yield ev.n(Tsa), ev.w(Tsa)
    return [("", nrm, w)]


def _c3(ev: Evaluator):
    T = ev.mat("T")
    Ts = _adj(T)
    left, right, nT, nTs = yield ev.n(Ts @ T), ev.n(T @ Ts), ev.n(T), ev.n(Ts)
    return [
        ("products", left, right),
        ("norm-square", left, isq(nT)),
        ("adjoint-norm", left, isq(nTs)),
    ]


def _c4(ev: Evaluator):
    T = ev.mat("T")
    Ts = _adj(T)
    d, w = yield ev.n(Ts @ T + T @ Ts), ev.w(T)
    wsq = isq(w)
    return [
        ("lower", iscale(0.25, d), wsq),
        ("upper", wsq, iscale(0.5, d)),
    ]


def _c5(ev: Evaluator):
    T, S = ev.mat("T"), ev.mat("S")
    signs = _pm(T @ S, S @ T)
    nT, nS, wT, wS, *ws = yield (ev.n(T), ev.n(S), ev.w(T), ev.w(S), *(ev.w(M) for _v, M in signs))
    rhs = _coarse_commutator_rhs(nT, nS, wT, wS)
    return [(v, w, rhs) for (v, _M), w in zip(signs, ws)]


def _c6(ev: Evaluator):
    T1, S1 = ev.mat("T1"), ev.mat("S1")
    T2, S2 = ev.mat("T2"), ev.mat("S2")
    signs = _pm(T1 @ S1, S2 @ T2)
    n_left, n_right, *ws = yield (
        ev.n(T1 @ _adj(T1) + _adj(T2) @ T2),
        ev.n(_adj(S1) @ S1 + S2 @ _adj(S2)),
        *(ev.w(M) for _v, M in signs),
    )
    rhs = imul(isqrt(n_left), isqrt(n_right))
    return [(v, w, rhs) for (v, _M), w in zip(signs, ws)]


def _c7(ev: Evaluator):
    T, S = ev.mat("T"), ev.mat("S")
    w_diag, wT, wS, w_anti, n_diag, nT, nS, n_anti = yield (
        ev.w(_block(T, S, "diagonal")),
        ev.w(T),
        ev.w(S),
        ev.w(_block(T, T, "antidiagonal")),
        ev.n(_block(T, S, "diagonal")),
        ev.n(T),
        ev.n(S),
        ev.n(_block(T, S, "antidiagonal")),
    )
    return [
        ("diag-radius", w_diag, imax(wT, wS)),
        ("antidiag-radius", w_anti, wT),
        ("diag-norm", n_diag, imax(nT, nS)),
        ("antidiag-norm", n_anti, imax(nT, nS)),
    ]


def _c8(ev: Evaluator):
    T1, T2, S = ev.mat("T1"), ev.mat("T2"), ev.mat("S")
    signs = _pm(T1 @ S, S @ T2)
    w_block, wS, *ws = yield (ev.w(_block(T1, T2, "antidiagonal")), ev.w(S), *(ev.w(M) for _v, M in signs))
    rhs = iscale(4.0, imul(w_block, wS))
    return [(v, w, rhs) for (v, _M), w in zip(signs, ws)]


def _c9(ev: Evaluator):
    T, S = ev.mat("T"), ev.mat("S")
    signs = _pm(T @ S, S @ T)
    wT, wS, *ws = yield (ev.w(T), ev.w(S), *(ev.w(M) for _v, M in signs))
    rhs = iscale(4.0, imul(wT, wS))
    return [(v, w, rhs) for (v, _M), w in zip(signs, ws)]


def _commutator_size(P: np.ndarray, Q: np.ndarray) -> tuple[float, float]:
    """|PQ - QP| and the scale 1 + |P| |Q| it is measured against.

    P and Q commute when |PQ - QP| <= FACT_TOL (1 + |P| |Q|).  A screen runs
    first: the Frobenius norm of the commutator bounds its spectral norm
    from above and the largest column norm of each factor bounds the
    factor's from below.  When those bounds already satisfy the inequality
    they are returned, and no singular values are computed; otherwise the
    exact spectral norms decide.
    """
    stack = np.stack([P @ Q - Q @ P, P, Q])
    lo, hi = spectral_norm_bounds(stack)
    if hi[0] <= FACT_TOL * (1.0 + lo[1] * lo[2]):
        return float(hi[0]), 1.0 + float(lo[1] * lo[2])
    comm, nP, nQ = spectral_norms(stack)
    return comm, 1.0 + nP * nQ


def _c10(ev: Evaluator):
    comm, scale = _commutator_size(ev.ops["P"], ev.ops["Q"])
    if comm > FACT_TOL * scale:
        raise PreconditionFailed(f"operands do not commute: deviation {comm:.3e}")
    P, Q = ev.mat("P"), ev.mat("Q")
    wP, wQ, wPQ = yield ev.w(P), ev.w(Q), ev.w(P @ Q)
    rhs = iscale(2.0, imul(wP, wQ))
    return [("", wPQ, rhs)]


def _c11(ev: Evaluator):
    T, S = ev.mat("T"), ev.mat("S")
    lhs, nT, nS, nST = yield ev.n(T @ _adj(T) + _adj(S) @ S), ev.n(T), ev.n(S), ev.n(S @ T)
    rhs = iadd(imax(isq(nT), isq(nS)), nST)
    return [("", lhs, rhs)]


def _c12(ev: Evaluator):
    X, Y = ev.mat("X"), ev.mat("Y")
    lhs, n_inner, cYX = yield ev.w(_block(X, Y, "antidiagonal")), ev.n(_adj(X) @ X + Y @ _adj(Y)), ev.c(Y @ X)
    inner = iadd(n_inner, iscale(2.0, cYX))
    return [("", lhs, iscale(0.5, isqrt(inner)))]


def _c13(ev: Evaluator):
    T, S, X, Y = ev.mat("T"), ev.mat("S"), ev.mat("X"), ev.mat("Y")
    signs = _pm(T @ X, Y @ S)
    wblock, nT, nS, nST, cYX, *ws = yield (
        ev.w(_block(X, Y, "antidiagonal")),
        ev.n(T),
        ev.n(S),
        ev.n(S @ T),
        ev.c(Y @ X),
        *(ev.w(M) for _v, M in signs),
    )
    first = isqrt(iadd(imax(isq(nT), isq(nS)), nST))
    second = isqrt(isub(isq(wblock), iscale(0.5, cYX)))
    mid = iscale(2.0, imul(first, second))
    outer = iscale(_2SQRT2, imul(imax(nT, nS), wblock))
    notes = {"chain_slack": outer.lo - mid.hi}
    variants = [(v, w, mid) for (v, _M), w in zip(signs, ws)]
    variants.append(("chain", mid, outer))
    return variants, notes


def _c14(ev: Evaluator):
    T, S = ev.mat("T"), ev.mat("S")
    nt, ns, nST = yield ev.n(T), ev.n(S), ev.n(S @ T)
    prod = imul(nt, ns)
    mean = iscale(0.5, iadd(isq(nt), isq(ns)))
    top = imax(isq(nt), isq(ns))
    return [
        ("product", nST, prod),
        ("mean", prod, mean),
        ("max", mean, top),
    ]


def _c15(ev: Evaluator):
    if ev.space.rank == 0:
        raise PreconditionFailed("no unit vectors exist for a rank-zero seed")
    T = ev.mat("T")
    (w,) = yield (ev.w(T),)
    Tn = T / w.hi if w.hi > RADIUS_FLOOR else T
    # Seminorm-one vectors x of the full space, as y = C x in reduced
    # coordinates: |Tn x|_A = |tilde(Tn) y| and |sharp(Tn) x|_A = |tilde(Tn)* y|.
    X = sample_unit_vectors(ev.space, VECTOR_COUNT, content_seed(ev.space.matrix, ev.ops["T"]))
    Y = ev.space.coord_map @ X
    V, W = Tn @ Y, _adj(Tn) @ Y
    vals = np.einsum("ij,ij->j", V.conj(), V) + np.einsum("ij,ij->j", W.conj(), W)
    worst = float(np.max(np.maximum(vals.real, 0.0)))
    lhs = ipoint(worst, err=1e-10 * (1.0 + worst))
    # Tn depends on a solved radius, so its parts' norms are computed here.
    n_re, n_im = matrix_norms([_re(Tn), _im(Tn)])
    rhs = iscale(4.0, isub(ipoint(1.0), iscale(0.5, _part_gap(n_re, n_im))))
    return [("", lhs, rhs)]


def _c16(ev: Evaluator):
    T = ev.mat("T")
    Ts = _adj(T)
    lhs, n_re, n_im = yield (ev.n(Ts @ T + T @ Ts), *_parts(ev, T))
    top = imax(isq(n_re), isq(n_im))
    rhs = isub(iscale(4.0, top), iscale(2.0, _part_gap(n_re, n_im)))
    return [("", lhs, rhs)]


def _c17(ev: Evaluator):
    X, Y = ev.mat("X"), ev.mat("Y")
    lhs, n_plus, n_minus = yield ev.n(_adj(X) @ X + _adj(Y) @ Y), ev.n(X + Y), ev.n(X - Y)
    np_, nm = isq(n_plus), isq(n_minus)
    rhs = isub(imax(np_, nm), iscale(0.5, iabs(isub(np_, nm))))
    return [("", lhs, rhs)]


def _c18(ev: Evaluator):
    T = ev.mat("T")
    Ts = _adj(T)
    lhs, w, n_re, n_im = yield (ev.n(Ts @ T + T @ Ts), ev.w(T), *_parts(ev, T))
    rhs = isub(iscale(4.0, isq(w)), iscale(2.0, _part_gap(n_re, n_im)))
    return [("", lhs, rhs)]


def _c19(ev: Evaluator):
    T = ev.mat("T")
    w, w_re, w_im = yield ev.w(T), ev.w(_re(T)), ev.w(_im(T))
    return [
        ("re", w_re, w),
        ("im", w_im, w),
    ]


def _c20(ev: Evaluator):
    T, S, X, Y = ev.mat("T"), ev.mat("S"), ev.mat("X"), ev.mat("Y")
    signs = _pm(T @ X @ S, S @ Y @ T)
    nS, nX, nY, wT, n_re, n_im, *ws = yield (
        ev.n(S),
        ev.n(X),
        ev.n(Y),
        ev.w(T),
        *_parts(ev, T),
        *(ev.w(M) for _v, M in signs),
    )
    factor = imul(nS, imax(nX, nY))
    rhs = iscale(_2SQRT2, imul(factor, _damped_radius_sq(wT, _part_gap(n_re, n_im))))
    return [(v, w, rhs) for (v, _M), w in zip(signs, ws)]


def _c21(ev: Evaluator):
    T, S = ev.mat("T"), ev.mat("S")
    signs = _pm(T @ S, S @ T)
    nT, nS, wT, wS, nT_re, nT_im, nS_re, nS_im, *ws = yield (
        ev.n(T),
        ev.n(S),
        ev.w(T),
        ev.w(S),
        *_parts(ev, T),
        *_parts(ev, S),
        *(ev.w(M) for _v, M in signs),
    )
    # f(X, Y) = seminorm(Y) * sqrt(radius(X)^2 - part_gap(X)/2)
    f_TS = imul(nS, _damped_radius_sq(wT, _part_gap(nT_re, nT_im)))
    f_ST = imul(nT, _damped_radius_sq(wS, _part_gap(nS_re, nS_im)))
    rhs = iscale(_2SQRT2, imin(f_TS, f_ST))
    coarse = _coarse_commutator_rhs(nT, nS, wT, wS)
    notes = {"coarse_rhs_slack": coarse.lo - rhs.hi}
    return [(v, w, rhs) for (v, _M), w in zip(signs, ws)], notes


def _c22(ev: Evaluator):
    T = ev.mat("T")
    nT, wT, n_re, n_im, wTT = yield (ev.n(T), ev.w(T), *_parts(ev, T), ev.w(T @ T))
    rhs = iscale(math.sqrt(2.0), imul(nT, _damped_radius_sq(wT, _part_gap(n_re, n_im))))
    return [("", wTT, rhs)]


def _c23(ev: Evaluator):
    T, S = ev.mat("T"), ev.mat("S")
    signs = _pm(T @ S, S @ T)
    nT, nS, wT, wS, n_re, n_im, *ws = yield (
        ev.n(T),
        ev.n(S),
        ev.w(T),
        ev.w(S),
        *_parts(ev, T),
        *(ev.w(M) for _v, M in signs),
    )
    if nS.hi <= RADIUS_FLOOR:
        raise PreconditionFailed("seminorm of S vanishes")
    rhs = _coarse_commutator_rhs(nT, nS, wT, wS)
    worst_lhs = None
    for w in ws:
        if worst_lhs is None or w.hi > worst_lhs.hi:
            worst_lhs = w
    tol = EQUALITY_TOL * (1.0 + abs(rhs.hi))
    if rhs.lo - worst_lhs.hi >= tol:
        raise PreconditionFailed("commutator bound is not near equality")
    gap = _part_gap(n_re, n_im)
    notes = {"near_equality_gap": gap.hi, "parts_agree": float(gap.hi < tol)}
    return [("", worst_lhs, rhs)], notes


def _entry(check_id, operands, direction, formula, evaluate) -> CheckDefinition:
    return CheckDefinition(check_id, tuple(operands), direction, formula, evaluate)


CATALOG: dict[str, CheckDefinition] = {
    d.check_id: d
    for d in (
        _entry("C1", ("T",), LE, "0.5*norm(T) <= radius(T) <= norm(T)", _c1),
        _entry("C2", ("Tsa",), EQ, "norm(Tsa) = radius(Tsa) for selfadjoint Tsa", _c2),
        _entry(
            "C3",
            ("T",),
            EQ,
            "norm(sharp(T)T) = norm(T sharp(T)) = norm(T)^2 = norm(sharp(T))^2",
            _c3,
        ),
        _entry(
            "C4",
            ("T",),
            LE,
            "norm(sharp(T)T + T sharp(T))/4 <= radius(T)^2 <= norm(...)/2",
            _c4,
        ),
        _entry(
            "C5",
            ("T", "S"),
            LE,
            "radius(TS+-ST) <= 2*sqrt(2)*min(norm(T)radius(S), norm(S)radius(T))",
            _c5,
        ),
        _entry(
            "C6",
            ("T1", "S1", "T2", "S2"),
            LE,
            "radius(T1S1+-S2T2) <= sqrt(norm(T1 sharp(T1) + sharp(T2)T2))"
            " * sqrt(norm(sharp(S1)S1 + S2 sharp(S2)))",
            _c6,
        ),
        _entry(
            "C7",
            ("T", "S"),
            EQ,
            "block radii and norms reduce to componentwise max",
            _c7,
        ),
        _entry(
            "C8",
            ("T1", "T2", "S"),
            LE,
            "radius(T1 S +- S T2) <= 4*radius(antidiag(T1,T2))*radius(S)",
            _c8,
        ),
        _entry("C9", ("T", "S"), LE, "radius(TS+-ST) <= 4*radius(T)*radius(S)", _c9),
        _entry(
            "C10",
            ("P", "Q"),
            LE,
            "radius(PQ) <= 2*radius(P)*radius(Q) when PQ = QP",
            _c10,
        ),
        _entry(
            "C11",
            ("T", "S"),
            LE,
            "norm(T sharp(T) + sharp(S)S) <= max(norm(T)^2, norm(S)^2) + norm(ST)",
            _c11,
        ),
        _entry(
            "C12",
            ("X", "Y"),
            GE,
            "radius(antidiag(X,Y)) >="
            " sqrt(norm(sharp(X)X + Y sharp(Y)) + 2*crawford(YX))/2",
            _c12,
        ),
        _entry(
            "C13",
            ("T", "S", "X", "Y"),
            LE,
            "radius(TX+-YS) <= 2*sqrt(max(norm(T)^2,norm(S)^2)+norm(ST))"
            " * sqrt(radius(antidiag(X,Y))^2 - crawford(YX)/2)"
            " <= 2*sqrt(2)*max(norm(T),norm(S))*radius(antidiag(X,Y))",
            _c13,
        ),
        _entry(
            "C14",
            ("T", "S"),
            LE,
            "norm(ST) <= norm(T)norm(S) <= (norm(T)^2+norm(S)^2)/2"
            " <= max(norm(T)^2, norm(S)^2)",
            _c14,
        ),
        _entry(
            "C15",
            ("T",),
            LE,
            "vecnorm(T'x)^2 + vecnorm(sharp(T')x)^2 <= 4 - 2*partgap(T')"
            " for unit x, T' = T/radius hi",
            _c15,
        ),
        _entry(
            "C16",
            ("T",),
            LE,
            "norm(sharp(T)T + T sharp(T)) <= 4*max(norm(re T)^2, norm(im T)^2)"
            " - 2*partgap(T)",
            _c16,
        ),
        _entry(
            "C17",
            ("X", "Y"),
            LE,
            "norm(sharp(X)X + sharp(Y)Y) <= max(norm(X+Y)^2, norm(X-Y)^2)"
            " - |norm(X+Y)^2 - norm(X-Y)^2|/2",
            _c17,
        ),
        _entry(
            "C18",
            ("T",),
            LE,
            "norm(sharp(T)T + T sharp(T)) <= 4*radius(T)^2 - 2*partgap(T)",
            _c18,
        ),
        _entry(
            "C19",
            ("T",),
            LE,
            "radius(re T) <= radius(T) and radius(im T) <= radius(T)",
            _c19,
        ),
        _entry(
            "C20",
            ("T", "S", "X", "Y"),
            LE,
            "radius(TXS+-SYT) <= 2*sqrt(2)*norm(S)*max(norm(X),norm(Y))"
            " * sqrt(radius(T)^2 - partgap(T)/2)",
            _c20,
        ),
        _entry(
            "C21",
            ("T", "S"),
            LE,
            "radius(TS+-ST) <= 2*sqrt(2)*min(f(T,S), f(S,T)),"
            " f(X,Y) = norm(Y)*sqrt(radius(X)^2 - partgap(X)/2)",
            _c21,
        ),
        _entry(
            "C22",
            ("T",),
            LE,
            "radius(T^2) <= sqrt(2)*norm(T)*sqrt(radius(T)^2 - partgap(T)/2)",
            _c22,
        ),
        _entry(
            "C23",
            ("T", "S"),
            CONDITIONAL,
            "near equality in the commutator bound implies partgap(T) near 0",
            _c23,
        ),
    )
}


def _slack(direction: str, lhs: Enclosure, rhs: Enclosure) -> float:
    if direction == GE:
        return lhs.lo - rhs.hi
    if direction == EQ:
        cushion = EQ_TOL * (1.0 + max(abs(lhs.hi), abs(rhs.hi)))
        gap = max(lhs.lo - rhs.hi, rhs.lo - lhs.hi, 0.0)
        return cushion - gap
    return rhs.lo - lhs.hi


def _verdict(slack: float, rhs: Enclosure) -> str:
    # The certification floor absorbs last-place rounding between routes
    # that compute one quantity two ways; it sits four orders of magnitude
    # below the violation threshold, so no near-violation can certify.
    if slack >= -CERT_EPS * (1.0 + abs(rhs.hi)):
        return PASS_CERTIFIED
    if slack < -VIOLATION_TOL * (1.0 + abs(rhs.hi)):
        return VIOLATION_CANDIDATE
    return PASS_UNCERTIFIED


def _advance(stages, value, out: list, i: int):
    """Send value into an entry's generator.  Returns the keys it yields
    next, or None once its (variants, notes) or skip is stored in out[i]."""
    try:
        return stages.send(value)
    except StopIteration as done:
        out[i] = done.value if isinstance(done.value, tuple) else (done.value, {})
    except PreconditionFailed as exc:
        out[i] = exc
    return None


def _evaluate(jobs, opts: RadiusOptions | None) -> list[list]:
    """For each (evaluator, entries) job, each entry's (variants, notes) or
    the skip it raised.

    One pass: every entry yields its requests once, the requests of all
    jobs are solved together, and every entry then receives its
    enclosures and finishes.
    """
    outcomes = [[None] * len(entries) for _ev, entries in jobs]
    started = []
    for (ev, entries), out in zip(jobs, outcomes):
        for i, entry in enumerate(entries):
            unsupplied = [name for name in entry.operands if name not in ev.reduced]
            if unsupplied:
                raise BadConfig(f"operand {unsupplied[0]!r} not supplied")
            failing = [name for name in entry.operands if ev.reduced[name] is None]
            if failing:
                out[i] = MembershipViolated(f"{entry.check_id}: operand {failing[0]!r} fails the membership tests")
                continue
            stages = entry.evaluate(ev)
            keys = _advance(stages, None, out, i)
            if keys is not None:
                started.append((ev, entry, stages, out, i, keys))
    _solve_together([ev for ev, _entries in jobs], opts if opts is not None else RadiusOptions())
    for ev, entry, stages, out, i, keys in started:
        if _advance(stages, ev.resolve(keys), out, i) is not None:
            raise RuntimeError(f"check {entry.check_id} yielded a second time; a check requests its functionals once")
    return outcomes


def _result(entry: CheckDefinition, instance: str, outcome) -> CheckResult:
    variants, notes = outcome
    best = None
    for variant, lhs, rhs in variants:
        slack = _slack(entry.direction if entry.direction != CONDITIONAL else LE, lhs, rhs)
        if best is None or slack < best[0]:
            best = (slack, variant, lhs, rhs)
    slack, variant, lhs, rhs = best
    verdict = PASS_CERTIFIED if entry.direction == CONDITIONAL else _verdict(slack, rhs)
    return CheckResult(
        check_id=entry.check_id,
        instance=instance,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        verdict=verdict,
        tightness=lhs.hi / max(rhs.lo, TIGHTNESS_EPS),
        variant=variant,
        notes=notes,
    )


def _skip_result(check_id: str, instance: str, reason: str) -> CheckResult:
    zero = ipoint(0.0)
    return CheckResult(
        check_id=check_id,
        instance=instance,
        lhs=zero,
        rhs=zero,
        slack=0.0,
        verdict=SKIPPED,
        tightness=0.0,
        notes={"reason": reason},
    )


def run_check(
    space: SemiHilbertSpace,
    check_id: str,
    operands,
    opts: RadiusOptions | None = None,
    instance: str = "adhoc",
) -> CheckResult:
    """Evaluate one catalog entry; raises instead of skipping."""
    entry = CATALOG.get(check_id)
    if entry is None:
        raise UnknownCheck(f"no catalog entry {check_id!r}")
    ((outcome,),) = _evaluate([(Evaluator(space, operands), [entry])], opts)
    if isinstance(outcome, Exception):
        raise outcome
    return _result(entry, instance, outcome)


def run_all(
    space: SemiHilbertSpace,
    operands,
    opts: RadiusOptions | None = None,
    instance: str = "adhoc",
    checks=None,
) -> list[CheckResult]:
    """Evaluate the catalog on a shared operand bundle.

    Entries whose precondition or membership fails are reported as
    skipped rather than aborting the batch.  ``checks`` restricts the
    run to the given ids; by default every entry whose operands are all
    present runs.
    """
    return run_many([(space, operands, instance)], opts, checks)[0]


def run_many(items, opts: RadiusOptions | None = None, checks=None) -> list[list[CheckResult]]:
    """run_all on each (space, operands, instance) item, solving the
    requests of all items together; each row equals its run_all row."""
    if checks is not None:
        for cid in checks:
            if cid not in CATALOG:
                raise UnknownCheck(f"no catalog entry {cid!r}")
    jobs, labels = [], []
    for space, operands, instance in items:
        ids = list(checks) if checks is not None else [cid for cid, d in CATALOG.items() if set(d.operands) <= set(operands)]
        jobs.append((Evaluator(space, operands), [CATALOG[cid] for cid in ids]))
        labels.append(instance)
    return [
        [
            _skip_result(entry.check_id, instance, str(out)) if isinstance(out, Exception) else _result(entry, instance, out)
            for entry, out in zip(entries, outcomes)
        ]
        for (_ev, entries), instance, outcomes in zip(jobs, labels, _evaluate(jobs, opts))
    ]


class _Aggregate:
    """Streaming per-check summary; merge order is fixed by the caller."""

    def __init__(self):
        self.trials = 0
        self.skipped = 0
        self.certified = 0
        self.uncertified = 0
        self.violations = 0
        self.slacks: list[float] = []
        self.min_slack = math.inf
        self.argmin_instance = ""
        self.max_tightness = -math.inf
        self.note_mins: dict[str, float] = {}

    def fold(self, r: CheckResult):
        self.trials += 1
        if r.verdict == SKIPPED:
            self.skipped += 1
            return
        self.certified += r.verdict == PASS_CERTIFIED
        self.uncertified += r.verdict == PASS_UNCERTIFIED
        self.violations += r.verdict == VIOLATION_CANDIDATE
        self.slacks.append(r.slack)
        if r.slack < self.min_slack:
            self.min_slack = r.slack
            self.argmin_instance = r.instance
        self.max_tightness = max(self.max_tightness, r.tightness)
        for key, val in r.notes.items():
            if isinstance(val, (int, float)):
                cur = self.note_mins.get(key, math.inf)
                self.note_mins[key] = min(cur, float(val))

    def merge(self, other: "_Aggregate"):
        self.trials += other.trials
        self.skipped += other.skipped
        self.certified += other.certified
        self.uncertified += other.uncertified
        self.violations += other.violations
        self.slacks.extend(other.slacks)
        if other.min_slack < self.min_slack:
            self.min_slack = other.min_slack
            self.argmin_instance = other.argmin_instance
        self.max_tightness = max(self.max_tightness, other.max_tightness)
        for key, val in other.note_mins.items():
            self.note_mins[key] = min(self.note_mins.get(key, math.inf), val)

    def summary(self) -> dict:
        out = {
            "trials": self.trials,
            "skipped": self.skipped,
            "certified": self.certified,
            "uncertified": self.uncertified,
            "violations": self.violations,
        }
        if self.slacks:
            ordered = sorted(self.slacks)
            out["min_slack"] = ordered[0]
            out["median_slack"] = ordered[len(ordered) // 2]
            out["max_tightness"] = self.max_tightness
            out["argmin_instance"] = self.argmin_instance
            if self.note_mins:
                out["note_mins"] = self.note_mins
        return out


def _summaries(folded: dict[str, _Aggregate]) -> dict[str, dict]:
    """Each check's summary, in catalog order."""
    return {cid: folded[cid].summary() for cid in sorted(folded, key=_check_order)}


def _check_order(cid: str):
    return (len(cid), cid)


def tightness_report(results) -> dict[str, dict]:
    """Per-check slack and tightness aggregation over many results."""
    folded: dict[str, _Aggregate] = {}
    for r in results:
        folded.setdefault(r.check_id, _Aggregate()).fold(r)
    if not folded:
        raise EmptyInput("no results to aggregate")
    return _summaries(folded)
