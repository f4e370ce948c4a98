"""Directional checks over operator tuples, evaluated with enclosures.

Each catalog entry states one inequality or identity between functionals
of named operands.  Both sides are evaluated as enclosures and compared
direction-safely: an upper bound claim passes certified only when the
entire left enclosure sits at or below the entire right enclosure, up
to a floor that absorbs last-place rounding between parallel routes.
Entries carrying a sign choice evaluate both variants and record the one
with the worse slack.

Checks work on the reduced matrices of their operands and run once per
chunk: the items of a run that share a reduced size, a check list and
operand names, whose operands are stacked (see _Chunk).  An entry names
the functionals it needs as expressions such as ``w(TS+ST)`` or
``n(re T)``.  Each expression's matrix is built once per chunk; the radii
and Crawford numbers of all chunks are solved in one stacked search and
the norms in one singular value call per size; every entry then
evaluates on interval stacks with one row per item.  The rows stay one
check-by-item table of arrays (see CheckTable), which reports fold and
out of which run_all reads each item's CheckResults.

A row is skipped on one path, the table's per-row skips: first where an
operand of its entry fails the membership tests, then where the entry's
evaluator finds the row's precondition false (C2's selfadjoint operand;
C10's commuting pair; C15's unit vectors; C23's near equality).  Every
row is a function of its reduced matrices alone: the preconditions are
tested on them, and C15 draws its unit vectors in C^r from a seed of
the row's reduced T.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
    Enclosures,
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
from .sampler import sample_sphere
from .space import SemiHilbertSpace, commutes, is_hermitian

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
    needs: tuple[str, ...]
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


class _Item(NamedTuple):
    """A reduced item: its seed's rank r and, per operand name, its
    membership result and r x r matrix."""

    position: int
    rank: int
    names: tuple[str, ...]
    instance: str
    member: np.ndarray
    reduced: np.ndarray


class _Chunk(dict):
    """Items of one reduced size r, check list and operand names, evaluated
    together in reduced coordinates.

    The chunk stacks its k items' reduced matrices tilde(T) per operand;
    ``failing`` lists the rows where an operand fails the membership tests.
    The reduction is an algebra map that turns the A-adjoint into the
    conjugate transpose, so the seminorm, A-numerical radius and A-Crawford
    number of an operator (or 2r x 2r block) are the spectral norm,
    numerical radius and Crawford number of its reduced matrix.  Requests
    ``w(M)``, ``c(M)`` and ``n(M)`` ask for those of a matrix expression M
    (see mat); after _solve the chunk maps each to its Enclosures stack.
    The chunk is the one memo: it maps operand names and matrix
    expressions to their stacks, and request and composite keys (none of
    which is a matrix expression) to their values.
    """

    def __init__(self, entries, items: list[_Item]):
        super().__init__()
        self.entries, self.items, self.k, self.r = entries, items, len(items), items[0].rank
        names = items[0].names
        bad = ~np.stack([it.member for it in items], axis=1)
        self.failing = {names[j]: np.flatnonzero(bad[j]).tolist() for j in np.flatnonzero(bad.any(axis=1))}
        reduced = np.stack([it.reduced for it in items], axis=1)
        # Rows that fail the membership tests are skipped; zeros keep them finite and cheap.
        reduced[bad] = 0.0
        self.update(zip(names, reduced))

    def once(self, key: str, make):
        """The value under key, computed once."""
        if key not in self:
            self[key] = make()
        return self[key]

    def mat(self, expr: str) -> np.ndarray:
        """The (k, m, m) stack of a matrix expression, built once.

        An expression is an operand name; ``re X`` or ``im X``; a block
        ``diagonal(X,Y)`` or ``antidiagonal(X,Y)`` (X upper right, Y lower
        left); a sum ``A+B`` or difference ``A-B`` of two products; or a
        product of operands, left to right, where ``X*`` is the adjoint.
        """
        return self.once(expr, lambda: self._build(expr))

    def _build(self, expr: str) -> np.ndarray:
        operation, args = _parse(expr)
        return operation(*map(self.mat, args))


# An operand name in a product, with * for its adjoint.
_FACTOR = re.compile(r"(?:Tsa|[TS][12]?|[XYPQ])\*?")


@functools.lru_cache(maxsize=256)
def _parse(expr: str) -> tuple[Callable, tuple[str, ...]]:
    """The last operation of a matrix expression and the ones it takes."""
    part, _, name = expr.partition(" ")
    if name:
        return (_re if part == "re" else _im), (name,)
    layout, paren, args = expr.partition("(")
    if paren:
        return functools.partial(_block, layout=layout), tuple(args.rstrip(")").split(","))
    for sign, operation in (("+", np.add), ("-", np.subtract)):
        left, op, right = expr.partition(sign)
        if op:
            return operation, (left, right)
    factors = _FACTOR.findall(expr)
    if "".join(factors) != expr or factors == [expr] and not expr.endswith("*"):
        raise KeyError(f"no operand or matrix expression {expr!r}")
    if len(factors) > 1:
        return np.matmul, (expr[: -len(factors[-1])], factors[-1])
    return _adj, (expr[:-1],)


def _chunks(items, checks) -> list[_Chunk]:
    """Reduce each (space, operands, instance) item with one reduce_all call
    and group the items by reduced size, check list and operand names."""
    groups: dict[tuple, list] = {}
    for pos, (space, operands, instance) in enumerate(items):
        admits, bounded, reduced = space.reduce_all(list(operands.values()))
        names = tuple(operands)
        applicable = (cid for cid, d in CATALOG.items() if set(names) >= set(d.operands))
        ids = tuple(checks if checks is not None else applicable)
        unsupplied = [name for cid in ids for name in CATALOG[cid].operands if name not in names]
        if unsupplied:
            raise BadConfig(f"operand {unsupplied[0]!r} not supplied")
        item = _Item(pos, space.rank, names, instance, admits & bounded, reduced)
        groups.setdefault((space.rank, ids, names), []).append(item)
    return [_Chunk([CATALOG[cid] for cid in ids], group) for (_r, ids, _names), group in groups.items()]


def _solve(requests, opts: RadiusOptions) -> None:
    """Solve (chunk, keys) requests: all radii and Crawford numbers in one
    search, all norms in one singular value call per size."""
    stacks = {"w": [], "c": [], "n": []}
    rows = dict.fromkeys(stacks, 0)
    slots = []
    for ch, keys in requests:
        for key in keys:
            stacks[key[0]].append(ch.mat(key[2:-1]))
            slots.append((ch, key, rows[key[0]]))
            rows[key[0]] += ch.k
    radii, crawfords = radii_and_crawford_numbers(stacks["w"], stacks["c"], opts)
    solved = {"w": radii, "c": crawfords, "n": matrix_norms(stacks["n"])}
    for ch, key, start in slots:
        ch[key] = solved[key[0]][start : start + ch.k]


# -- reduced-coordinate algebra on stacks -------------------------------------


def _adj(M: np.ndarray) -> np.ndarray:
    """The A-adjoint in reduced coordinates."""
    return np.swapaxes(M.conj(), -1, -2)


def _re(M: np.ndarray) -> np.ndarray:
    """Selfadjoint part (M + adj(M)) / 2."""
    return 0.5 * (M + _adj(M))


def _im(M: np.ndarray) -> np.ndarray:
    """Skew part (M - adj(M)) / (2i)."""
    return -0.5j * (M - _adj(M))


def _block(X: np.ndarray, Y: np.ndarray, layout: str) -> np.ndarray:
    """Two-by-two block operators: X, Y on the diagonal or X upper right
    and Y lower left ("antidiagonal")."""
    r = X.shape[-1]
    B = np.zeros((*X.shape[:-2], 2 * r, 2 * r), dtype=np.complex128)
    if layout == "diagonal":
        B[..., :r, :r], B[..., r:, r:] = X, Y
    else:
        B[..., :r, r:], B[..., r:, :r] = X, Y
    return B


# -- shared composite quantities --------------------------------------------


def _sq(ch: _Chunk, key: str):
    """The square of a solved request."""
    return ch.once(f"{key}^2", lambda: isq(ch[key]))


def _gap(sq_re, sq_im):
    """| seminorm(re part)^2 - seminorm(im part)^2 | from the two squares."""
    return iabs(isub(sq_re, sq_im))


def _part_gap(ch: _Chunk, X: str):
    """_gap of operand X from its requested part norms."""
    return ch.once(f"gap {X}", lambda: _gap(_sq(ch, f"n(re {X})"), _sq(ch, f"n(im {X})")))


def _damped_radius(ch: _Chunk, X: str):
    """sqrt(radius(X)^2 - part_gap(X)/2), the refinement factor."""
    return ch.once(f"damped {X}", lambda: isqrt(isub(_sq(ch, f"w({X})"), iscale(0.5, _part_gap(ch, X)))))


def _coarse_commutator_rhs(ch: _Chunk):
    """2 sqrt(2) min(|T| w(S), |S| w(T))."""
    return ch.once("coarse", lambda: iscale(_2SQRT2, imin(imul(ch["n(T)"], ch["w(S)"]), imul(ch["n(S)"], ch["w(T)"]))))


# -- check evaluators --------------------------------------------------------
#
# Each evaluator runs once per chunk, after its entry's requests are solved,
# and returns its (variant, lhs, rhs) stacks, or (variants, notes, skip) with
# per-row notes and per-row PreconditionFailed or None.


def _c1(ch):
    w, nrm = ch["w(T)"], ch["n(T)"]
    return [("lower", iscale(0.5, nrm), w), ("upper", w, nrm)]


def _c2(ch):
    # Rows failing membership are zeros here, so only members can skip:
    # for them tilde(Tsa) is Hermitian exactly when Tsa is selfadjoint.
    reason = "operand Tsa is not selfadjoint for the seed"
    skip = [None if ok else PreconditionFailed(reason) for ok in is_hermitian(ch.mat("Tsa"))]
    return [("", ch["n(Tsa)"], ch["w(Tsa)"])], {}, skip


def _c3(ch):
    left = ch["n(T*T)"]
    return [
        ("products", left, ch["n(TT*)"]),
        ("norm-square", left, _sq(ch, "n(T)")),
        ("adjoint-norm", left, isq(ch["n(T*)"])),
    ]


def _c4(ch):
    d, wsq = ch["n(T*T+TT*)"], _sq(ch, "w(T)")
    return [("lower", iscale(0.25, d), wsq), ("upper", wsq, iscale(0.5, d))]


def _c5(ch):
    rhs = _coarse_commutator_rhs(ch)
    return [("+", ch["w(TS+ST)"], rhs), ("-", ch["w(TS-ST)"], rhs)]


def _c6(ch):
    rhs = imul(isqrt(ch["n(T1T1*+T2*T2)"]), isqrt(ch["n(S1*S1+S2S2*)"]))
    return [("+", ch["w(T1S1+S2T2)"], rhs), ("-", ch["w(T1S1-S2T2)"], rhs)]


def _c7(ch):
    top = imax(ch["n(T)"], ch["n(S)"])
    return [
        ("diag-radius", ch["w(diagonal(T,S))"], imax(ch["w(T)"], ch["w(S)"])),
        ("antidiag-radius", ch["w(antidiagonal(T,T))"], ch["w(T)"]),
        ("diag-norm", ch["n(diagonal(T,S))"], top),
        ("antidiag-norm", ch["n(antidiagonal(T,S))"], top),
    ]


def _c8(ch):
    rhs = iscale(4.0, imul(ch["w(antidiagonal(T1,T2))"], ch["w(S)"]))
    return [("+", ch["w(T1S+ST2)"], rhs), ("-", ch["w(T1S-ST2)"], rhs)]


def _c9(ch):
    rhs = iscale(4.0, imul(ch["w(T)"], ch["w(S)"]))
    return [("+", ch["w(TS+ST)"], rhs), ("-", ch["w(TS-ST)"], rhs)]


def _c10(ch):
    # tilde(PQ - QP) = [tilde(P), tilde(Q)], so A(PQ - QP) = 0 exactly when
    # the reduced operands commute; Holbrook's omega(XY) <= 2 omega(X) omega(Y)
    # for commuting matrices then gives the bound.  Rows failing membership
    # are zeros here, so only members can skip.
    reason = "operands do not commute modulo the null space of the seed"
    skip = [None if ok else PreconditionFailed(reason) for ok in commutes(ch.mat("P"), ch.mat("Q"))]
    return [("", ch["w(PQ)"], iscale(2.0, imul(ch["w(P)"], ch["w(Q)"])))], {}, skip


def _c11(ch):
    rhs = iadd(imax(_sq(ch, "n(T)"), _sq(ch, "n(S)")), ch["n(ST)"])
    return [("", ch["n(TT*+S*S)"], rhs)]


def _c12(ch):
    inner = iadd(ch["n(X*X+YY*)"], iscale(2.0, ch["c(YX)"]))
    return [("", ch["w(antidiagonal(X,Y))"], iscale(0.5, isqrt(inner)))]


def _c13(ch):
    nT, nS, wblock = ch["n(T)"], ch["n(S)"], ch["w(antidiagonal(X,Y))"]
    first = isqrt(iadd(imax(_sq(ch, "n(T)"), _sq(ch, "n(S)")), ch["n(ST)"]))
    second = isqrt(isub(isq(wblock), iscale(0.5, ch["c(YX)"])))
    mid = iscale(2.0, imul(first, second))
    outer = iscale(_2SQRT2, imul(imax(nT, nS), wblock))
    variants = [("+", ch["w(TX+YS)"], mid), ("-", ch["w(TX-YS)"], mid), ("chain", mid, outer)]
    return variants, {"chain_slack": outer.lo - mid.hi}, None


def _c14(ch):
    prod = imul(ch["n(T)"], ch["n(S)"])
    nT_sq, nS_sq = _sq(ch, "n(T)"), _sq(ch, "n(S)")
    mean = iscale(0.5, iadd(nT_sq, nS_sq))
    return [
        ("product", ch["n(ST)"], prod),
        ("mean", prod, mean),
        ("max", mean, imax(nT_sq, nS_sq)),
    ]


def _c15(ch):
    if ch.r == 0:
        return [], {}, [PreconditionFailed("no unit vectors exist for a rank-zero seed") for _ in range(ch.k)]
    T, hi = ch.mat("T"), ch["w(T)"].hi[:, None, None]
    # T over its radius, or T itself where the radius is below the floor.
    big = hi > RADIUS_FLOOR
    Tn = np.where(big, T / np.where(big, hi, 1.0), T)
    # Seminorm-one vectors x of the full space, as unit vectors y = C x of
    # C^r: |Tn x|_A = |tilde(Tn) y| and |sharp(Tn) x|_A = |tilde(Tn)* y|.
    # Each row draws them from a seed of its reduced T.
    Y = np.stack([sample_sphere(ch.r, VECTOR_COUNT, content_seed(M)) for M in T])
    V, W = Tn @ Y, _adj(Tn) @ Y
    vals = np.einsum("kij,kij->kj", V.conj(), V) + np.einsum("kij,kij->kj", W.conj(), W)
    worst = np.max(np.maximum(vals.real, 0.0), axis=1)
    err = 1e-10 * (1.0 + worst)
    lhs = Enclosures(worst - err, worst + err, np.zeros(ch.k, dtype=np.intp))
    # Tn depends on a solved radius, so its parts' norms are computed here.
    parts = matrix_norms([_re(Tn), _im(Tn)])
    rhs = iscale(4.0, isub(ipoint(1.0), iscale(0.5, _gap(isq(parts[: ch.k]), isq(parts[ch.k :])))))
    return [("", lhs, rhs)]


def _c16(ch):
    top = imax(_sq(ch, "n(re T)"), _sq(ch, "n(im T)"))
    rhs = isub(iscale(4.0, top), iscale(2.0, _part_gap(ch, "T")))
    return [("", ch["n(T*T+TT*)"], rhs)]


def _c17(ch):
    n_plus, n_minus = isq(ch["n(X+Y)"]), isq(ch["n(X-Y)"])
    rhs = isub(imax(n_plus, n_minus), iscale(0.5, iabs(isub(n_plus, n_minus))))
    return [("", ch["n(X*X+Y*Y)"], rhs)]


def _c18(ch):
    rhs = isub(iscale(4.0, _sq(ch, "w(T)")), iscale(2.0, _part_gap(ch, "T")))
    return [("", ch["n(T*T+TT*)"], rhs)]


def _c19(ch):
    w = ch["w(T)"]
    return [("re", ch["w(re T)"], w), ("im", ch["w(im T)"], w)]


def _c20(ch):
    factor = imul(ch["n(S)"], imax(ch["n(X)"], ch["n(Y)"]))
    rhs = iscale(_2SQRT2, imul(factor, _damped_radius(ch, "T")))
    return [("+", ch["w(TXS+SYT)"], rhs), ("-", ch["w(TXS-SYT)"], rhs)]


def _c21(ch):
    # f(X, Y) = seminorm(Y) * sqrt(radius(X)^2 - part_gap(X)/2)
    f_TS = imul(ch["n(S)"], _damped_radius(ch, "T"))
    f_ST = imul(ch["n(T)"], _damped_radius(ch, "S"))
    rhs = iscale(_2SQRT2, imin(f_TS, f_ST))
    notes = {"coarse_rhs_slack": _coarse_commutator_rhs(ch).lo - rhs.hi}
    return [("+", ch["w(TS+ST)"], rhs), ("-", ch["w(TS-ST)"], rhs)], notes, None


def _c22(ch):
    return [("", ch["w(TT)"], iscale(math.sqrt(2.0), imul(ch["n(T)"], _damped_radius(ch, "T"))))]


def _c23(ch):
    rhs = _coarse_commutator_rhs(ch)
    plus, minus = ch["w(TS+ST)"], ch["w(TS-ST)"]
    # The sign with the larger upper end, the first on a tie.
    take = minus.hi > plus.hi
    worst = Enclosures(
        np.where(take, minus.lo, plus.lo), np.where(take, minus.hi, plus.hi), np.where(take, minus.code, plus.code)
    )
    tol = EQUALITY_TOL * (1.0 + np.abs(rhs.hi))
    skip = [
        PreconditionFailed("seminorm of S vanishes")
        if vanishes
        else PreconditionFailed("commutator bound is not near equality")
        if far
        else None
        for vanishes, far in zip(ch["n(S)"].hi <= RADIUS_FLOOR, rhs.lo - worst.hi >= tol)
    ]
    gap = _part_gap(ch, "T")
    notes = {"near_equality_gap": gap.hi, "parts_agree": (gap.hi < tol).astype(float)}
    return [("", worst, rhs)], notes, skip


CATALOG: dict[str, CheckDefinition] = {
    d.check_id: d
    for d in (
        CheckDefinition("C1", ("T",), LE, "0.5*norm(T) <= radius(T) <= norm(T)", ("w(T)", "n(T)"), _c1),
        CheckDefinition("C2", ("Tsa",), EQ, "norm(Tsa) = radius(Tsa) for selfadjoint Tsa", ("n(Tsa)", "w(Tsa)"), _c2),
        CheckDefinition(
            "C3",
            ("T",),
            EQ,
            "norm(sharp(T)T) = norm(T sharp(T)) = norm(T)^2 = norm(sharp(T))^2",
            ("n(T*T)", "n(TT*)", "n(T)", "n(T*)"),
            _c3,
        ),
        CheckDefinition(
            "C4",
            ("T",),
            LE,
            "norm(sharp(T)T + T sharp(T))/4 <= radius(T)^2 <= norm(...)/2",
            ("n(T*T+TT*)", "w(T)"),
            _c4,
        ),
        CheckDefinition(
            "C5",
            ("T", "S"),
            LE,
            "radius(TS+-ST) <= 2*sqrt(2)*min(norm(T)radius(S), norm(S)radius(T))",
            ("n(T)", "n(S)", "w(T)", "w(S)", "w(TS+ST)", "w(TS-ST)"),
            _c5,
        ),
        CheckDefinition(
            "C6",
            ("T1", "S1", "T2", "S2"),
            LE,
            "radius(T1S1+-S2T2) <= sqrt(norm(T1 sharp(T1) + sharp(T2)T2))"
            " * sqrt(norm(sharp(S1)S1 + S2 sharp(S2)))",
            ("n(T1T1*+T2*T2)", "n(S1*S1+S2S2*)", "w(T1S1+S2T2)", "w(T1S1-S2T2)"),
            _c6,
        ),
        CheckDefinition(
            "C7",
            ("T", "S"),
            EQ,
            "block radii and norms reduce to componentwise max",
            ("w(diagonal(T,S))", "w(T)", "w(S)", "w(antidiagonal(T,T))")
            + ("n(diagonal(T,S))", "n(T)", "n(S)", "n(antidiagonal(T,S))"),
            _c7,
        ),
        CheckDefinition(
            "C8",
            ("T1", "T2", "S"),
            LE,
            "radius(T1 S +- S T2) <= 4*radius(antidiag(T1,T2))*radius(S)",
            ("w(antidiagonal(T1,T2))", "w(S)", "w(T1S+ST2)", "w(T1S-ST2)"),
            _c8,
        ),
        CheckDefinition(
            "C9",
            ("T", "S"),
            LE,
            "radius(TS+-ST) <= 4*radius(T)*radius(S)",
            ("w(T)", "w(S)", "w(TS+ST)", "w(TS-ST)"),
            _c9,
        ),
        CheckDefinition(
            "C10",
            ("P", "Q"),
            LE,
            "radius(PQ) <= 2*radius(P)*radius(Q) when A(PQ - QP) = 0",
            ("w(P)", "w(Q)", "w(PQ)"),
            _c10,
        ),
        CheckDefinition(
            "C11",
            ("T", "S"),
            LE,
            "norm(T sharp(T) + sharp(S)S) <= max(norm(T)^2, norm(S)^2) + norm(ST)",
            ("n(TT*+S*S)", "n(T)", "n(S)", "n(ST)"),
            _c11,
        ),
        CheckDefinition(
            "C12",
            ("X", "Y"),
            GE,
            "radius(antidiag(X,Y)) >="
            " sqrt(norm(sharp(X)X + Y sharp(Y)) + 2*crawford(YX))/2",
            ("w(antidiagonal(X,Y))", "n(X*X+YY*)", "c(YX)"),
            _c12,
        ),
        CheckDefinition(
            "C13",
            ("T", "S", "X", "Y"),
            LE,
            "radius(TX+-YS) <= 2*sqrt(max(norm(T)^2,norm(S)^2)+norm(ST))"
            " * sqrt(radius(antidiag(X,Y))^2 - crawford(YX)/2)"
            " <= 2*sqrt(2)*max(norm(T),norm(S))*radius(antidiag(X,Y))",
            ("w(antidiagonal(X,Y))", "n(T)", "n(S)", "n(ST)", "c(YX)", "w(TX+YS)", "w(TX-YS)"),
            _c13,
        ),
        CheckDefinition(
            "C14",
            ("T", "S"),
            LE,
            "norm(ST) <= norm(T)norm(S) <= (norm(T)^2+norm(S)^2)/2"
            " <= max(norm(T)^2, norm(S)^2)",
            ("n(T)", "n(S)", "n(ST)"),
            _c14,
        ),
        CheckDefinition(
            "C15",
            ("T",),
            LE,
            "vecnorm(T'x)^2 + vecnorm(sharp(T')x)^2 <= 4 - 2*partgap(T')"
            " for unit x, T' = T/radius hi",
            ("w(T)",),
            _c15,
        ),
        CheckDefinition(
            "C16",
            ("T",),
            LE,
            "norm(sharp(T)T + T sharp(T)) <= 4*max(norm(re T)^2, norm(im T)^2)"
            " - 2*partgap(T)",
            ("n(T*T+TT*)", "n(re T)", "n(im T)"),
            _c16,
        ),
        CheckDefinition(
            "C17",
            ("X", "Y"),
            LE,
            "norm(sharp(X)X + sharp(Y)Y) <= max(norm(X+Y)^2, norm(X-Y)^2)"
            " - |norm(X+Y)^2 - norm(X-Y)^2|/2",
            ("n(X*X+Y*Y)", "n(X+Y)", "n(X-Y)"),
            _c17,
        ),
        CheckDefinition(
            "C18",
            ("T",),
            LE,
            "norm(sharp(T)T + T sharp(T)) <= 4*radius(T)^2 - 2*partgap(T)",
            ("n(T*T+TT*)", "w(T)", "n(re T)", "n(im T)"),
            _c18,
        ),
        CheckDefinition(
            "C19",
            ("T",),
            LE,
            "radius(re T) <= radius(T) and radius(im T) <= radius(T)",
            ("w(T)", "w(re T)", "w(im T)"),
            _c19,
        ),
        CheckDefinition(
            "C20",
            ("T", "S", "X", "Y"),
            LE,
            "radius(TXS+-SYT) <= 2*sqrt(2)*norm(S)*max(norm(X),norm(Y))"
            " * sqrt(radius(T)^2 - partgap(T)/2)",
            ("n(S)", "n(X)", "n(Y)", "w(T)", "n(re T)", "n(im T)", "w(TXS+SYT)", "w(TXS-SYT)"),
            _c20,
        ),
        CheckDefinition(
            "C21",
            ("T", "S"),
            LE,
            "radius(TS+-ST) <= 2*sqrt(2)*min(f(T,S), f(S,T)),"
            " f(X,Y) = norm(Y)*sqrt(radius(X)^2 - partgap(X)/2)",
            ("n(T)", "n(S)", "w(T)", "w(S)", "n(re T)", "n(im T)", "n(re S)", "n(im S)", "w(TS+ST)", "w(TS-ST)"),
            _c21,
        ),
        CheckDefinition(
            "C22",
            ("T",),
            LE,
            "radius(T^2) <= sqrt(2)*norm(T)*sqrt(radius(T)^2 - partgap(T)/2)",
            ("n(T)", "w(T)", "n(re T)", "n(im T)", "w(TT)"),
            _c22,
        ),
        CheckDefinition(
            "C23",
            ("T", "S"),
            CONDITIONAL,
            "near equality in the commutator bound implies partgap(T) near 0",
            ("n(T)", "n(S)", "w(T)", "w(S)", "n(re T)", "n(im T)", "w(TS+ST)", "w(TS-ST)"),
            _c23,
        ),
    )
}


# -- rows as arrays ----------------------------------------------------------

VERDICTS = (PASS_CERTIFIED, PASS_UNCERTIFIED, VIOLATION_CANDIDATE, SKIPPED)
_CERTIFIED, _UNCERTIFIED, _VIOLATION, _SKIPPED = range(len(VERDICTS))


class CheckTable(NamedTuple):
    """Rows of checks (axis 0) on instances (axis 1), held as arrays.

    ``verdict`` holds indices into VERDICTS; ``slack`` and ``tightness``
    are those of each row's first variant of worst slack, and ``notes``
    maps a check id to its notes' values per instance.  A chunk's table
    also keeps what its CheckResults need (see result): each entry's
    (variant, lhs, rhs) stacks, the index of each row's variant, and the
    exception that skips a row, or None.  Joined tables (see concat) keep
    only what summarize reads.
    """

    checks: tuple[str, ...]
    instances: list[str]
    verdict: np.ndarray
    slack: np.ndarray
    tightness: np.ndarray
    notes: dict[str, dict[str, np.ndarray]]
    variants: list | None = None
    variant: np.ndarray | None = None
    skips: list[list] | None = None

    def result(self, c: int, n: int) -> CheckResult:
        """Row (c, n) as a CheckResult; a skipped row notes its reason."""
        check_id, instance, skip = self.checks[c], self.instances[n], self.skips[c][n]
        if skip is not None:
            zero = ipoint(0.0)
            return CheckResult(check_id, instance, zero, zero, 0.0, SKIPPED, 0.0, notes={"reason": str(skip)})
        variant, lhs, rhs = self.variants[c][self.variant.item(c, n)]
        notes = {key: values.item(n) for key, values in self.notes.get(check_id, {}).items()}
        slack, verdict, tightness = self.slack.item(c, n), VERDICTS[self.verdict.item(c, n)], self.tightness.item(c, n)
        return CheckResult(check_id, instance, lhs[n], rhs[n], slack, verdict, tightness, variant, notes)

    @staticmethod
    def concat(tables) -> "CheckTable":
        """The tables side by side, without the row detail; they must share
        their checks."""

        def join(arrays):
            return np.concatenate(list(arrays), axis=-1)

        first = tables[0]
        return CheckTable(
            first.checks,
            [name for t in tables for name in t.instances],
            join(t.verdict for t in tables),
            join(t.slack for t in tables),
            join(t.tightness for t in tables),
            {cid: {key: join(t.notes[cid][key] for t in tables) for key in keys} for cid, keys in first.notes.items()},
        )


def _table(ch: _Chunk) -> CheckTable:
    """Every entry's rows on a chunk, in one pass over (entry, variant,
    row) stacks of ends: each row takes its first variant of worst slack.

    A row skips on the first of the entry's operands that fails the
    membership tests, then on the rows its evaluation skips."""
    outcomes = [entry.evaluate(ch) for entry in ch.entries]
    outcomes = [outcome if isinstance(outcome, tuple) else (outcome, {}, None) for outcome in outcomes]
    counts = np.array([len(variants) for variants, _notes, _skip in outcomes], dtype=np.intp)
    width = max(1, counts.max(initial=0))
    # The (lhs lo, lhs hi, rhs lo, rhs hi) ends of every variant after a
    # row of zeros, which pads the entries with fewer variants.
    ends = [np.zeros(ch.k)] * 4
    for variants, _notes, _skip in outcomes:
        ends += (end for _variant, lhs, rhs in variants for end in (lhs.lo, lhs.hi, rhs.lo, rhs.hi))
    ends = np.concatenate(ends).reshape(-1, 4, ch.k)
    padded = np.arange(width) >= counts[:, None]
    index = np.where(padded, 0, (np.cumsum(counts) - counts + 1)[:, None] + np.arange(width))
    lhs_lo, lhs_hi, rhs_lo, rhs_hi = ends[index].transpose(2, 0, 1, 3)

    # Slack by direction, per entry; a conditional entry compares as LE.
    direction = np.array([entry.direction for entry in ch.entries], dtype=str)[:, None]
    is_ge, is_eq = direction == GE, direction == EQ
    le, ge = rhs_lo - lhs_hi, lhs_lo - rhs_hi
    cushion = EQ_TOL * (1.0 + np.maximum(np.abs(lhs_hi), np.abs(rhs_hi)))
    eq = cushion - np.maximum(np.maximum(ge, le), 0.0)
    slack = np.where(is_ge[..., None], ge, np.where(is_eq[..., None], eq, le))
    slack[padded] = np.inf
    best = slack.argmin(axis=1)
    entries, rows = np.arange(len(outcomes))[:, None], np.arange(ch.k)
    slack = slack[entries, best, rows]
    lhs_lo, lhs_hi, rhs_lo, rhs_hi = ends[index[entries, best], :, rows].transpose(2, 0, 1)

    # The certification floor absorbs last-place rounding between routes
    # that compute one quantity two ways; it sits four orders of magnitude
    # below the violation threshold, so no near-violation can certify.
    # An inequality is violated only if it fails between the ends most in
    # its favour (each side's swapped); wide sound enclosures leave it open.
    scale = 1.0 + np.abs(rhs_hi)
    favoured = np.where(is_eq, slack, np.where(is_ge, lhs_hi - rhs_lo, rhs_hi - lhs_lo))
    violated = np.where(favoured < -VIOLATION_TOL * scale, _VIOLATION, _UNCERTIFIED)
    verdict = np.where((slack >= -CERT_EPS * scale) | (direction == CONDITIONAL), _CERTIFIED, violated)

    skips = []
    for entry, (_variants, _notes, skip) in zip(ch.entries, outcomes):
        row = list(skip) if skip is not None else [None] * ch.k
        for name in reversed(entry.operands):
            for i in ch.failing.get(name, ()):
                row[i] = MembershipViolated(f"{entry.check_id}: operand {name!r} fails the membership tests")
        skips.append(row)
    verdict[np.array([x is not None for row in skips for x in row], dtype=bool).reshape(verdict.shape)] = _SKIPPED

    checks, variants = tuple(entry.check_id for entry in ch.entries), [outcome[0] for outcome in outcomes]
    notes = {cid: entry_notes for cid, (_variants, entry_notes, _skip) in zip(checks, outcomes) if entry_notes}
    tightness = lhs_hi / np.maximum(rhs_lo, TIGHTNESS_EPS)
    return CheckTable(checks, [it.instance for it in ch.items], verdict, slack, tightness, notes, variants, best, skips)


def run_tables(items, opts: RadiusOptions | None = None, checks=None) -> list[tuple[list[int], CheckTable]]:
    """The items' positions and table per chunk: the (space, operands,
    instance) items are reduced into chunks, all requests solved at once,
    and each check run once per chunk."""
    unknown = [cid for cid in checks or () if cid not in CATALOG]
    if unknown:
        raise UnknownCheck(f"no catalog entry {unknown[0]!r}")
    chunks = _chunks(items, checks)
    needs = [(ch, dict.fromkeys(key for entry in ch.entries for key in entry.needs)) for ch in chunks]
    _solve(needs, opts if opts is not None else RadiusOptions())
    return [([it.position for it in ch.items], _table(ch)) for ch in chunks]


def run_check(
    space: SemiHilbertSpace, check_id: str, operands, opts: RadiusOptions | None = None, instance: str = "adhoc"
) -> CheckResult:
    """Evaluate one catalog entry; raises instead of skipping."""
    ((_positions, table),) = run_tables([(space, operands, instance)], opts, [check_id])
    if table.skips[0][0] is not None:
        raise table.skips[0][0]
    return table.result(0, 0)


def run_all(
    space: SemiHilbertSpace, operands, opts: RadiusOptions | None = None, instance: str = "adhoc", checks=None
) -> list[CheckResult]:
    """Evaluate the catalog on a shared operand bundle.

    Entries whose precondition or membership fails are reported as
    skipped rather than aborting the batch.  ``checks`` restricts the
    run to the given ids; by default every entry whose operands are all
    present runs.
    """
    return run_many([(space, operands, instance)], opts, checks)[0]


def run_many(items, opts: RadiusOptions | None = None, checks=None) -> list[list[CheckResult]]:
    """run_all on each (space, operands, instance) item, evaluating the
    items in chunks; each row equals its run_all row."""
    out: list = [None] * len(items)
    for positions, table in run_tables(items, opts, checks):
        for n, position in enumerate(positions):
            out[position] = [table.result(c, n) for c in range(len(table.checks))]
    return out


def summarize(table: CheckTable) -> dict[str, dict]:
    """Each check's summary over its row of the table, in catalog order.

    The counts come from the verdict codes.  Over the rows that did not
    skip, it gives the least slack and the first instance that has it,
    the median of a stable sort of the slacks, the largest tightness and
    each note's least value; equal values resolve to the first row, as a
    fold over the rows in order would.
    """
    checks, instances, notes, n = table.checks, table.instances, table.notes, len(table.instances)
    live = table.verdict != _SKIPPED
    counts = (table.verdict[..., None] == np.arange(len(VERDICTS))).sum(axis=1, dtype=np.intp).tolist()
    # Skipped rows sort last and never give the least slack or the largest tightness.
    slack = np.where(live, table.slack, np.inf)
    ordered = np.sort(slack, axis=1, kind="stable")
    least, top = slack.argmin(axis=1).tolist(), np.where(live, table.tightness, -np.inf).argmax(axis=1).tolist()
    out = {}
    for c in sorted(range(len(checks)), key=lambda c: _check_order(checks[c])):
        certified, uncertified, violations, skipped = counts[c]
        summary = out[checks[c]] = dict(
            trials=n, skipped=skipped, certified=certified, uncertified=uncertified, violations=violations
        )
        if skipped < n:
            summary["min_slack"], summary["median_slack"] = slack.item(c, least[c]), ordered.item(c, (n - skipped) // 2)
            summary["max_tightness"], summary["argmin_instance"] = table.tightness.item(c, top[c]), instances[least[c]]
            if notes.get(checks[c]):
                mins = {key: values[live[c]] for key, values in notes[checks[c]].items()}
                summary["note_mins"] = {key: values.item(values.argmin()) for key, values in mins.items()}
    return out


def _check_order(cid: str):
    return (len(cid), cid)


def tightness_report(results) -> dict[str, dict]:
    """Per-check slack and tightness aggregation over many results: the
    summary of a table of each check's rows, in their order."""
    by_check: dict[str, list] = {}
    for r in results:
        by_check.setdefault(r.check_id, []).append(r)
    if not by_check:
        raise EmptyInput("no results to aggregate")
    out = {}
    for cid in sorted(by_check, key=_check_order):
        rows = by_check[cid]
        live_notes = [r.notes if r.verdict != SKIPPED else {} for r in rows]
        keys = dict.fromkeys(key for notes in live_notes for key in notes)
        notes = {key: np.array([row.get(key, math.inf) for row in live_notes], dtype=float) for key in keys}
        verdict = np.array([[VERDICTS.index(r.verdict) for r in rows]])
        slack, tightness = np.array([[[r.slack for r in rows]], [[r.tightness for r in rows]]], dtype=float)
        out |= summarize(CheckTable((cid,), [r.instance for r in rows], verdict, slack, tightness, {cid: notes}))
    return out
