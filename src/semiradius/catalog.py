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
operand names, whose operands are stacked (see _Chunk).  An entry names the functionals
it needs as expressions such as ``w(TS+ST)`` or ``n(re T)``.  Each
expression's matrix is built once per chunk; the radii and Crawford
numbers of all chunks are solved in one stacked search and the norms in
one singular value call per size; every entry then evaluates on interval
stacks with one row per item, and the rows split into the results each
item gets alone.
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
    needs: tuple[str, ...]
    evaluate: Callable
    unmet: Callable | None = None  # per item: why its precondition fails, or None


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
    """A reduced item: per operand, its membership result and r x r matrix."""

    position: int
    space: SemiHilbertSpace
    ops: dict
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
    """

    def __init__(self, entries, items: list[_Item]):
        super().__init__()
        self.entries, self.items, self.k, self.r = entries, items, len(items), items[0].space.rank
        names = list(items[0].ops)
        bad = ~np.stack([it.member for it in items], axis=1)
        self.failing = {names[j]: np.flatnonzero(bad[j]).tolist() for j in np.flatnonzero(bad.any(axis=1))}
        reduced = np.stack([it.reduced for it in items], axis=1)
        # Rows that fail the membership tests are skipped; zeros keep them finite and cheap.
        reduced[bad] = 0.0
        self._mats = dict(zip(names, reduced))

    def once(self, key: str, make):
        """A quantity derived from solved requests, computed once."""
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
        M = self._mats.get(expr)
        if M is None:
            M = self._mats[expr] = self._build(expr)
        return M

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
        ops = {name: np.asarray(M, dtype=np.complex128) for name, M in operands.items()}
        admits, bounded, reduced = space.reduce_all(list(ops.values()))
        applicable = (cid for cid, d in CATALOG.items() if ops.keys() >= set(d.operands))
        ids = tuple(checks if checks is not None else applicable)
        unsupplied = [name for cid in ids for name in CATALOG[cid].operands if name not in ops]
        if unsupplied:
            raise BadConfig(f"operand {unsupplied[0]!r} not supplied")
        item = _Item(pos, space, ops, instance, admits & bounded, reduced)
        groups.setdefault((space.rank, ids, tuple(ops)), []).append(item)
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
    return [("", ch["n(Tsa)"], ch["w(Tsa)"])]


# Per-item preconditions: each returns the reason its check does not apply
# to the item's operands, or None.


def _c2_unmet(it: _Item):
    if not it.space.is_a_selfadjoint(it.ops["Tsa"]):
        return "operand Tsa is not selfadjoint for the seed"


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


def _commutator_size(P: np.ndarray, Q: np.ndarray) -> tuple[float, float]:
    """|PQ - QP| and the scale 1 + |P| |Q| it is measured against.

    P and Q commute when |PQ - QP| <= FACT_TOL (1 + |P| |Q|).  A screen runs
    first: the Frobenius norm of the commutator bounds its spectral norm
    from above and the largest column norm of each factor bounds the
    factor's from below.  Only when those bounds fail the test are the
    exact spectral norms computed."""
    stack = np.stack([P @ Q - Q @ P, P, Q])
    lo, hi = spectral_norm_bounds(stack)
    if hi[0] <= FACT_TOL * (1.0 + lo[1] * lo[2]):
        return float(hi[0]), 1.0 + float(lo[1] * lo[2])
    comm, nP, nQ = spectral_norms(stack)
    return comm, 1.0 + nP * nQ


def _c10(ch):
    return [("", ch["w(PQ)"], iscale(2.0, imul(ch["w(P)"], ch["w(Q)"])))]


def _c10_unmet(it: _Item):
    comm, scale = _commutator_size(it.ops["P"], it.ops["Q"])
    if comm > FACT_TOL * scale:
        return f"operands do not commute: deviation {comm:.3e}"


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


def _c15_unmet(it: _Item):
    if it.space.rank == 0:
        return "no unit vectors exist for a rank-zero seed"


def _c15(ch):
    if ch.r == 0:
        return []  # _c15_unmet skips every row
    T, hi = ch.mat("T"), ch["w(T)"].hi[:, None, None]
    # T over its radius, or T itself where the radius is below the floor.
    big = hi > RADIUS_FLOOR
    Tn = np.where(big, T / np.where(big, hi, 1.0), T)
    # Seminorm-one vectors x of the full space, as y = C x in reduced
    # coordinates: |Tn x|_A = |tilde(Tn) y| and |sharp(Tn) x|_A = |tilde(Tn)* y|.
    X = [sample_unit_vectors(it.space, VECTOR_COUNT, content_seed(it.space.matrix, it.ops["T"])) for it in ch.items]
    Y = np.stack([it.space.coord_map @ x for it, x in zip(ch.items, X)])
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
        CheckDefinition(
            "C2", ("Tsa",), EQ, "norm(Tsa) = radius(Tsa) for selfadjoint Tsa", ("n(Tsa)", "w(Tsa)"), _c2, _c2_unmet
        ),
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
            "radius(PQ) <= 2*radius(P)*radius(Q) when PQ = QP",
            ("w(P)", "w(Q)", "w(PQ)"),
            _c10,
            _c10_unmet,
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
            _c15_unmet,
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


def _slack(direction: str, lhs_lo: float, lhs_hi: float, rhs_lo: float, rhs_hi: float) -> float:
    if direction == GE:
        return lhs_lo - rhs_hi
    if direction == EQ:
        cushion = EQ_TOL * (1.0 + max(abs(lhs_hi), abs(rhs_hi)))
        gap = max(lhs_lo - rhs_hi, rhs_lo - lhs_hi, 0.0)
        return cushion - gap
    return rhs_lo - lhs_hi


def _verdict(direction: str, slack: float, lhs: Enclosure, rhs: Enclosure) -> str:
    # The certification floor absorbs last-place rounding between routes
    # that compute one quantity two ways; it sits four orders of magnitude
    # below the violation threshold, so no near-violation can certify.
    if slack >= -CERT_EPS * (1.0 + abs(rhs.hi)):
        return PASS_CERTIFIED
    # An inequality is violated only if it fails between the ends most in
    # its favour (each side's swapped); wide sound enclosures leave it open.
    if direction != EQ:
        slack = _slack(direction, lhs.hi, lhs.lo, rhs.hi, rhs.lo)
    if slack < -VIOLATION_TOL * (1.0 + abs(rhs.hi)):
        return VIOLATION_CANDIDATE
    return PASS_UNCERTIFIED


def _result(entry: CheckDefinition, instance: str, variants, i: int, notes: dict) -> CheckResult:
    """Row i of an entry's variant stacks: the first variant of worst slack."""
    direction = entry.direction if entry.direction != CONDITIONAL else LE
    best = None
    for variant, lhs, rhs in variants:
        slack = _slack(direction, lhs.lo.item(i), lhs.hi.item(i), rhs.lo.item(i), rhs.hi.item(i))
        if best is None or slack < best[0]:
            best = (slack, variant, lhs, rhs)
    slack, variant, lhs, rhs = best
    lhs, rhs = lhs[i], rhs[i]
    verdict = PASS_CERTIFIED if entry.direction == CONDITIONAL else _verdict(direction, slack, lhs, rhs)
    tightness = lhs.hi / max(rhs.lo, TIGHTNESS_EPS)
    return CheckResult(entry.check_id, instance, lhs, rhs, slack, verdict, tightness, variant, notes)


def _rows(entry: CheckDefinition, ch: _Chunk) -> list:
    """The entry's CheckResult, or the exception that skips it, for each
    row of a chunk.  A row skips on the first of the entry's operands that
    fails the membership tests, then on its unmet precondition, then on
    the rows its evaluation skips."""
    outcome = entry.evaluate(ch)
    variants, notes, skip = outcome if isinstance(outcome, tuple) else (outcome, {}, None)
    rows = list(skip) if skip is not None else [None] * ch.k
    for name in reversed(entry.operands):
        for i in ch.failing.get(name, ()):
            rows[i] = MembershipViolated(f"{entry.check_id}: operand {name!r} fails the membership tests")
    for i, it in enumerate(ch.items):
        if rows[i] is None and entry.unmet is not None and (reason := entry.unmet(it)):
            rows[i] = PreconditionFailed(reason)
        if rows[i] is None:
            row_notes = {key: values.item(i) for key, values in notes.items()}
            rows[i] = _result(entry, it.instance, variants, i, row_notes)
    return rows


def _evaluate(items, opts: RadiusOptions | None, checks) -> list[list]:
    """For each (space, operands, instance) item, (check id, CheckResult or
    the exception that skips it) per check: the items are reduced into
    chunks, all requests solved at once, and each check run once per chunk."""
    unknown = [cid for cid in checks or () if cid not in CATALOG]
    if unknown:
        raise UnknownCheck(f"no catalog entry {unknown[0]!r}")
    chunks = _chunks(items, checks)
    needs = [(ch, dict.fromkeys(key for entry in ch.entries for key in entry.needs)) for ch in chunks]
    _solve(needs, opts if opts is not None else RadiusOptions())
    out: list = [None] * len(items)
    for ch in chunks:
        columns = [(entry.check_id, _rows(entry, ch)) for entry in ch.entries]
        for i, it in enumerate(ch.items):
            out[it.position] = [(cid, rows[i]) for cid, rows in columns]
    return out


def _skip_result(check_id: str, instance: str, reason: str) -> CheckResult:
    zero = ipoint(0.0)
    return CheckResult(check_id, instance, zero, zero, 0.0, SKIPPED, 0.0, notes={"reason": reason})


def run_check(
    space: SemiHilbertSpace, check_id: str, operands, opts: RadiusOptions | None = None, instance: str = "adhoc"
) -> CheckResult:
    """Evaluate one catalog entry; raises instead of skipping."""
    (((_cid, outcome),),) = _evaluate([(space, operands, instance)], opts, [check_id])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    return [
        [_skip_result(cid, instance, str(out)) if isinstance(out, Exception) else out for cid, out in outcomes]
        for (_space, _operands, instance), outcomes in zip(items, _evaluate(items, opts, checks))
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
