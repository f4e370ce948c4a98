"""Interval helpers on stacks give the doubles of the Python-float rules.

Each helper applied to Enclosures stacks must match, bit for bit and sign
of zero included, the same helper written with Python's min, max, abs and
math.sqrt on one pair of floats at a time.
"""

import itertools
import math

import numpy as np
import pytest

from semiradius.functionals import (
    METHODS,
    Enclosure,
    Enclosures,
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
)

# Signed-zero ties, equal ends, negative, straddling and positive intervals.
ENDS = [
    (0.0, 0.0),
    (-0.0, 0.0),
    (-0.0, -0.0),
    (0.0, 1.0),
    (-0.0, 2.0),
    (-1.0, -0.0),
    (-3.0, -1.0),
    (-2.0, 5.0),
    (1.5, 1.5),
    (-2.5, -2.5),
    (1e-200, 1e150),
    (0.1, 0.30000000000000004),
]
PAIRS = list(itertools.product(range(len(ENDS)), repeat=2))


def reference(name, a, b=None):
    """The helper on floats: (lo, hi) from the ends a and b."""
    (alo, ahi) = a
    if name == "iadd":
        return alo + b[0], ahi + b[1]
    if name == "isub":
        return alo - b[1], ahi - b[0]
    if name in ("imul", "isq"):
        blo, bhi = b if name == "imul" else a
        ends = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(ends), max(ends)
    if name == "isqrt":
        return math.sqrt(max(alo, 0.0)), math.sqrt(max(ahi, 0.0))
    if name == "imax":
        return max(alo, b[0]), max(ahi, b[1])
    if name == "imin":
        return min(alo, b[0]), min(ahi, b[1])
    if name == "iabs":
        lo = 0.0 if alo <= 0.0 <= ahi else min(abs(alo), abs(ahi))
        return lo, max(abs(alo), abs(ahi))
    c = b  # iscale
    ends = (c * alo, c * ahi)
    return min(ends), max(ends)


HELPERS = {
    "iadd": iadd,
    "isub": isub,
    "imul": imul,
    "imax": imax,
    "imin": imin,
    "isq": isq,
    "isqrt": isqrt,
    "iabs": iabs,
}
BINARY = ("iadd", "isub", "imul", "imax", "imin")


def stack(ends, codes) -> Enclosures:
    lo, hi = zip(*ends)
    return Enclosures(np.array(lo), np.array(hi), np.array(codes))


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def apply(name, a, b):
    return HELPERS[name](a, b) if name in BINARY else HELPERS[name](a)


@pytest.mark.parametrize("name", sorted(HELPERS))
def test_stack_matches_python_floats(name):
    a_ends = [ENDS[i] for i, _ in PAIRS]
    b_ends = [ENDS[j] for _, j in PAIRS]
    a_codes = [i % 3 for i, _ in PAIRS]
    b_codes = [j % 3 for _, j in PAIRS]
    want = [reference(name, a, b) for a, b in zip(a_ends, b_ends)]
    want_codes = [max(x, y) if name in BINARY else x for x, y in zip(a_codes, b_codes)]
    # Long stacks and one-row stacks take different numpy loops.
    for rows in [slice(None)] + [slice(i, i + 1) for i in range(len(PAIRS))]:
        got = apply(name, stack(a_ends[rows], a_codes[rows]), stack(b_ends[rows], b_codes[rows]))
        assert isinstance(got, Enclosures)
        assert hexes(got.lo) == hexes(lo for lo, _ in want[rows])
        assert hexes(got.hi) == hexes(hi for _, hi in want[rows])
        assert got.code.tolist() == want_codes[rows]


@pytest.mark.parametrize("c", [-2.0, -0.0, 0.0, 0.5, 2.0 * math.sqrt(2.0)])
def test_scale_matches_python_floats(c):
    got = iscale(c, stack(ENDS, [2] * len(ENDS)))
    want = [reference("iscale", a, c) for a in ENDS]
    assert hexes(got.lo) == hexes(lo for lo, _ in want)
    assert hexes(got.hi) == hexes(hi for _, hi in want)
    assert got.code.tolist() == [2] * len(ENDS)


def test_rows_are_the_scalar_results():
    # A stack's rows are the Enclosures the scalar helpers give, and a
    # scalar operand broadcasts against a stack.
    s = stack(ENDS, [i % 3 for i in range(len(ENDS))])
    one = ipoint(1.0)
    for i, (lo, hi) in enumerate(ENDS):
        row = Enclosure(lo, hi, METHODS[i % 3])
        assert s[i] == row
        assert isub(one, s)[i] == isub(one, row)
        assert imul(s, s)[i] == imul(row, row)
