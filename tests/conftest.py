"""Shared test configuration.

BLAS thread pools are pinned to one thread before numpy loads so that
repeated runs produce identical floating point results.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "semiradius",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("semiradius")


@pytest.fixture
def dual_attempts(monkeypatch) -> list:
    """A one-element list counting the matrices the radius search gives a
    dual certificate."""
    from semiradius import functionals

    attempts = [0]
    dual = functionals._Pencils.dual

    def counting(self, which, *args):
        attempts[0] += which.size
        return dual(self, which, *args)

    monkeypatch.setattr(functionals._Pencils, "dual", counting)
    return attempts


class Eigensolves:
    """Matrices that the functionals module eigensolves, counted apart by
    solver: eigvalsh (eigenvalues only) and eigh (with eigenvectors).
    Indexing keeps the older two-element view: [0] counts both, [1] eigh."""

    def __init__(self):
        self.eigvalsh = self.eigh = 0

    @property
    def total(self) -> int:
        return self.eigvalsh + self.eigh

    def reset(self) -> None:
        self.eigvalsh = self.eigh = 0

    def __getitem__(self, i: int) -> int:
        return (self.total, self.eigh)[i]


@pytest.fixture
def eigensolves(monkeypatch) -> Eigensolves:
    """Counts of the matrices the functionals module eigensolves from the
    moment the fixture is requested."""
    from semiradius import functionals

    counted = Eigensolves()

    def counting(solver):
        def solve(H, *args, **kwargs):
            n = H.shape[0] if H.ndim == 3 else 1
            setattr(counted, solver.__name__, getattr(counted, solver.__name__) + n)
            return solver(H, *args, **kwargs)

        return solve

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(functionals.np.linalg, name, counting(getattr(functionals.np.linalg, name)))
    return counted


@pytest.fixture
def reference_enclosures():
    """A function that checks an Enclosures stack against one recorded in
    tests/data: each enclosure must overlap the recorded one and be no
    wider than the larger of the recorded width and its own gap plus pads
    (the evaluation pad at either end and the rounding pads of the search's
    bounds, 4e-13 (1 + |M|) in all).  So a search may change the bits of an
    enclosure, but not exclude an answer the record holds, nor stop short
    of its gap.  Called with the file name, the case key, the enclosures,
    the spectral norms of their matrices and the gap scale."""
    import json
    import pathlib

    import numpy as np

    def check(name: str, key: str, encs, norms, gap_scale: float) -> None:
        recorded = json.loads((pathlib.Path(__file__).with_name("data") / name).read_text())[key]
        lo0 = np.array([float.fromhex(a) for a, _b in recorded])
        hi0 = np.array([float.fromhex(b) for _a, b in recorded])
        assert encs.lo.size == lo0.size
        apart = np.flatnonzero((encs.hi < lo0) | (hi0 < encs.lo))
        assert not apart.size, [(i, encs.lo[i], encs.hi[i], lo0[i], hi0[i]) for i in apart]
        allowed = np.maximum(hi0 - lo0, (gap_scale + 4e-13) * (1.0 + norms))
        wide = np.flatnonzero(encs.hi - encs.lo > allowed)
        assert not wide.size, [(i, encs.hi[i] - encs.lo[i], allowed[i]) for i in wide]

    return check
