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
