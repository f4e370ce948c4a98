"""Report and row bytes are pinned.

Two campaigns' reports (without their wall time) and the exact doubles
of every row of four run_all calls are hashed and compared with digests
recorded once.  Any change to the evaluation order of the catalog that
moves a last bit, a signed zero, a verdict, a variant, a note or a skip
reason shows here.  The second campaign runs two trial chunks per cell
and rank-zero cells, so the order in which chunks and jobs are joined
shows too.
"""

import hashlib
import json

import numpy as np
import pytest

from semiradius.campaign import CampaignConfig, run_campaign
from semiradius.catalog import run_all
from semiradius.functionals import RadiusOptions
from semiradius.sampler import SampleConfig, sample_bundle, sample_space
from semiradius.space import build_space

REPORT_SHA256 = "d78d76324a875cc6e709bb13e4ec68eacb6aa6819007dab80becdb5d76040689"
MULTI_CHUNK_SHA256 = "d81f034296e2380acefa08b8db5fda293f9d6e7d39baa5d048330a5186eb7d3e"
ROWS_SHA256 = "6fbe55374e75de75a42677bd373e037e218cd58cfdd9721fc5e7f37bde7a4a42"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_campaign_report_bytes_are_pinned():
    config = CampaignConfig(dims=(2, 3, 4), ranks=(0, 1, 2, 3, 4), trials=6, master_seed=9, grid_count=64)
    report = run_campaign(config)
    report.pop("wall_time_s")
    assert digest(json.dumps(report, sort_keys=True)) == REPORT_SHA256


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_chunk_campaign_bytes_are_pinned(workers):
    config = CampaignConfig(
        dims=(2, 40), ranks=(0, 1, 2), trials=40, master_seed=7, grid_count=64, workers=workers
    )
    report = run_campaign(config)
    report.pop("wall_time_s")
    assert report["totals"]["trials"] == 5520
    assert digest(json.dumps(report, sort_keys=True)) == MULTI_CHUNK_SHA256


def row_record(r) -> list:
    ends = (r.lhs.lo, r.lhs.hi, r.rhs.lo, r.rhs.hi, r.slack, r.tightness)
    notes = {k: v.hex() if isinstance(v, float) else v for k, v in sorted(r.notes.items())}
    return [r.check_id, r.instance, [float(x).hex() for x in ends], r.lhs.method, r.rhs.method, r.verdict, r.variant, notes]


def test_row_bytes_are_pinned():
    zero = np.zeros((2, 2))
    names = ("T", "S", "X", "Y", "T1", "T2", "S1", "S2", "Tsa", "P", "Q")
    items = [(build_space(np.eye(2)), {k: zero for k in names}, "zero")]
    for dim, rank, seed in [(3, 0, 4), (4, 3, 5)]:
        space = sample_space(SampleConfig(dim=dim, rank=rank, master_seed=seed))
        items.append((space, sample_bundle(space, seed=seed + 100), f"d{dim}_r{rank}"))
    # On the seed diag(2, 0) the members are the lower triangular matrices:
    # X fails membership, P and Q do not commute, Tsa is not selfadjoint.
    lower = np.array([[1.0, 0.0], [5.0, 3.0]])
    failing = {
        "T": lower,
        "S": np.array([[2.0, 0.0], [1.0, -1.0]]),
        "X": np.array([[0.0, 1.0], [0.0, 0.0]]),
        "Y": lower,
        "Tsa": np.diag([1.0j, 1.0]),
        "P": lower,
        "Q": np.array([[0.0, 0.0], [1.0, 0.0]]),
    }
    items.append((build_space(np.diag([2.0, 0.0])), failing, "failing"))
    opts = RadiusOptions(grid_count=64)
    records = [row_record(r) for space, ops, name in items for r in run_all(space, ops, opts=opts, instance=name)]
    assert digest(json.dumps(records)) == ROWS_SHA256
