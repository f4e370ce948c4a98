"""Acceptance gate: one test per criterion, slowest first.

Criteria 1, 7 and 8 share a single large campaign run through the
module-scoped fixture; the rest are independent sweeps.  Run with
``pytest tests/test_acceptance.py -v`` to get one pass or fail line
per criterion.
"""

import dataclasses
import json

import numpy as np
import pytest

from semiradius import (
    CampaignConfig,
    RadiusOptions,
    SampleConfig,
    a_numerical_radius,
    build_space,
    crawford,
    crawford_number,
    derive_seed,
    mc_crawford_upper,
    mc_radius_lower,
    numerical_radius,
    op_seminorm,
    run_campaign,
    run_check,
    sample_a_selfadjoint,
    sample_operator_in_BA,
    sample_space,
)
from semiradius.catalog import PASS_CERTIFIED, VIOLATION_CANDIDATE

# The campaign grid: every rank of every dimension from 2 through 6.
MAIN = CampaignConfig(
    dims=(2, 3, 4, 5, 6),
    ranks=None,
    trials=1000,
    master_seed=42,
    grid_count=64,
)

# Initial search density for the point sweeps below.  Certificates do not
# depend on it, so the cheaper setting is sound.
FAST = RadiusOptions(grid_count=64)

_CELLS = tuple((d, r) for d in (2, 3, 4, 5, 6) for r in range(1, d + 1))


def _fresh_space(master: int, k: int):
    """Space number k of a sweep, cycling through every grid cell."""
    dim, rank = _CELLS[k % len(_CELLS)]
    seed = derive_seed(master, dim, rank, k // len(_CELLS))
    return sample_space(SampleConfig(dim=dim, rank=rank, master_seed=seed)), seed


def _rel_residual(L: np.ndarray, R: np.ndarray) -> float:
    return float(np.linalg.norm(L - R) / (1.0 + np.linalg.norm(L) + np.linalg.norm(R)))


@pytest.fixture(scope="module")
def main_report():
    return run_campaign(MAIN)


def test_criterion_1_full_campaign(main_report):
    totals = main_report["totals"]
    live = totals["trials"] - totals["skipped"]
    bad = {c: s["violations"] for c, s in main_report["checks"].items() if s["violations"]}
    rate = totals["uncertified"] / live
    wall = main_report["wall_time_s"]
    print(
        f"criterion 1: {live} live rows, violations {bad or 0}, "
        f"uncertified rate {rate:.5%}, wall {wall:.1f}s"
    )
    assert not bad
    assert rate < 0.01
    assert wall < 300.0


def test_criterion_2_adjoint_and_reduction_identities():
    worst = 0.0
    for k in range(10_000):
        sp, seed = _fresh_space(2, k)
        T = sample_operator_in_BA(sp, seed=derive_seed(seed, 1))
        S = sample_operator_in_BA(sp, seed=derive_seed(seed, 2))
        U_r = sp.eigen.vectors[:, sp.dim - sp.rank :]
        A, P = sp.matrix, U_r @ U_r.conj().T
        Ts, Ss = sp.sharp(T), sp.sharp(S)
        pairs = (
            (A @ Ts, T.conj().T @ A),
            (sp.sharp(T @ S), Ss @ Ts),
            (sp.sharp(Ts), P @ T @ P),
            (sp.tilde(T @ S), sp.tilde(T) @ sp.tilde(S)),
            (sp.tilde(np.eye(sp.dim)), np.eye(sp.rank)),
            (sp.tilde(Ts), sp.tilde(T).conj().T),
        )
        for L, R in pairs:
            worst = max(worst, _rel_residual(L, R))
    print(f"criterion 2: worst relative residual {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_3_equality_checks():
    worst = 0.0
    for k in range(1000):
        sp, seed = _fresh_space(3, k)
        Tsa = sample_a_selfadjoint(sp, seed=derive_seed(seed, 1))
        T = sample_operator_in_BA(sp, seed=derive_seed(seed, 2))
        for cid, ops in (("C2", {"Tsa": Tsa}), ("C3", {"T": T})):
            r = run_check(sp, cid, ops, opts=FAST)
            assert r.verdict != VIOLATION_CANDIDATE, r
            gap = max(r.lhs.lo - r.rhs.hi, r.rhs.lo - r.lhs.hi, 0.0)
            worst = max(worst, gap / (1.0 + abs(r.rhs.hi)))
    print(f"criterion 3: worst relative equality gap {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_4_monte_carlo_oracles():
    worst_gap = 0.0
    for k in range(200):
        sp, seed = _fresh_space(4, k)
        T = sample_operator_in_BA(sp, seed=derive_seed(seed, 1))
        allow = 1e-8 * (1.0 + float(np.linalg.norm(sp.tilde(T), 2)))
        w = a_numerical_radius(sp, T, FAST)
        c = crawford(sp, T, FAST)
        lo = mc_radius_lower(sp, T, 100_000, seed=derive_seed(seed, 2))
        up = mc_crawford_upper(sp, T, 100_000, seed=derive_seed(seed, 3))
        # The sampled bounds bracket the true values from one side each, so
        # consistency with the enclosures is one-sided too.
        assert lo <= w.hi + 1e-12
        assert c.lo <= up + 1e-12
        assert w.width <= allow and c.width <= allow
        worst_gap = max(worst_gap, w.width / allow, c.width / allow)
    print(f"criterion 4: worst enclosure width at {worst_gap:.3%} of budget")


def test_criterion_5_closed_form_values():
    shift = numerical_radius([[0.0, 1.0], [0.0, 0.0]])
    assert abs(shift.mid - 0.5) <= 1e-9
    assert shift.lo <= 0.5 <= shift.hi

    jordan = crawford_number([[1.0, 1.0], [0.0, 1.0]])
    assert abs(jordan.mid - 0.5) <= 1e-8

    sp = build_space(np.diag([2.0, 0.0]))
    T = np.array([[1.0, 0.0], [5.0, 3.0]])
    n = op_seminorm(sp, T)
    w = a_numerical_radius(sp, T)
    assert abs(n.mid - 1.0) <= 1e-9
    assert abs(w.mid - 1.0) <= 1e-9
    print(
        f"criterion 5: shift radius {shift.mid:.12f}, jordan crawford "
        f"{jordan.mid:.12f}, degenerate norm {n.mid:.12f}, radius {w.mid:.12f}"
    )


def test_criterion_6_block_operator_identities():
    worst = 0.0
    for k in range(500):
        sp, seed = _fresh_space(6, k)
        T = sample_operator_in_BA(sp, seed=derive_seed(seed, 1))
        S = sample_operator_in_BA(sp, seed=derive_seed(seed, 2))
        r = run_check(sp, "C7", {"T": T, "S": S}, opts=FAST)
        assert r.verdict == PASS_CERTIFIED, r

        # Off-diagonal blocks: sharp(B)B + B sharp(B) collapses to a
        # diagonal of one-space combinations.
        B = sp.block2(T, S, "antidiagonal")
        Bs = sp.double().sharp(B)
        Ts, Ss = sp.sharp(T), sp.sharp(S)
        n = sp.dim
        R = np.zeros_like(B)
        R[:n, :n] = Ss @ S + T @ Ts
        R[n:, n:] = Ts @ T + S @ Ss
        worst = max(worst, _rel_residual(Bs @ B + B @ Bs, R))
    print(f"criterion 6: worst block identity residual {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_7_dominance_floors(main_report):
    # The recorded minima are differences of safe interval ends, so a tiny
    # negative only reflects enclosure width, never an order reversal.
    chain = main_report["checks"]["C13"]["note_mins"]["chain_slack"]
    coarse = main_report["checks"]["C21"]["note_mins"]["coarse_rhs_slack"]
    print(f"criterion 7: refined-vs-outer floor {chain:.3e}, coarse floor {coarse:.3e}")
    assert chain >= -1e-6
    assert coarse >= -1e-6


def test_criterion_8_deterministic_reports(main_report):
    again = run_campaign(dataclasses.replace(MAIN, workers=2))
    first = {k: v for k, v in main_report.items() if k != "wall_time_s"}
    second = {k: v for k, v in again.items() if k != "wall_time_s"}
    a = json.dumps(first, sort_keys=True, allow_nan=False)
    b = json.dumps(second, sort_keys=True, allow_nan=False)
    print(f"criterion 8: report payloads of {len(a)} bytes compare equal: {a == b}")
    assert a == b
