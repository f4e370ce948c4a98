"""Catalog mechanics: hand-checked slacks, folding, verdicts, reports."""

import math

import numpy as np
import pytest

import semiradius.catalog as catalog_module
from semiradius.catalog import (
    CATALOG,
    PASS_CERTIFIED,
    PASS_UNCERTIFIED,
    SKIPPED,
    VIOLATION_CANDIDATE,
    CheckResult,
    _chunks,
    _solve,
    run_all,
    run_check,
    run_many,
    tightness_report,
)
from semiradius.errors import (
    BadConfig,
    DimensionMismatch,
    EmptyInput,
    MembershipViolated,
    PreconditionFailed,
    UnknownCheck,
)
from semiradius.functionals import RadiusOptions, a_numerical_radius, ipoint, op_seminorm
from semiradius.sampler import SampleConfig, sample_bundle, sample_space
from semiradius.space import FACT_TOL, SemiHilbertSpace, build_space

SHIFT = np.array([[0.0, 1.0], [0.0, 0.0]])
A_DEG = np.diag([2.0, 0.0])
T_LOWER = np.array([[1.0, 0.0], [5.0, 3.0]])


def bundle_for(dim, rank, space_seed, bundle_seed, scale=1.0):
    sp = sample_space(SampleConfig(dim=dim, rank=rank, master_seed=space_seed))
    return sp, sample_bundle(sp, scale=scale, seed=bundle_seed)


class TestHandExamples:
    def test_commutator_bound_forced_values(self):
        # T nilpotent, S identity: one sign gives radius 1, the bound is
        # 2*sqrt(2)*min(1*1, 1*0.5) = sqrt(2).
        sp = build_space(np.eye(2))
        res = run_check(sp, "C5", {"T": SHIFT, "S": np.eye(2)})
        assert res.verdict == PASS_CERTIFIED
        assert res.variant == "+"
        assert res.slack == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-8)
        assert res.tightness == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)

    def test_zero_operator_identities(self):
        sp = build_space(np.eye(2))
        res = run_check(sp, "C3", {"T": np.zeros((2, 2))})
        assert res.verdict == PASS_CERTIFIED
        assert abs(res.slack) <= 1e-8
        assert res.lhs.hi == 0.0 and res.rhs.hi == 0.0

    def test_norm_sum_bound_equality_instance(self):
        # Dense arithmetic gives exactly 2 on both sides here, so the
        # verdict must be a pass of some kind and never a violation.
        sp = build_space(A_DEG)
        res = run_check(sp, "C11", {"T": T_LOWER, "S": T_LOWER})
        assert res.verdict in (PASS_CERTIFIED, PASS_UNCERTIFIED)
        assert abs(res.slack) <= 1e-9
        assert res.lhs.lo == pytest.approx(2.0, abs=1e-9)
        assert res.rhs.hi == pytest.approx(2.0, abs=1e-9)

    def test_block_lower_bound_equality_instance(self):
        # X = Y = I on the identity seed puts both sides at exactly 1.
        sp = build_space(np.eye(2))
        res = run_check(sp, "C12", {"X": np.eye(2), "Y": np.eye(2)})
        assert res.verdict in (PASS_CERTIFIED, PASS_UNCERTIFIED)
        assert abs(res.slack) <= 1e-8
        assert res.lhs.lo == pytest.approx(1.0, abs=1e-8)


class TestErrors:
    def test_unknown_check(self):
        sp = build_space(np.eye(2))
        with pytest.raises(UnknownCheck):
            run_check(sp, "C99", {"T": SHIFT})
        with pytest.raises(UnknownCheck):
            run_all(sp, {"T": SHIFT}, checks=["C1", "nope"])

    def test_membership_violated(self):
        sp = build_space(A_DEG)
        bad = np.array([[1.0, 2.0], [0.0, 3.0]])
        with pytest.raises(MembershipViolated):
            run_check(sp, "C1", {"T": bad})

    def test_commuting_precondition(self):
        sp = build_space(np.eye(2))
        P, Q = SHIFT, SHIFT.T
        with pytest.raises(PreconditionFailed):
            run_check(sp, "C10", {"P": P, "Q": Q})
        res = run_all(sp, {"P": P, "Q": Q}, checks=["C10"])
        assert res[0].verdict == SKIPPED
        assert "commute" in res[0].notes["reason"]

    def test_non_finite_commuting_pair_skips_on_membership(self):
        # A non-finite P fails membership, which skips the row before its
        # full-space commutator is measured.
        sp = build_space(A_DEG)
        P = np.where(SHIFT > 0, np.nan, 1.0)
        (row,) = run_all(sp, {"P": P, "Q": T_LOWER}, checks=["C10"])
        assert row.verdict == SKIPPED and "fails the membership tests" in row.notes["reason"]

    def test_selfadjoint_precondition(self):
        sp = build_space(np.eye(2))
        with pytest.raises(PreconditionFailed):
            run_check(sp, "C2", {"Tsa": SHIFT})

    def test_vector_check_needs_rank(self):
        sp = build_space(np.zeros((2, 2)))
        with pytest.raises(PreconditionFailed):
            run_check(sp, "C15", {"T": SHIFT})

    def test_missing_operand(self):
        sp = build_space(np.eye(2))
        with pytest.raises(BadConfig):
            run_check(sp, "C5", {"T": SHIFT})
        with pytest.raises(BadConfig):
            run_all(sp, {"T": SHIFT}, checks=["C1", "C5"])

    def test_wrong_shaped_operand_fails_even_when_unused(self):
        # Every supplied operand is reduced up front, whichever checks run.
        sp = build_space(np.eye(2))
        with pytest.raises(DimensionMismatch):
            run_all(sp, {"T": SHIFT, "S": np.eye(3)}, checks=["C1"])


class TestPreconditionScreens:
    """C10 first tests its precondition with norm bounds that need no
    singular values; the exact spectral test decides only when those
    bounds fail.  C2 tests its precondition on reduced matrices, with no
    singular values at all."""

    def _count_svds(self, monkeypatch, module):
        calls = []
        real = module.spectral_norms

        def counted(stack):
            calls.append(len(stack))
            return real(stack)

        monkeypatch.setattr(module, "spectral_norms", counted)
        return calls

    def test_screen_passes_sampled_operands(self, monkeypatch):
        calls = self._count_svds(monkeypatch, catalog_module)
        sp, ops = bundle_for(5, 3, 61, 62)
        rows = run_all(sp, ops, checks=["C2", "C10"])
        assert [r.verdict for r in rows] == [PASS_CERTIFIED, PASS_CERTIFIED]
        assert calls == []

    def test_c2_passes_a_deviation_within_tolerance(self):
        # Tsa - Tsa* = delta i I: Frobenius norm 2 delta; |Tsa|_F = 4.
        # delta = 2 FACT_TOL passes 4 <= 1 + 4.
        sp = build_space(np.eye(4))
        Tsa = np.ones((4, 4)) + 1j * FACT_TOL * np.eye(4)
        assert run_all(sp, {"Tsa": Tsa}, checks=["C2"])[0].verdict == PASS_CERTIFIED

    def test_c10_exact_test_decides_when_screen_fails(self, monkeypatch):
        # P = J (ones), Q = J + eps K with K = diag(1, -1, 0, 0):
        # [P, Q] = eps (1 k^T - k 1^T) for k = (1, -1, 0, 0), spectral norm
        # 2 sqrt(2) eps, Frobenius norm 4 eps; |P| = |Q| = 4 up to eps, the
        # column norms 2.  eps = 3.5 FACT_TOL passes 9.9 <= 1 + 16 (exact)
        # but not 14 <= 1 + 4 (screen).
        calls = self._count_svds(monkeypatch, catalog_module)
        sp = build_space(np.eye(4))
        J = np.ones((4, 4))
        K = np.diag([1.0, -1.0, 0.0, 0.0])
        ops = {"P": J, "Q": J + 3.5 * FACT_TOL * K}
        assert run_all(sp, ops, checks=["C10"])[0].verdict == PASS_CERTIFIED
        assert calls == [3]
        # Ten times the deviation fails both tests.
        ops["Q"] = J + 35.0 * FACT_TOL * K
        with pytest.raises(PreconditionFailed):
            run_check(sp, "C10", ops)
        assert calls == [3, 3]


class TestRunAll:
    def test_zero_bundle_all_pass(self):
        sp = build_space(np.eye(2))
        zero = np.zeros((2, 2))
        ops = {k: zero for k in ("T", "S", "X", "Y", "T1", "T2", "S1", "S2", "Tsa", "P", "Q")}
        results = run_all(sp, ops)
        assert [r.check_id for r in results] == [f"C{i}" for i in range(1, 24)]
        for r in results:
            if r.check_id == "C23":
                assert r.verdict == SKIPPED
            else:
                assert r.verdict == PASS_CERTIFIED, (r.check_id, r.slack)

    def test_random_bundle_no_violations(self):
        sp, ops = bundle_for(4, 2, space_seed=1, bundle_seed=1)
        results = run_all(sp, ops, instance="d4_r2_t1")
        assert len(results) == 23
        for r in results:
            assert r.verdict != VIOLATION_CANDIDATE, (r.check_id, r.slack)
            assert r.instance == "d4_r2_t1"

    def test_rerun_is_bit_identical(self):
        sp, ops = bundle_for(3, 3, space_seed=2, bundle_seed=5)
        a = run_all(sp, ops)
        b = run_all(sp, ops)
        assert [(r.check_id, r.slack, r.verdict, r.variant) for r in a] == [
            (r.check_id, r.slack, r.verdict, r.variant) for r in b
        ]

    def test_applicable_subset_by_default(self):
        sp = build_space(np.eye(2))
        results = run_all(sp, {"T": SHIFT})
        assert {r.check_id for r in results} == {"C1", "C3", "C4", "C15", "C16", "C18", "C19", "C22"}

    def test_chain_notes_present(self):
        sp, ops = bundle_for(3, 2, space_seed=4, bundle_seed=7)
        by_id = {r.check_id: r for r in run_all(sp, ops)}
        scale = 1.0 + abs(by_id["C13"].rhs.hi)
        assert by_id["C13"].notes["chain_slack"] >= -1e-7 * scale
        scale21 = 1.0 + abs(by_id["C21"].rhs.hi)
        assert by_id["C21"].notes["coarse_rhs_slack"] >= -1e-7 * scale21

    def test_degenerate_seed_skips_vector_check(self):
        sp = build_space(np.zeros((2, 2)))
        zero = np.zeros((2, 2))
        ops = {k: zero for k in ("T", "S")}
        by_id = {r.check_id: r for r in run_all(sp, ops)}
        assert by_id["C15"].verdict == SKIPPED
        assert by_id["C23"].verdict == SKIPPED
        assert by_id["C1"].verdict == PASS_CERTIFIED


class TestScalingCovariance:
    @pytest.mark.parametrize(
        "alpha,ids",
        [
            # Both sides of these are invariant under any unit phase.
            (np.exp(0.4j * np.pi), ["C1", "C3", "C4", "C5", "C9"]),
            # The re/im part gap mixes under a general phase; it is only
            # preserved by quarter turns, which swap the two parts.
            (1.0j, ["C1", "C3", "C4", "C5", "C9", "C21", "C22"]),
            (-1.0, ["C1", "C3", "C4", "C5", "C9", "C21", "C22"]),
        ],
    )
    def test_unimodular_scaling_leaves_slack(self, alpha, ids):
        sp, ops = bundle_for(4, 3, space_seed=8, bundle_seed=3)
        scaled = dict(ops)
        scaled["T"] = alpha * ops["T"]
        base = {r.check_id: r for r in run_all(sp, ops, checks=ids)}
        turned = {r.check_id: r for r in run_all(sp, scaled, checks=ids)}
        for cid in ids:
            scale = 1.0 + abs(base[cid].rhs.hi)
            assert abs(base[cid].slack - turned[cid].slack) <= 1e-9 * scale, cid


def overlap(a, b) -> bool:
    return a.lo <= b.hi and b.lo <= a.hi


def solved(sp, ops, *keys):
    """The enclosures of requests on the one-item chunk of (sp, ops)."""
    (chunk,) = _chunks([(sp, ops, "x")], checks=())
    _solve([(chunk, keys)], RadiusOptions())
    return tuple(chunk[key][0] for key in keys)


class TestEvaluatorCache:
    def test_unknown_expression_raises_key_error(self):
        with pytest.raises(KeyError):
            catalog_module._parse("TZ")

    def test_full_space_functionals_match_the_space_route(self):
        sp, ops = bundle_for(4, 3, space_seed=6, bundle_seed=4)
        radius, norm = solved(sp, ops, "w(T)", "n(S)")
        assert radius == a_numerical_radius(sp, ops["T"], RadiusOptions())
        assert norm == op_seminorm(sp, ops["S"])

    def test_block_operators_reduce_on_the_doubled_space(self):
        # Blocks of reduced matrices are the reductions of the block
        # operators on the doubled space (C7, C8, C12 and C13 rely on it).
        for dim, rank, seed in [(3, 2, 5), (4, 4, 6), (5, 1, 7), (2, 2, 8)]:
            sp, ops = bundle_for(dim, rank, space_seed=seed, bundle_seed=seed)
            for layout in ("diagonal", "antidiagonal"):
                radius, norm = solved(sp, ops, f"w({layout}(T,S))", f"n({layout}(T,S))")
                B = sp.block2(ops["T"], ops["S"], layout)
                assert overlap(radius, a_numerical_radius(sp.double(), B, RadiusOptions())), (dim, layout)
                assert overlap(norm, op_seminorm(sp.double(), B)), (dim, layout)

    def test_functionals_memoized(self, monkeypatch):
        # The catalog has 23 distinct radius and 1 Crawford expression; a
        # chunk of k same-rank instances builds each once, for all k rows.
        k = 5
        items = [(*bundle_for(4, 2, space_seed=40 + i, bundle_seed=i), f"i{i}") for i in range(k)]
        counts = []
        real_search = catalog_module.radii_and_crawford_numbers

        def search(radius_stacks, crawford_stacks, opts):
            counts.append(([len(S) for S in radius_stacks], [len(S) for S in crawford_stacks]))
            return real_search(radius_stacks, crawford_stacks, opts)

        monkeypatch.setattr(catalog_module, "radii_and_crawford_numbers", search)
        run_many(items, opts=RadiusOptions(grid_count=64))
        assert counts == [([k] * 23, [k])]

    def test_each_check_requests_what_it_reads(self):
        # A check run alone solves only its own requests, so reading an
        # undeclared one fails.
        sp, ops = bundle_for(3, 2, space_seed=12, bundle_seed=3)
        opts = RadiusOptions(grid_count=64)
        together = {r.check_id: r for r in run_all(sp, ops, opts=opts)}
        for cid in CATALOG:
            assert rows_key(run_all(sp, ops, opts=opts, checks=[cid])) == rows_key([together[cid]])


def rows_key(rows):
    return [(r.check_id, r.instance, r.lhs, r.rhs, r.slack, r.verdict, r.variant, r.notes) for r in rows]


class TestRunMany:
    def test_rows_equal_run_all_rows(self):
        items = [
            (*bundle_for(dim, rank, space_seed=20 + k, bundle_seed=k), f"i{k}")
            for k, (dim, rank) in enumerate([(2, 1), (3, 2), (4, 4), (5, 2), (2, 2)])
        ]
        opts = RadiusOptions(grid_count=64)
        together = run_many(items, opts=opts)
        for (sp, ops, name), rows in zip(items, together):
            assert rows_key(rows) == rows_key(run_all(sp, ops, opts=opts, instance=name))

    def test_one_search_and_one_reduction_per_instance(self, monkeypatch):
        items = [
            (*bundle_for(dim, rank, space_seed=30 + k, bundle_seed=k), f"i{k}")
            for k, (dim, rank) in enumerate([(2, 1), (3, 2), (4, 4), (5, 2), (3, 3)])
        ]
        searches, reductions = [], []
        real_search, real_reduce = catalog_module.radii_and_crawford_numbers, SemiHilbertSpace.reduce_all

        def search(radius_stacks, crawford_stacks, opts):
            searches.append(opts)
            return real_search(radius_stacks, crawford_stacks, opts)

        def reduce_all(self, mats):
            reductions.append((id(self), len(mats)))
            return real_reduce(self, mats)

        monkeypatch.setattr(catalog_module, "radii_and_crawford_numbers", search)
        monkeypatch.setattr(SemiHilbertSpace, "reduce_all", reduce_all)
        opts = RadiusOptions(grid_count=64)
        run_many(items, opts=opts)
        assert searches == [opts]
        assert reductions == [(id(sp), len(ops)) for sp, ops, _name in items]

    def test_skips_are_per_row(self):
        # One chunk (rank 1, dim 2) mixes rows that fail membership or a
        # precondition with rows that pass; a rank-0 chunk skips C15 on
        # every row.  Each row is still the one its item gets alone.
        # On the seed A_DEG the members are the lower triangular matrices;
        # a non-finite X fails too and must not reach the solvers.
        lower = {name: T_LOWER + k * SHIFT.T for k, name in enumerate(("T", "S", "Y", "T1", "T2", "S1", "S2"))}
        failing = dict(lower, X=np.where(SHIFT > 0, np.nan, 0.0), Tsa=np.diag([1.0j, 1.0]), P=T_LOWER, Q=SHIFT.T)
        sp, ops = bundle_for(2, 1, space_seed=51, bundle_seed=2)
        items = [
            (sp, ops, "pass"),
            (build_space(A_DEG), {name: failing[name] for name in ops}, "fail"),
            (*bundle_for(2, 1, space_seed=52, bundle_seed=3), "pass2"),
            (*bundle_for(3, 0, space_seed=53, bundle_seed=4), "rank0"),
            (*bundle_for(2, 0, space_seed=54, bundle_seed=5), "rank0b"),
        ]
        assert [ch.k for ch in _chunks(items, None)] == [3, 2]
        opts = RadiusOptions(grid_count=64)
        together = run_many(items, opts=opts)
        for (sp, ops, name), rows in zip(items, together):
            assert rows_key(rows) == rows_key(run_all(sp, ops, opts=opts, instance=name))
        reasons = {r.check_id: r.notes.get("reason", "") for r in together[1]}
        assert "fails the membership tests" in reasons["C12"] and not reasons["C1"]
        assert "commute" in reasons["C10"] and "selfadjoint" in reasons["C2"]
        assert all(r.verdict == SKIPPED for rows in together[3:] for r in rows if r.check_id == "C15")

    def test_checks_subset_and_unknown_ids(self):
        sp, ops = bundle_for(3, 2, space_seed=1, bundle_seed=1)
        (rows,) = run_many([(sp, ops, "a")], checks=["C5", "C1"])
        assert [r.check_id for r in rows] == ["C5", "C1"]
        with pytest.raises(UnknownCheck):
            run_many([(sp, ops, "a")], checks=["C0"])


class TestTightnessReport:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            tightness_report([])

    def test_aggregates(self):
        sp1, ops1 = bundle_for(3, 2, space_seed=10, bundle_seed=1)
        sp2, ops2 = bundle_for(3, 3, space_seed=11, bundle_seed=2)
        rows = run_all(sp1, ops1, instance="a") + run_all(sp2, ops2, instance="b")
        rep = tightness_report(rows)
        assert list(rep) == [f"C{i}" for i in range(1, 24)]
        c1 = rep["C1"]
        assert c1["trials"] == 2 and c1["skipped"] == 0
        assert c1["certified"] + c1["uncertified"] + c1["violations"] == 2
        slack_by_inst = {r.instance: r.slack for r in rows if r.check_id == "C1"}
        assert c1["min_slack"] == min(slack_by_inst.values())
        assert c1["argmin_instance"] == min(slack_by_inst, key=slack_by_inst.get)
        assert c1["median_slack"] == max(slack_by_inst.values())
        assert c1["max_tightness"] == max(r.tightness for r in rows if r.check_id == "C1")
        assert "note_mins" in rep["C13"]

    def test_ties_keep_the_first_row(self):
        # Fabricated rows: the first of equal slacks names the argmin, and
        # -0.0 against 0.0 keeps whichever came first in slack, tightness
        # and notes; the median is taken from a stable sort.
        def row(check_id, instance, slack, tightness=0.0, verdict=PASS_CERTIFIED, notes=None):
            zero = ipoint(0.0)
            return CheckResult(check_id, instance, zero, zero, slack, verdict, tightness, notes=notes or {})

        rows = [
            row("C1", "a", 0.5),
            row("C1", "b", -1.0),
            row("C1", "c", -1.0),
            row("C2", "a", -0.0, tightness=0.0, notes={"gap": -0.0}),
            row("C2", "b", 0.0, tightness=-0.0, notes={"gap": 0.0}),
            row("C3", "a", 0.0, tightness=-0.0, notes={"gap": 0.0}),
            row("C3", "b", -0.0, tightness=0.0, notes={"gap": -0.0}),
            row("C4", "a", 0.0, verdict=SKIPPED, notes={"reason": "skipped"}),
            row("C4", "b", 0.0, verdict=SKIPPED, notes={"reason": "skipped"}),
        ]
        rep = tightness_report(rows)
        assert rep["C1"]["argmin_instance"] == "b" and rep["C1"]["min_slack"] == -1.0
        signs = {
            cid: [math.copysign(1.0, rep[cid][key]) for key in ("min_slack", "median_slack", "max_tightness")]
            + [math.copysign(1.0, rep[cid]["note_mins"]["gap"])]
            for cid in ("C2", "C3")
        }
        assert signs == {"C2": [-1.0, 1.0, 1.0, -1.0], "C3": [1.0, -1.0, -1.0, 1.0]}
        assert rep["C2"]["argmin_instance"] == rep["C3"]["argmin_instance"] == "a"
        assert rep["C4"] == {"trials": 2, "skipped": 2, "certified": 0, "uncertified": 0, "violations": 0}

    def test_catalog_formula_and_operand_consistency(self):
        assert len(CATALOG) == 23
        for cid, entry in CATALOG.items():
            assert entry.check_id == cid
            assert entry.direction in ("le", "ge", "eq", "conditional")
            assert entry.operands
