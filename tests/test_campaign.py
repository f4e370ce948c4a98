"""Campaign runner: config validation, determinism, aggregation, replay."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semiradius import campaign, sampler
from semiradius.campaign import (
    CampaignConfig,
    report_exit_code,
    run_campaign,
    save_extremes,
    verify_instance,
    write_csv,
    write_report,
)
from semiradius.catalog import PASS_UNCERTIFIED, SKIPPED, run_all, tightness_report
from semiradius.errors import BadConfig, ParseError
from semiradius.functionals import a_numerical_radius
from semiradius.instances import read_instance
from semiradius.sampler import SampleConfig, derive_seed, sample_compressed
from semiradius.space import SemiHilbertSpace

SMALL = dict(dims=(2, 3), trials=4, master_seed=7, grid_count=64)
VERDICT_KEYS = {"PASS_CERTIFIED": "certified", "PASS_UNCERTIFIED": "uncertified",
                "VIOLATION_CANDIDATE": "violations", SKIPPED: "skipped"}


def payload(report, *drop):
    keep = {k: v for k, v in report.items() if k not in ("wall_time_s", *drop)}
    return json.dumps(keep, sort_keys=True)


@pytest.fixture(scope="module")
def small_report():
    return run_campaign(CampaignConfig(**SMALL))


@pytest.fixture
def drawn_instances(monkeypatch):
    """The items _run_cell passes to run_tables, which evaluates nothing."""
    items = []

    class Table:
        def _replace(self, **fields):
            return self

    def recorded(chunk, opts, checks):
        items.extend(chunk)
        return [(None, Table())]

    monkeypatch.setattr(campaign, "run_tables", recorded)
    return items


class TestConfig:
    def test_defaults_cover_full_grid(self):
        cfg = CampaignConfig()
        assert cfg.cells() == [
            (d, r) for d in (2, 3, 4, 5, 6) for r in range(1, d + 1)
        ]

    def test_explicit_ranks_filtered_per_dim(self):
        cfg = CampaignConfig(dims=(2, 4), ranks=(2, 3))
        assert cfg.cells() == [(2, 2), (4, 2), (4, 3)]

    def test_dims_sorted_and_deduped(self):
        cfg = CampaignConfig(dims=(4, 2, 2))
        assert cfg.dims == (2, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dims=()),
            dict(dims=(0,)),
            dict(trials=0),
            dict(workers=0),
            dict(checks=("C1", "C99")),
            dict(dims=(2,), ranks=(5,)),
            dict(law="cauchy"),
            dict(lam_min=0.0),
            dict(master_seed=-3),
            dict(scale=-1.0),
            dict(grid_count=3),
            dict(gap_scale=0.0),
            dict(oracle_samples=-1),
            dict(scale=math.nan),
            dict(scale=math.inf),
            dict(lam_max=math.inf),
            dict(gap_scale=math.inf),
            dict(checks=()),
            dict(checks=("C1", "C1")),
            # Non-integral counts fail here, not with a TypeError mid-run.
            dict(trials=1.5),
            dict(workers=2.0),
            dict(grid_count=64.5),
            dict(oracle_samples=100.5),
            dict(master_seed=1.5),
            # Non-integral dims and ranks fail rather than truncate.
            dict(dims=(2.5,)),
            dict(dims=(2, 3.0)),
            dict(ranks=(1.5,)),
            dict(ranks=(-1,)),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(BadConfig):
            CampaignConfig(**{**dict(dims=(2,)), **kwargs})

    def test_numpy_integer_counts_echo_plain_ints(self, tmp_path):
        counts = dict(trials=np.int64(1), workers=np.int32(1), grid_count=np.int64(64), oracle_samples=np.int64(8))
        cfg = CampaignConfig(dims=(np.int64(2),), ranks=(np.int32(1),), master_seed=np.uint8(3), **counts)
        echo = cfg.echo()
        for key in ("trials", "grid_count", "oracle_samples", "master_seed"):
            assert type(echo[key]) is int
        assert all(type(v) is int for v in echo["dims"] + echo["ranks"])
        assert type(cfg.workers) is int
        path = tmp_path / "report.json"
        write_report(run_campaign(cfg), path)
        assert json.loads(path.read_text())["config"]["grid_count"] == 64

    def test_echo_omits_worker_count(self):
        cfg = CampaignConfig(dims=(2,), workers=3)
        assert "workers" not in cfg.echo()


class TestReport:
    def test_shape_and_counting_invariant(self, small_report):
        rep = small_report
        assert rep["schema_version"] == 2
        assert rep["tool"]["name"] == "semiradius"
        assert rep["master_seed"] == 7
        assert list(rep["checks"]) == [f"C{k}" for k in range(1, 24)]
        for summary in rep["checks"].values():
            live = summary["trials"] - summary["skipped"]
            assert (
                summary["certified"] + summary["uncertified"] + summary["violations"]
                == live
            )
            if live:
                assert summary["min_slack"] <= summary["median_slack"]
                assert summary["argmin_instance"]

    def test_main_grid_sample_is_clean(self, small_report):
        totals = small_report["totals"]
        assert totals["violations"] == 0
        assert totals["uncertified"] == 0

    def test_rerun_identical(self, small_report):
        again = run_campaign(CampaignConfig(**SMALL))
        assert payload(again) == payload(small_report)

    def test_worker_count_does_not_change_payload(self, small_report):
        two = run_campaign(CampaignConfig(**SMALL, workers=2))
        assert payload(two) == payload(small_report)

    def test_pool_has_no_more_workers_than_jobs(self, small_report, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records its size and runs the jobs here: starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(campaign, "ProcessPoolExecutor", InProcessPool)
        report = run_campaign(CampaignConfig(**SMALL, workers=5000))
        assert sizes == [len(CampaignConfig(**SMALL).cells())]
        assert payload(report) == payload(small_report)

    def test_campaign_solves_take_no_dual_certificate(self, dual_attempts):
        # Random reduced operands never have a flat radius objective.
        run_campaign(CampaignConfig(dims=(2, 3, 4, 5, 6), trials=2, master_seed=42, grid_count=64))
        assert dual_attempts[0] == 0

    def test_trial_chunks_do_not_change_payload(self, small_report, monkeypatch):
        monkeypatch.setattr(campaign, "_TRIAL_CHUNK", 3)
        assert payload(run_campaign(CampaignConfig(**SMALL))) == payload(small_report)

    def test_high_rank_cells_take_small_chunks(self, monkeypatch):
        # A chunk's r x r matrices stay within _CHUNK_MATRIX_BYTES: at dim
        # 128 a rank-4 cell takes 32 trials a chunk, rank 32 takes 16 and a
        # full-rank cell one.
        sizes = []

        class Table:
            def _replace(self, **fields):
                return self

        def recorded(items, opts, checks):
            sizes.append((items[0][0].rank, len(items)))
            return [(None, Table())]

        monkeypatch.setattr(campaign, "run_tables", recorded)
        cfg = CampaignConfig(dims=(128,), ranks=(4, 32, 128), trials=40)
        for rank in cfg.ranks:
            campaign._run_cell((cfg, 128, rank))
        assert sizes == [(4, 32), (4, 8), (32, 16), (32, 16), (32, 8)] + [(128, 1)] * 40

    def test_matches_recomputation_from_records(self):
        cfg = CampaignConfig(dims=(2,), ranks=(1, 2), trials=3, master_seed=11,
                             grid_count=64)
        rep = run_campaign(cfg)
        rows = []
        for dim, rank in cfg.cells():
            for trial in range(cfg.trials):
                seed = derive_seed(cfg.master_seed, dim, rank, trial)
                sample = SampleConfig(dim=dim, rank=rank, master_seed=seed)
                sp, bundle = sample_compressed(sample)
                rows.extend(
                    run_all(sp, bundle, opts=cfg.options(),
                            instance=f"d{dim}_r{rank}_t{trial}")
                )
        assert tightness_report(rows) == rep["checks"]

    def test_cells_reduce_only_range_blocks(self, monkeypatch):
        # The campaign calls no full-space sampler and draws no Haar
        # rotation: every matrix reduce_all sees is r x r.
        def forbidden(*args):
            raise AssertionError("full-space step in a campaign")

        shapes = set()
        reduce_all = SemiHilbertSpace.reduce_all

        def recorded(self, mats):
            shapes.update(np.shape(M) for M in mats)
            return reduce_all(self, mats)

        for name in ("sample_space", "sample_bundle", "haar_unitary"):
            monkeypatch.setattr(sampler, name, forbidden)
        monkeypatch.setattr(SemiHilbertSpace, "reduce_all", recorded)
        run_campaign(CampaignConfig(dims=(96,), ranks=(0, 3), trials=2, grid_count=64))
        assert shapes == {(0, 0), (3, 3)}

    def test_cells_draw_one_seed_and_one_generator_per_instance(self, monkeypatch, drawn_instances):
        # Each instance derives one seed and starts one generator, whatever
        # its dim and rank, and no full-space step runs.  The catalog, whose
        # C15 starts generators of its own, evaluates nothing here.
        def forbidden(*args):
            raise AssertionError("full-space step in a campaign")

        calls = {"derive_seed": 0, "default_rng": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("haar_unitary", "_in_BA"):
            monkeypatch.setattr(sampler, name, forbidden)
        monkeypatch.setattr(campaign, "derive_seed", counted("derive_seed", campaign.derive_seed))
        monkeypatch.setattr(sampler, "derive_seed", counted("derive_seed", sampler.derive_seed))
        monkeypatch.setattr(np.random, "default_rng", counted("default_rng", np.random.default_rng))
        cfg = CampaignConfig(dims=(3, 96), ranks=(0, 2, 3), trials=5)
        for dim, rank in cfg.cells():
            campaign._run_cell((cfg, dim, rank))
        assert len(drawn_instances) == len(cfg.cells()) * cfg.trials == 30
        assert calls == {"derive_seed": 30, "default_rng": 30}

    def test_appending_trials_keeps_earlier_instances(self, drawn_instances):
        # A cell of 40 trials runs two chunks; its first 3 instances are
        # those of a 3-trial cell, byte for byte.
        for trials in (3, 40):
            campaign._run_cell((CampaignConfig(dims=(5,), trials=trials, master_seed=4), 5, 3))
        drawn = [(sp.matrix.tobytes(), [M.tobytes() for M in ops.values()], iid) for sp, ops, iid in drawn_instances]
        few, many = drawn[:3], drawn[3:]
        assert len(many) == 40 and [iid for *_, iid in few] == ["d5_r3_t0", "d5_r3_t1", "d5_r3_t2"]
        assert many[:3] == few

    def test_checks_subset_respected(self):
        cfg = CampaignConfig(dims=(2,), trials=2, checks=("C1", "C5"), grid_count=64)
        rep = run_campaign(cfg)
        assert list(rep["checks"]) == ["C1", "C5"]

    def test_identity_seed_zero_operators_all_pass_or_skip(self):
        # Equal spectrum at full rank is the identity seed exactly; zero
        # entry scale makes every sampled operand the zero matrix.
        cfg = CampaignConfig(dims=(2,), ranks=(2,), trials=1, law="equal",
                             lam_max=1.0, scale=0.0, grid_count=64)
        rep = run_campaign(cfg)
        for summary in rep["checks"].values():
            assert summary["violations"] == 0
            assert summary["uncertified"] == 0

    def test_wide_sound_enclosures_are_uncertified_not_violations(self):
        # A loose gap and a four-angle grid stop the search early: on
        # d4_r2_t0, C1's radius enclosure holds the true radius but reaches
        # past the norm, which leaves "radius <= norm" undecided.
        cfg = CampaignConfig(dims=(4,), trials=3, gap_scale=1.0, grid_count=4)
        rep = run_campaign(cfg)
        assert rep["totals"]["violations"] == 0 and rep["totals"]["uncertified"] > 0
        assert report_exit_code(rep) == 2
        sp, bundle = campaign._instance(cfg, 4, 2, 0)
        (row,) = run_all(sp, bundle, opts=cfg.options(), instance="d4_r2_t0", checks=["C1"])
        radius = a_numerical_radius(sp, bundle["T"])
        assert row.variant == "upper" and row.lhs.lo <= radius.lo <= radius.hi <= row.lhs.hi
        assert row.lhs.hi > row.rhs.hi and row.verdict == PASS_UNCERTIFIED

    def test_exit_code_mapping(self, small_report):
        assert report_exit_code(small_report) == 0
        bent = {"totals": {**small_report["totals"], "uncertified": 1}}
        assert report_exit_code(bent) == 2
        bent["totals"]["violations"] = 2
        assert report_exit_code(bent) == 3


class TestArtifacts:
    def test_write_report_round_trips(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        write_report(small_report, path)
        assert json.loads(path.read_text()) == small_report

    def test_csv_rows_cover_all_checks(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        write_csv(small_report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("check,trials,skipped")
        assert len(lines) == 1 + len(small_report["checks"])

    def test_extremes_replay_to_recorded_slacks(self, small_report, tmp_path):
        cfg = CampaignConfig(**SMALL)
        paths = save_extremes(cfg, small_report, tmp_path / "ext")
        assert paths, "campaign produced no argmin instances"
        by_stem = {p.stem: p for p in paths}
        for cid, summary in small_report["checks"].items():
            iid = summary.get("argmin_instance")
            if not iid:
                continue
            rows = verify_instance(by_stem[iid], opts=cfg.options())
            slack = {r.check_id: r.slack for r in rows}[cid]
            assert abs(slack - summary["min_slack"]) <= 1e-12

    def test_replayed_rows_keep_verdicts(self, small_report, tmp_path):
        cfg = CampaignConfig(**SMALL)
        paths = save_extremes(cfg, small_report, tmp_path / "ext")
        rows = verify_instance(paths[0], opts=cfg.options())
        assert {r.verdict for r in rows} <= {"PASS_CERTIFIED", "PASS_UNCERTIFIED", SKIPPED}

    def test_extremes_replay_to_the_campaign_slacks_at_rank_2_and_up(self, tmp_path):
        # Saved files hold the compressed instances the campaign evaluated,
        # so every argmin row replays bit for bit, C15's included, whose
        # unit vectors are seeded from the instance's bytes.
        cfg = CampaignConfig(dims=(3, 40), ranks=(2, 3), trials=4, master_seed=3, grid_count=64)
        report = run_campaign(cfg)
        by_stem = {p.stem: p for p in save_extremes(cfg, report, tmp_path)}
        assert report["checks"]["C15"]["argmin_instance"] in by_stem
        for cid, summary in report["checks"].items():
            iid = summary.get("argmin_instance")
            if not iid:
                continue
            space, _operands = read_instance(by_stem[iid])
            assert space.dim == space.rank == int(campaign._INSTANCE_ID.match(iid).group(2))
            (row,) = [r for r in verify_instance(by_stem[iid], opts=cfg.options()) if r.check_id == cid]
            assert row.slack == summary["min_slack"], cid

    def test_rank_0_extremes_are_saved_at_full_size(self, tmp_path):
        cfg = CampaignConfig(dims=(3,), ranks=(0,), trials=2, grid_count=64)
        report = run_campaign(cfg)
        (path,) = save_extremes(cfg, report, tmp_path)
        space, operands = read_instance(path)
        assert space.dim == 3 and space.rank == 0
        for r in verify_instance(path, opts=cfg.options()):
            summary = report["checks"][r.check_id]
            assert summary[VERDICT_KEYS[r.verdict]] >= 1
            if summary.get("argmin_instance") == path.stem:
                assert r.slack == summary["min_slack"], r.check_id

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_one_trial_dim_96_extremes_replay_with_the_report_verdicts(self, rank, tmp_path):
        # As the benchmark's replay: every check of a one-trial campaign
        # names its instance, whose r x r file must replay through
        # verify_instance with the verdicts the report counted.
        for master_seed in range(3):
            cfg = CampaignConfig(dims=(96,), ranks=(rank,), trials=1, master_seed=master_seed, grid_count=64)
            report = run_campaign(cfg)
            (path,) = save_extremes(cfg, report, tmp_path / str(master_seed))
            rows = verify_instance(path, opts=cfg.options())
            assert [r.check_id for r in rows] == list(report["checks"])
            for r in rows:
                assert report["checks"][r.check_id][VERDICT_KEYS[r.verdict]] == 1, (master_seed, r.check_id)

    def test_malformed_instance_id_rejected(self, small_report, tmp_path):
        broken = json.loads(json.dumps(small_report))
        broken["checks"]["C1"]["argmin_instance"] = "oops"
        with pytest.raises(ParseError):
            save_extremes(CampaignConfig(**SMALL), broken, tmp_path)


REPORT_BY_THREADS = """
import hashlib, json
from semiradius.campaign import CampaignConfig, run_campaign
report = run_campaign(CampaignConfig(dims=(97, 128, 160), ranks=(2, 4, 40), trials=3, master_seed=5))
report.pop("wall_time_s")
print(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
"""


def test_report_does_not_depend_on_blas_threads():
    # Above dim 96 OpenBLAS splits n x n products by its thread count,
    # which rounds them differently; campaigns multiply no n x n matrix.
    src = Path(campaign.__file__).resolve().parents[1]
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", REPORT_BY_THREADS], capture_output=True, text=True, env=env, check=True)
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
