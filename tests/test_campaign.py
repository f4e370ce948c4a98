"""Campaign runner: config validation, determinism, aggregation, replay."""

import json
import math

import numpy as np
import pytest

from semiradius import campaign
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
from semiradius.sampler import SampleConfig, derive_seed, sample_bundle, sample_space

SMALL = dict(dims=(2, 3), trials=4, master_seed=7, grid_count=64)


def payload(report, *drop):
    keep = {k: v for k, v in report.items() if k not in ("wall_time_s", *drop)}
    return json.dumps(keep, sort_keys=True)


@pytest.fixture(scope="module")
def small_report():
    return run_campaign(CampaignConfig(**SMALL))


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
        assert rep["schema_version"] == 1
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

    def test_matches_recomputation_from_records(self):
        cfg = CampaignConfig(dims=(2,), ranks=(1, 2), trials=3, master_seed=11,
                             grid_count=64)
        rep = run_campaign(cfg)
        rows = []
        for dim, rank in cfg.cells():
            for trial in range(cfg.trials):
                seed = derive_seed(cfg.master_seed, dim, rank, trial)
                sp = sample_space(SampleConfig(dim=dim, rank=rank, master_seed=seed))
                bundle = sample_bundle(sp, seed=derive_seed(seed, 1))
                rows.extend(
                    run_all(sp, bundle, opts=cfg.options(),
                            instance=f"d{dim}_r{rank}_t{trial}")
                )
        assert tightness_report(rows) == rep["checks"]

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
        seed = derive_seed(cfg.master_seed, 4, 2, 0)
        sp = sample_space(SampleConfig(dim=4, rank=2, master_seed=seed))
        bundle = sample_bundle(sp, seed=derive_seed(seed, 1))
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

    def test_malformed_instance_id_rejected(self, small_report, tmp_path):
        broken = json.loads(json.dumps(small_report))
        broken["checks"]["C1"]["argmin_instance"] = "oops"
        with pytest.raises(ParseError):
            save_extremes(CampaignConfig(**SMALL), broken, tmp_path)
