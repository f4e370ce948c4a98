"""CLI surface: flag parsing, exit codes, end-to-end artifacts."""

import json

import pytest

from semiradius import cli
from semiradius.campaign import CampaignConfig
from semiradius.catalog import PASS_CERTIFIED, PASS_UNCERTIFIED, VIOLATION_CANDIDATE, CheckResult
from semiradius.cli import (
    WORKERS_ENV,
    _default_workers,
    _parse_checks,
    _parse_ints,
    _parse_ranks,
    main,
)
from semiradius.errors import BadConfig
from semiradius.functionals import RadiusOptions, ipoint


def verdict_row(check_id, verdict, slack):
    return CheckResult(check_id, "fake", ipoint(0.0), ipoint(0.0), slack, verdict, 0.0)


class TestParsers:
    def test_ints_and_ranks(self):
        assert _parse_ints("2,3, 5") == (2, 3, 5)
        assert _parse_ranks("all") is None
        assert _parse_ranks("1,4") == (1, 4)
        with pytest.raises(BadConfig):
            _parse_ints("2,x")

    def test_check_range_expansion(self):
        assert _parse_checks("C1..C4") == ("C1", "C2", "C3", "C4")
        assert _parse_checks("C5,C1..C2,C5") == ("C5", "C1", "C2")
        assert _parse_checks("all") is None

    @pytest.mark.parametrize("bad", ["C9..C2", "C1..", "Cx..C3", "C77", ",,"])
    def test_check_parse_rejections(self, bad):
        with pytest.raises(BadConfig):
            _parse_checks(bad)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert _default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert _default_workers() == 3
        monkeypatch.setenv(WORKERS_ENV, "junk")
        assert _default_workers() == 1


class TestCommands:
    def test_campaign_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        csv_path = tmp_path / "rep.csv"
        ext = tmp_path / "ext"
        code = main([
            "campaign", "--dims", "2", "--ranks", "1,2", "--trials", "2",
            "--seed", "5", "--grid", "64", "--out", str(out),
            "--csv", str(csv_path), "--save-extremes", str(ext),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["totals"]["violations"] == 0
        assert csv_path.read_text().startswith("check,")
        assert list(ext.glob("d*_r*_t*.json"))
        assert "certified" in capsys.readouterr().out

    def test_campaign_reports_identical_across_workers(self, tmp_path):
        outs = []
        for workers, name in ((1, "a.json"), (2, "b.json")):
            path = tmp_path / name
            code = main([
                "campaign", "--dims", "2,3", "--trials", "2", "--seed", "9",
                "--grid", "64", "--workers", str(workers), "--out", str(path),
            ])
            assert code == 0
            doc = json.loads(path.read_text())
            del doc["wall_time_s"]
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_verify_prints_slack_lines(self, tmp_path, capsys):
        ext = tmp_path / "ext"
        main([
            "campaign", "--dims", "2", "--ranks", "2", "--trials", "1",
            "--grid", "64", "--save-extremes", str(ext),
        ])
        capsys.readouterr()
        target = next(ext.glob("*.json"))
        code = main(["verify", str(target), "--grid", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "C1" in out and "slack=" in out

    def test_campaign_flags_left_out_take_config_defaults(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["campaign", "--dims", "2", "--trials", "1", "--grid", "64", "--out", str(out)]) == 0
        echo = json.loads(out.read_text())["config"]
        assert echo == CampaignConfig(dims=(2,), trials=1, grid_count=64).echo()

    def test_verify_without_solver_flags_uses_default_options(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "verify_instance", lambda path, opts: seen.append(opts) or [])
        assert main(["verify", "fake.json"]) == 0
        assert main(["verify", "fake.json", "--gap", "1e-6"]) == 0
        assert seen == [RadiusOptions(), RadiusOptions(gap_scale=1e-6)]

    def test_verify_exit_codes_follow_verdicts(self, monkeypatch, capsys):
        uncertified = [verdict_row("C1", PASS_CERTIFIED, 0.0), verdict_row("C2", PASS_UNCERTIFIED, -1e-9)]
        violation = uncertified + [verdict_row("C3", VIOLATION_CANDIDATE, -1.0)]
        for rows, code in ((uncertified, 2), (violation, 3)):
            monkeypatch.setattr(cli, "verify_instance", lambda path, opts, rows=rows: rows)
            assert main(["verify", "fake.json"]) == code
            assert capsys.readouterr().out.count("slack=") == len(rows)

    def test_info_lists_tolerances(self, capsys):
        assert main(["info"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"] == [f"C{i}" for i in range(1, 24)]
        assert doc["tolerances"]["violation_tol"] == 1e-7

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--trials", "not-a-number"])
        assert exc.value.code == 1

    def test_config_error_exits_one(self, capsys):
        assert main(["campaign", "--dims", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_instance_exits_one(self, capsys):
        assert main(["verify", "/no/such/file.json"]) == 1
        assert "error:" in capsys.readouterr().err
