"""Tests of the benchmark itself: tiny runs of every workload and the
output checks.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

import semiradius  # noqa: E402
from semiradius import Enclosure  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 0) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    lines, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    text = "\n".join(lines)
    rate = "solves_per_s" if workload == "solver" else "instances_per_s"
    for name in (rate, "setup_s", "peak_rss_mb", "width_rel_max", "failed_frac", "blas_threads=1"):
        assert name in text
    if workload == "solver":
        assert "solve_ms_p50" in text and "solve_ms_p90" in text
    else:
        assert "uncertified_rate" in text
    if workload == "acceptance":
        assert "criterion1_projected_s" in text


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_layer_metric(workload):
    lines, result = _run(workload, 1)
    assert result["correct"], "\n".join(lines)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "work counters repeat across two traced runs: True" in lines
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "solver":
        assert metrics["space.membership_calls"] == 0
        assert metrics["space.tilde_calls"] == 0
        assert metrics["sampler.space_ms"] == 0
        assert metrics["functionals.radius_calls"] == 0.5
    else:
        assert metrics["sampler.space_ms"] > 0
        assert metrics["catalog.run_all_ms"] > 0


def test_run_refuses_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "solver", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _no_calibration() -> float:
    return worker.CAL_REF_S


def _solver_run(tmp_path, seed=3):
    workload = worker.SolverWorkload("solver", seed, tmp_path)
    _timing, outputs = worker.run_rounds(workload, _no_calibration, 1, 1, 0.0)
    return worker.check_outputs(workload, outputs, None)


def test_wrong_solver_enclosure_is_counted(tmp_path, monkeypatch):
    assert _solver_run(tmp_path)["failed"] == 0
    real = semiradius.numerical_radius

    def shifted(M, *args, **kwargs):
        enc = real(M, *args, **kwargs)
        return Enclosure(enc.lo + 1e-3, enc.hi + 1e-3, enc.method)

    monkeypatch.setattr(semiradius, "numerical_radius", shifted)
    checked = _solver_run(tmp_path)
    # Every shifted_jordan and flat radius misses its closed form.
    assert checked["failed"] >= 8
    assert any("closed form" in note for note in checked["notes"])


def test_solver_enclosure_must_overlap_the_reference(tmp_path):
    workload = worker.SolverWorkload("solver", worker.REFERENCE_SEED, tmp_path)
    _timing, outputs = worker.run_rounds(workload, _no_calibration, 1, 1, 0.0)
    reference = worker.load_reference("solver", worker.REFERENCE_SEED)
    assert worker.check_outputs(workload, outputs, reference)["failed"] == 0
    moved = dict(reference, round0=[row[:4] + [row[4] + 1.0, row[5] + 1.0] for row in reference["round0"]])
    workload.round0.clear()
    assert worker.check_outputs(workload, outputs, moved)["failed"] == len(moved["round0"])


def test_campaign_violation_and_error_are_counted(tmp_path, monkeypatch):
    workload = worker.CampaignWorkload("acceptance", 5, tmp_path)
    real = semiradius.run_campaign
    calls = []

    def faulty(config):
        calls.append(config)
        if len(calls) == 1:
            raise semiradius.SemiradiusError("injected")
        report = real(config)
        if len(calls) == 2:
            report["totals"]["violations"] += 1
        return report

    monkeypatch.setattr(semiradius, "run_campaign", faulty)
    _timing, outputs = worker.run_rounds(workload, _no_calibration, 1, 1, 0.0)
    checked = worker.check_outputs(workload, outputs, None)
    assert checked["failed"] == workload.rows_per_instance + 1
    assert checked["attempted"] >= len(workload.cells) * workload.rows_per_instance


def test_tracer_reads_zero_for_missing_and_uncalled_targets(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("semiradius.space", "SemiHilbertSpace.gone"),))
    M = semiradius.build_space([[1.0, 0.0], [0.0, 0.0]]).matrix
    with Tracer() as tracer:
        semiradius.numerical_radius(M + 1j)
    assert semiradius.numerical_radius.__name__ == "numerical_radius"
    assert not hasattr(semiradius.numerical_radius, "__wrapped__")
    summary = tracer.summary()
    assert "space.gone" in summary.missing
    per = summary.per_layer(1, 1.0)
    assert per["space.register_calls"] == 0 and per["space.tilde_ms"] == 0
    assert per["functionals.radius_calls"] == 1
    assert per["functionals.radius_us.m2"] > 0
