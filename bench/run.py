"""Benchmark entry point: one workload and seed, measured in fresh processes.

Run from the repository root:

    python3 bench/run.py --workload acceptance --seed 1 --seconds 20 --trace 0

Each process below is ``bench/worker.py`` in a new interpreter with BLAS
pinned to one thread (OpenBLAS, OpenMP and MKL variables set to 1 before
numpy loads); one process runs at a time.

--trace 0  six set-up-only processes, then one measured process that runs
           rounds of operations for --seconds.  Prints the end-to-end
           metrics; ``setup_s`` is the median of the seven set-up times.
--trace 1  a fixed number of rounds, once untraced and twice traced.  Prints
           the per-layer metrics of the first traced run and the tracing
           overhead; the work counters of the two traced runs must agree.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Spans
and a full result record are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("acceptance", "ambient", "solver")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_ONLY_RUNS = 6
# Whole-run budget; every process is killed when it is spent.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "width_gap_max": "ratio",
}


class WorkerFailed(Exception):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if ".radius_us." in name or ".crawford_us." in name:
        return "us"
    if name.endswith(("_frac", "_rate", "_per_reduction")):
        return "ratio"
    return "count"


def _spawn(args, mode: str, trace: int, deadline: float, spans: str = "") -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--trace", str(trace),
        "--out", str(OUT_DIR),
    ]
    if spans:
        cmd += ["--spans", str(OUT_DIR / spans)]
    env = dict(os.environ, **PIN)
    t0 = time.time()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{mode} process exceeded the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} process exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _measure(args, deadline: float) -> tuple[dict, list[dict], dict]:
    setups = [_spawn(args, "setup", 0, deadline) for _ in range(SETUP_ONLY_RUNS)]
    m = _spawn(args, "measure", 0, deadline)
    metrics = {name: m[name] for name in END_TO_END_UNITS if name != "setup_s"}
    metrics["setup_s"] = statistics.median([s["setup_s"] for s in setups] + [m["setup_s"]])
    return metrics, setups + [m], {"counters_repeat": True}


def _trace(args, deadline: float) -> tuple[dict, list[dict], dict]:
    base = _spawn(args, "fixed", 0, deadline)
    stem = f"{args.workload}-seed{args.seed}"
    first = _spawn(args, "fixed", 1, deadline, f"{stem}-traced1.spans.jsonl.gz")
    second = _spawn(args, "fixed", 1, deadline, f"{stem}-traced2.spans.jsonl.gz")
    metrics = dict(first["per_layer"])
    metrics["catalog.uncertified_rate"] = first.get("uncertified_rate", 0.0)
    metrics["trace.overhead_frac"] = first["scaled_busy_s"] / base["scaled_busy_s"] - 1.0
    differ = sorted(
        k for k in set(first["counters"]) | set(second["counters"])
        if first["counters"].get(k) != second["counters"].get(k)
    )
    info = {"counters_repeat": not differ, "counters_differ": differ, "missing_targets": first["missing_targets"]}
    return metrics, [base, first, second], info


def _report_lines(args, runs: list[dict], metrics: dict, info: dict) -> list[str]:
    env = runs[-1]["env"]
    main = runs[-1]
    lines = [
        "env python={python} numpy={numpy} openblas=\"{openblas}\" nproc={nproc} blas_threads={blas_threads}".format(**env)
        + " " + " ".join(f"{k}={v}" for k, v in env["pin"].items()),
        f"{args.workload} seed={args.seed} trace={args.trace}: {main['ops']} {main['unit']} in {main['rounds']} rounds,"
        f" {main['wall_s']:.2f} s measured, {main['attempted']} outputs checked",
    ]
    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    if args.trace == 0:
        campaign = main["unit"] == "instances"
        rate_name = "instances_per_s" if campaign else "solves_per_s"
        lat_name = "instance_ms" if campaign else "solve_ms"
        raw = main["unscaled"]
        lines.append(
            f"{rate_name} {metrics['ops_per_s']:.4f} 1/s at reference speed ({raw['ops_per_s']:.4f} 1/s as timed;"
            f" speed factor {main['scaled_busy_s'] / main['busy_s']:.3f})"
        )
        for q in ("p50", "p90"):
            lines.append(
                f"{lat_name}_{q} {metrics['op_ms_' + q]:.4f} ms at reference speed ({raw['op_ms_' + q]:.4f} ms as timed;"
                f" n={main['ops']}, {main['beyond_p90']} beyond p90)"
            )
        unscaled = statistics.median(r["setup_s_unscaled"] for r in runs)
        lines.append(
            f"setup_s {metrics['setup_s']:.4f} s at reference speed ({unscaled:.4f} s as timed;"
            f" median of {len(runs)} processes)"
        )
        lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
        lines.append(f"width_gap_max {metrics['width_gap_max']:.6f} ratio (largest width / target gap)")
        lines.append(f"width_rel_max {main['width_rel_max']:.4e} ratio (largest width / (1 + |hi|))")
        if campaign:
            lines.append(f"uncertified_rate {main['uncertified_rate']:.6f} ratio ({main['live_rows']} live rows)")
        if args.workload == "acceptance":
            lines.append(
                f"criterion1_projected_s {20000.0 / metrics['ops_per_s']:.1f} s at reference speed"
                f" ({20000.0 / raw['ops_per_s']:.1f} s as timed; 20000 / instances_per_s)"
            )
    else:
        wall = metrics["trace.wall_ms"]
        for layer in ("sampler", "kernel", "space", "functionals", "catalog", "campaign"):
            share = metrics[f"{layer}.self_ms"] / wall if wall else 0.0
            lines.append(f"self share {layer} {share:.3f} of traced wall")
        lines.append(f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f} ratio")
        lines.append(f"work counters repeat across two traced runs: {info['counters_repeat']}")
        for key in info["counters_differ"][:20]:
            lines.append(f"counter differs: {key}")
        if info["missing_targets"]:
            lines.append(f"not traced (no longer defined): {', '.join(info['missing_targets'])}")
    lines.append(f"failed_frac {failed / max(attempted, 1):.6f} ratio ({failed} of {attempted})")
    for run in runs:
        lines.extend(f"failure: {note}" for note in run.get("notes", [])[:20])
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "semiradius" / "__init__.py").is_file():
        print(f"no semiradius package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        metrics, runs, info = (_trace if args.trace else _measure)(args, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    for line in _report_lines(args, runs, metrics, info):
        print(line)
    units = END_TO_END_UNITS if args.trace == 0 else {name: per_layer_unit(name) for name in metrics}
    result = {
        "correct": failed == 0 and info["counters_repeat"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  env=runs[-1]["env"], info=info, runs=runs)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
