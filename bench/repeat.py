"""Run one workload over several seeds and summarize each metric.

    python3 bench/repeat.py --workload solver --seeds 1-10 --seconds 30 [--trace 0] [--out FILE]

For every metric it prints the median, the quartiles and the spread, the
distance between the quartiles as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them).  With --out the summary
is also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(results: list[dict]) -> dict:
    out = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        out[name] = {"unit": entry["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a seed or an inclusive range such as 1-10")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:34s} median {s['median']:.6g} {s['unit']:6s} quartiles {s['q1']:.6g}..{s['q3']:.6g}"
              f" spread {s['spread']:.4f}")
    if args.out:
        doc = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
               "all_correct": all(r["correct"] for r in results), "metrics": summary}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
