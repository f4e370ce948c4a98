"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` starts this script in a fresh interpreter for every set-up
sample and every measured run, with BLAS pinned to one thread:

    python3 bench/worker.py --workload acceptance --seed 1 --seconds 20 \\
        --mode measure --t0 <spawn time> --out .bench_out

Modes:
  setup    import, generate the first inputs and warm up, then stop;
  measure  then run rounds of operations until --seconds have passed;
  fixed    then run a fixed number of rounds (scaled by --seconds), with
           spans recorded when --trace 1; used for the per-layer run.

An operation is one campaign instance (``acceptance``, ``ambient``) or
one functional call (``solver``).  Every output is checked; failures are
counted, never raised.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, NamedTuple

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Seed whose outputs are recorded in reference.json by record.py.
REFERENCE_SEED = 0
# Rounds every run completes, however short --seconds is; the reference
# outputs cover exactly these rounds.
MIN_ROUNDS = 2
# Rounds of the fixed (per-layer) run per second of --seconds, sized so
# that the untraced pass takes about a quarter of --seconds.
FIXED_ROUNDS_PER_S = {"acceptance": 0.5, "ambient": 0.33, "solver": 0.15}
# Duration of one calibration pass at the reference machine speed.
CAL_REF_S = 2.5e-3
# Unit vectors drawn per matrix for the Monte Carlo checks on ginibre calls.
MC_SAMPLES = 256

CAMPAIGNS = {
    "acceptance": {"dims": (2, 3, 4, 5, 6), "ranks": None},
    "ambient": {"dims": (96,), "ranks": (1, 2, 3, 4)},
}
# Operands whose pairwise products are also checked on replayed instances.
WIDTH_FACTORS = ("T", "S", "X", "Y")
# The criterion-1 settings shared by both campaign workloads.
CAMPAIGN_SETTINGS = {"grid_count": 64, "gap_scale": 1e-9, "oracle_samples": 4096, "workers": 1}

_VERDICT_KEYS = {
    "PASS_CERTIFIED": "certified",
    "PASS_UNCERTIFIED": "uncertified",
    "SKIPPED": "skipped",
    "VIOLATION_CANDIDATE": "violations",
}

SOLVER_FAMILIES = {
    "ginibre": (4, 8, 16, 32),
    "shifted_jordan": (2, 4, 8, 12, 16),
    "flat": (4, 6, 8),
}


def blas_threads(np) -> tuple[int | None, str]:
    """OpenBLAS thread count and configuration string of numpy's BLAS."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return int(get_threads()), get_config().decode().strip()
    return None, "unknown"


def environment(np) -> dict:
    threads, config = blas_threads(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "pin": {var: os.environ.get(var) for var in PIN_VARS},
    }


def _quantile(values: list[float], k: int) -> float:
    """The k-th decile cut point, as ``statistics.quantiles(n=10)`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[k - 1]


class Widths:
    """Largest enclosure widths, relative to 1 + |hi| and to the target gap.

    The solvers stop once an enclosure is narrower than the target gap
    ``gap_scale * (1 + |M|)``, so ``gap_max`` stays at or below 1 unless
    a solver gives up early or widens its certificate.
    """

    def __init__(self):
        self.rel_max = 0.0
        self.gap_max = 0.0

    def add(self, enc, norm: float, gap_scale: float) -> None:
        self.rel_max = max(self.rel_max, enc.width / (1.0 + abs(enc.hi)))
        self.gap_max = max(self.gap_max, enc.width / (gap_scale * (1.0 + norm)))


# -- workloads -------------------------------------------------------------


class CampaignWorkload:
    """Per-cell ``run_campaign`` calls with one trial: one call per instance.

    A round is one pass over the (dim, rank) grid; its master seed comes
    from the benchmark seed and the round number.
    """

    unit = "instances"

    def __init__(self, name: str, seed: int, out_dir: Path):
        import semiradius

        self.sr = semiradius
        self.seed = seed
        self.out_dir = out_dir
        grid = semiradius.CampaignConfig(trials=1, **CAMPAIGNS[name], **CAMPAIGN_SETTINGS)
        self.cells = grid.cells()
        self.rows_per_instance = len(semiradius.CATALOG)
        self.reference_verdicts: dict[str, list[int]] = {}
        self.widths = Widths()
        self.live = 0
        self.uncertified = 0

    def round_inputs(self, r: int) -> list:
        master = self.seed * 1_000_003 + r
        return [
            self.sr.CampaignConfig(dims=(d,), ranks=(k,), trials=1, master_seed=master, **CAMPAIGN_SETTINGS)
            for d, k in self.cells
        ]

    def warm_up(self) -> None:
        for d, k in (self.cells[0], self.cells[-1]):
            self.sr.run_campaign(
                self.sr.CampaignConfig(dims=(d,), ranks=(k,), trials=1, master_seed=2**40 + self.seed, **CAMPAIGN_SETTINGS)
            )

    def execute(self, config):
        return self.sr.run_campaign(config)

    def keep(self, r: int, report: dict) -> dict:
        """What ``check`` needs of a report, so that memory does not grow
        with the number of instances run: the totals only, after the
        rounds compared with the reference."""
        return report if r < MIN_ROUNDS else {"totals": report["totals"]}

    def check(self, r: int, config, report, error: str | None) -> tuple[int, int, list[str]]:
        """(rows attempted, rows failed, failure notes) of one instance."""
        if error is not None:
            return self.rows_per_instance, self.rows_per_instance, [f"{config.dims}/{config.ranks}: {error}"]
        totals = report["totals"]
        self.live += totals["trials"] - totals["skipped"]
        self.uncertified += totals["uncertified"]
        if r < MIN_ROUNDS:
            for cid, s in report["checks"].items():
                acc = self.reference_verdicts.setdefault(cid, [0, 0, 0, 0])
                for j, key in enumerate(("certified", "uncertified", "skipped", "violations")):
                    acc[j] += s[key]
        attempted, failed = totals["trials"], totals["violations"]
        notes = []
        if failed:
            notes.append(f"round {r} cell {config.dims}/{config.ranks}: {failed} violation candidates")
        if r == 0:
            a, f = self._replay(config, report)
            attempted += a
            failed += f
            if f:
                notes.append(f"round 0 cell {config.dims}/{config.ranks}: {f} replayed outputs disagree")
        return attempted, failed, notes

    def _replay(self, config, report) -> tuple[int, int]:
        """(outputs checked, outputs failed) of a replay of the instance.

        Every check of a one-trial campaign names the instance as its
        argmin, so ``save_extremes`` writes exactly that instance.  The
        replayed verdicts must equal the report's.  On every operand, and
        on every product of two of T, S, X and Y, the seminorm, radius and
        Crawford enclosures must satisfy norm/2 <= radius <= norm and
        crawford <= radius; their widths go into ``self.widths``.
        """
        directory = self.out_dir / f"instances-{os.getpid()}"
        (path,) = self.sr.save_extremes(config, report, directory)
        opts = config.options()
        results = self.sr.verify_instance(path, opts=opts)
        space, operands = self.sr.read_instance(path)
        path.unlink()
        directory.rmdir()
        failed = sum(report["checks"].get(res.check_id, {}).get(_VERDICT_KEYS[res.verdict]) != 1 for res in results)
        matrices = list(operands.values())
        matrices += [operands[a] @ operands[b] for a in WIDTH_FACTORS for b in WIDTH_FACTORS]
        for M in matrices:
            norm = self.sr.op_seminorm(space, M)
            radius = self.sr.a_numerical_radius(space, M, opts)
            crawford = self.sr.crawford(space, M, opts)
            failed += not (0.5 * norm.lo <= radius.hi and radius.lo <= norm.hi and crawford.lo <= radius.hi)
            for enc in (radius, crawford):
                self.widths.add(enc, norm.hi, opts.gap_scale)
        return len(results) + len(matrices), failed

    def finish(self, reference: dict | None) -> tuple[int, list[str]]:
        """Rows failed by the comparison with the recorded outputs."""
        if reference is None:
            return 0, []
        recorded, got = reference.get("verdicts", {}), self.reference_verdicts
        bad = sorted(cid for cid in set(recorded) | set(got) if recorded.get(cid) != got.get(cid))
        if not bad:
            return 0, []
        rows = MIN_ROUNDS * len(self.cells) * len(bad)
        return rows, [f"verdict counts differ from reference.json for {', '.join(bad)}"]

    def reference(self) -> dict:
        return {"rounds": MIN_ROUNDS, "verdicts": self.reference_verdicts}

    def extra(self) -> dict:
        return {"uncertified_rate": self.uncertified / self.live if self.live else 0.0, "live_rows": self.live}


class SolverCall(NamedTuple):
    family: str
    n: int
    fn: str  # "radius" or "crawford"
    matrix: Any
    exact: float | None  # closed-form value, when the family has one
    index: int  # position in the round before shuffling


class SolverWorkload:
    """Direct ``numerical_radius`` / ``crawford_number`` calls.

    Each round draws one matrix per (family, size) and calls both
    functionals on it, in a fixed shuffled order: 24 calls, 6 of them on
    the flat family.  Every matrix is unitarily conjugated so that no
    structural shortcut (diagonal, zero diagonal, Hermitian) applies.
    """

    unit = "calls"

    def __init__(self, name: str, seed: int, out_dir: Path):
        import numpy as np

        import semiradius

        self.np = np
        self.sr = semiradius
        self.seed = seed
        self.gap_scale = semiradius.RadiusOptions().gap_scale
        self.widths = Widths()
        self.round0: list[list[float]] = []

    def _unitary(self, rng, n: int):
        np = self.np
        Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R)
        return Q * (d / np.abs(d))

    def _matrix(self, rng, family: str, n: int):
        np = self.np
        if family == "ginibre":
            M = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
            return M, None
        J = np.diag(np.ones(n - 1), 1).astype(np.complex128)
        r = math.cos(math.pi / (n + 1))
        c = float(rng.uniform(0.25, 2.0)) if family == "shifted_jordan" else 0.0
        U = self._unitary(rng, n)
        # The numerical range of J_n + cI is the disk of radius r about c.
        return U @ (J + c * np.eye(n)) @ U.conj().T, {"radius": c + r, "crawford": max(c - r, 0.0)}

    def round_inputs(self, r: int) -> list[SolverCall]:
        rng = self.np.random.default_rng([self.seed, r])
        calls = []
        for family, sizes in SOLVER_FAMILIES.items():
            for n in sizes:
                M, exact = self._matrix(rng, family, n)
                for fn in ("radius", "crawford"):
                    calls.append(SolverCall(family, n, fn, M, exact[fn] if exact else None, len(calls)))
        # One shuffled order for every round and seed, so that the sequence
        # of allocations, and with it the peak RSS, repeats from run to run.
        order = self.np.random.default_rng(0).permutation(len(calls))
        return [calls[i] for i in order]

    def warm_up(self) -> None:
        rng = self.np.random.default_rng([self.seed, 2**20])
        for n in (4, 8):
            M, _ = self._matrix(rng, "shifted_jordan", n)
            self.sr.numerical_radius(M)
            self.sr.crawford_number(M)

    def execute(self, call: SolverCall):
        fn = self.sr.numerical_radius if call.fn == "radius" else self.sr.crawford_number
        return fn(call.matrix)

    def keep(self, r: int, enc):
        return enc

    def check(self, r: int, call: SolverCall, enc, error: str | None) -> tuple[int, int, list[str]]:
        where = f"round {r} {call.family} n={call.n} {call.fn}"
        if error is not None:
            return 1, 1, [f"{where}: {error}"]
        np = self.np
        lo, hi = enc.lo, enc.hi
        norm = float(np.linalg.svd(call.matrix, compute_uv=False)[0])
        self.widths.add(enc, norm, self.gap_scale)
        if r == 0:
            self.round0.append([call.family, call.n, call.fn, call.index, lo, hi])
        problems = []
        if call.exact is not None and not lo <= call.exact <= hi:
            problems.append(f"closed form {call.exact!r} outside [{lo!r}, {hi!r}]")
        if call.family == "ginibre":
            M = call.matrix
            rng = np.random.default_rng([self.seed, r, call.index, 1])
            Y = rng.standard_normal((MC_SAMPLES, call.n)) + 1j * rng.standard_normal((MC_SAMPLES, call.n))
            Y /= np.linalg.norm(Y, axis=1)[:, None]
            forms = np.abs(np.sum(Y.conj() * (Y @ M.T), axis=1))
            if call.fn == "radius":
                if not (0.5 * norm <= hi and lo <= norm):
                    problems.append(f"[{lo!r}, {hi!r}] violates norm/2 <= radius <= norm, norm {norm!r}")
                if hi < float(forms.max()):
                    problems.append(f"hi {hi!r} below the Monte Carlo lower bound {float(forms.max())!r}")
            elif lo > float(forms.min()):
                problems.append(f"lo {lo!r} above the Monte Carlo upper bound {float(forms.min())!r}")
        return 1, int(bool(problems)), [f"{where}: {p}" for p in problems]

    def finish(self, reference: dict | None) -> tuple[int, list[str]]:
        if reference is None:
            return 0, []
        recorded = {(f, n, fn, idx): (lo, hi) for f, n, fn, idx, lo, hi in reference.get("round0", [])}
        got = {(f, n, fn, idx): (lo, hi) for f, n, fn, idx, lo, hi in self.round0}
        if set(recorded) != set(got):
            return len(got) or 1, ["round 0 calls differ from reference.json"]
        bad = [key for key, (lo, hi) in got.items() if hi < recorded[key][0] or lo > recorded[key][1]]
        return len(bad), [f"enclosure of {key} does not overlap reference.json" for key in bad]

    def reference(self) -> dict:
        return {"rounds": 1, "round0": self.round0}

    def extra(self) -> dict:
        return {}


WORKLOADS = {"acceptance": CampaignWorkload, "ambient": CampaignWorkload, "solver": SolverWorkload}


def load_reference(workload: str, seed: int) -> dict | None:
    """Recorded outputs for this workload, or None when the seed differs."""
    if seed != REFERENCE_SEED:
        return None
    try:
        return json.loads(REFERENCE_PATH.read_text())["workloads"][workload]
    except (OSError, KeyError, ValueError):
        return {}


class Calibrator:
    """A fixed pass of small numpy work, independent of semiradius.

    The shared 2-core machines this benchmark runs on switch between a
    fast and a slow state every few seconds, about 1.5x apart.  Timing
    this pass right before and right after each operation measures the
    state the operation ran in.  Operation latencies are reported at the
    reference speed, at which one pass takes ``CAL_REF_S``.
    """

    def __init__(self, np):
        rng = np.random.default_rng(1)
        self.stack = rng.standard_normal((64, 8, 8)) + 1j * rng.standard_normal((64, 8, 8))
        self.small = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        # Bound now, so that a tracer installed later does not count these calls.
        self.eigvalsh, self.svd = np.linalg.eigvalsh, np.linalg.svd

    def __call__(self) -> float:
        start = time.perf_counter()
        for i in range(16):
            H = 0.5 * (self.stack + self.stack.conj().transpose(0, 2, 1))
            self.eigvalsh(H[: 8 + i % 8])
            self.svd(self.small, compute_uv=False)
        return time.perf_counter() - start


def run_rounds(workload, calibrate, rounds_min: int, rounds_max: int, seconds: float, tracer=None) -> tuple[dict, list]:
    """Run rounds of operations, timing each; returns timings and outputs.

    Each operation's latency is also scaled to the reference speed by
    the mean of the calibration passes around it.
    """
    raw: list[float] = []
    scaled: list[float] = []
    outputs = []
    elapsed = 0.0
    while len(outputs) < rounds_max and (len(outputs) < rounds_min or elapsed < seconds):
        r = len(outputs)
        ops = workload.round_inputs(r)
        results = []
        start = time.perf_counter()
        before = calibrate()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.operation = f"{r}.{i}"
            t = time.perf_counter()
            try:
                out, error = workload.execute(op), None
            except Exception as exc:  # counted as a failure of this operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - t
            after = calibrate()
            raw.append(took)
            scaled.append(took * 2.0 * CAL_REF_S / (before + after))
            before = after
            results.append((op, None if out is None else workload.keep(r, out), error))
        elapsed += time.perf_counter() - start
        outputs.append(results)
    timing = {
        "rounds": len(outputs),
        "ops": len(raw),
        "wall_s": elapsed,
        "busy_s": sum(raw),
        "scaled_busy_s": sum(scaled),
        "latencies_ms": [1e3 * t for t in raw],
        "scaled_ms": [1e3 * t for t in scaled],
    }
    return timing, outputs


def check_outputs(workload, outputs: list, reference: dict | None) -> dict:
    """Check every output of every round, then compare with the reference."""
    attempted = failed = 0
    notes: list[str] = []
    for r, results in enumerate(outputs):
        for op, out, error in results:
            a, f, n = workload.check(r, op, out, error)
            attempted += a
            failed += f
            notes.extend(n)
    f, n = workload.finish(reference)
    return {"attempted": attempted, "failed": failed + f, "notes": notes + n}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "fixed"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--t0", type=float, required=True, help="wall-clock time the process was started")
    ap.add_argument("--out", type=Path, required=True, help="directory for instance files")
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    unpinned = [var for var in PIN_VARS if os.environ.get(var) != "1"]
    if unpinned:
        print(f"BLAS is not pinned to one thread: {', '.join(unpinned)} not set to 1", file=sys.stderr)
        return 3
    import numpy as np

    env = environment(np)
    if env["blas_threads"] != 1:
        print(f"BLAS runs {env['blas_threads']} threads, not 1; refusing to report", file=sys.stderr)
        return 3
    sys.path.insert(0, str(ROOT / "src"))
    args.out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, args.out)
    # Set-up covers imports, generating the first inputs and a warm-up.
    workload.round_inputs(0)
    workload.warm_up()
    setup_s = time.time() - args.t0
    calibrate = Calibrator(np)
    speed = CAL_REF_S / statistics.median(calibrate() for _ in range(5))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "env": env,
        "setup_s": setup_s * speed,
        "setup_s_unscaled": setup_s,
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "measure":
        run, outputs = run_rounds(workload, calibrate, MIN_ROUNDS, 1 << 30, args.seconds)
    else:
        rounds = max(MIN_ROUNDS, round(args.seconds * FIXED_ROUNDS_PER_S[args.workload]))
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        with tracer if tracer is not None else contextlib.nullcontext():
            run, outputs = run_rounds(workload, calibrate, rounds, rounds, 0.0, tracer)
    run.update(check_outputs(workload, outputs, load_reference(args.workload, args.seed)))
    raw, scaled = run.pop("latencies_ms"), run.pop("scaled_ms")
    result.update(run)
    result.update(workload.extra())
    result["unit"] = workload.unit
    result["peak_rss_mb"] = _peak_rss_mb()
    result["width_rel_max"] = workload.widths.rel_max
    result["width_gap_max"] = workload.widths.gap_max
    result["ops_per_s"] = run["ops"] / run["scaled_busy_s"]
    result["op_ms_p50"] = _quantile(scaled, 5)
    result["op_ms_p90"] = _quantile(scaled, 9)
    result["beyond_p90"] = sum(x > result["op_ms_p90"] for x in scaled)
    result["unscaled"] = {
        "ops_per_s": run["ops"] / run["busy_s"],
        "op_ms_p50": _quantile(raw, 5),
        "op_ms_p90": _quantile(raw, 9),
    }
    if tracer is not None:
        summary = tracer.summary()
        result["counters"] = summary.counters()
        result["per_layer"] = summary.per_layer(run["ops"], run["busy_s"], run["scaled_busy_s"] / run["busy_s"])
        result["missing_targets"] = summary.missing
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
