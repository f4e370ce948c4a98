"""Reproducible campaigns of catalog checks over sampled spaces.

A campaign walks a (dim, rank) grid, draws independent operand bundles per
cell from per-trial derived seeds, runs every requested check, and
summarizes the check-by-instance table of their rows per check.  Seeds
depend only on the master seed and the cell coordinates, so any instance
can be regenerated in isolation and the report is identical for every
worker count.
"""

from __future__ import annotations

import csv
import json
import math
import re
import time
from dataclasses import dataclass, fields
from pathlib import Path

from .catalog import CATALOG, CheckResult, CheckTable, run_all, run_tables, summarize
from .errors import BadConfig, ParseError, integral
from .functionals import RadiusOptions
from .instances import read_instance, write_instance
from .sampler import SampleConfig, derive_seed, sample_bundle, sample_space

__all__ = [
    "SCHEMA_VERSION",
    "CampaignConfig",
    "run_campaign",
    "report_exit_code",
    "write_report",
    "write_csv",
    "save_extremes",
    "verify_instance",
]

SCHEMA_VERSION = 1

# The row counts of each check's summary, which the report's totals add up.
_COUNTS = ("trials", "skipped", "certified", "uncertified", "violations")
_CSV_FIELDS = ("check", *_COUNTS, "min_slack", "median_slack", "max_tightness", "argmin_instance")

_INSTANCE_ID = re.compile(r"^d(\d+)_r(\d+)_t(\d+)$")

# Trials of a cell run together: run_tables stacks them, evaluates each
# check once for all and returns their rows as one check-by-instance
# table, whose row detail the report does not use; the report summarizes
# the tables of all chunks joined in cell and trial order.  Rows do not
# depend on the chunk size; larger chunks spread the per-round cost of
# the search and of each check over more instances, up to _TRIAL_CHUNK,
# while their n x n matrices (about 16 per trial) stay within
# _CHUNK_MATRIX_BYTES.
_TRIAL_CHUNK = 32
_CHUNK_MATRIX_BYTES = 1 << 26


@dataclass(frozen=True)
class CampaignConfig:
    """Declarative description of one campaign run.  The spectrum law and
    bounds default as in SampleConfig, the solver settings as in
    RadiusOptions.

    oracle_samples affects no result: it is validated and echoed in the
    report's config, and stays only until the benchmark stops passing it.
    """

    dims: tuple[int, ...] = (2, 3, 4, 5, 6)
    ranks: tuple[int, ...] | None = None
    trials: int = 100
    master_seed: int = 0
    law: str = SampleConfig.law
    lam_min: float = SampleConfig.lam_min
    lam_max: float = SampleConfig.lam_max
    scale: float = 1.0
    grid_count: int = RadiusOptions.grid_count
    gap_scale: float = RadiusOptions.gap_scale
    oracle_samples: int = 4096
    checks: tuple[str, ...] | None = None
    workers: int = 1

    def __post_init__(self):
        dims = tuple(sorted(set(integral("dims", d) for d in self.dims)))
        if not dims or dims[0] < 1:
            raise BadConfig("dims must be a nonempty set of positive integers")
        object.__setattr__(self, "dims", dims)
        if self.ranks is not None:
            ranks = tuple(sorted(set(integral("ranks", r) for r in self.ranks)))
            if not ranks or ranks[0] < 0:
                raise BadConfig("ranks must be nonnegative integers")
            object.__setattr__(self, "ranks", ranks)
        # Counts are kept as Python ints, which the report's echo can write.
        for name in ("trials", "workers", "grid_count", "oracle_samples", "master_seed"):
            object.__setattr__(self, name, integral(name, getattr(self, name)))
        if self.trials < 1:
            raise BadConfig(f"trials must be positive, got {self.trials}")
        if self.workers < 1:
            raise BadConfig(f"workers must be positive, got {self.workers}")
        if self.oracle_samples < 0:
            raise BadConfig(f"oracle_samples must be nonnegative, got {self.oracle_samples}")
        if not 0.0 <= self.scale < math.inf:
            raise BadConfig(f"scale must be finite and nonnegative, got {self.scale}")
        if self.checks is not None:
            checks = tuple(self.checks)
            if not checks:
                raise BadConfig("checks must name at least one catalog entry")
            unknown = [c for c in checks if c not in CATALOG]
            if unknown:
                raise BadConfig(f"unknown checks: {', '.join(unknown)}")
            repeated = sorted({c for c in checks if checks.count(c) > 1})
            if repeated:
                raise BadConfig(f"checks listed more than once: {', '.join(repeated)}")
            object.__setattr__(self, "checks", checks)
        if not self.cells():
            raise BadConfig("no (dim, rank) cell matches the requested grid")
        # Delegates spectrum, seed and solver validation.
        self._sample_config(self.dims[0], min(1, self.dims[0]), self.master_seed)
        self.options()

    def cells(self) -> list[tuple[int, int]]:
        """The (dim, rank) grid in report order."""
        out = []
        for dim in self.dims:
            ranks = self.ranks if self.ranks is not None else range(1, dim + 1)
            out.extend((dim, rank) for rank in ranks if rank <= dim)
        return out

    def options(self) -> RadiusOptions:
        return RadiusOptions(grid_count=self.grid_count, gap_scale=self.gap_scale)

    def _sample_config(self, dim: int, rank: int, seed: int) -> SampleConfig:
        return SampleConfig(
            dim=dim,
            rank=rank,
            law=self.law,
            lam_min=self.lam_min,
            lam_max=self.lam_max,
            master_seed=seed,
        )

    def echo(self) -> dict:
        # Worker count is scheduling, not configuration: reports from the
        # same experiment must agree byte for byte whatever ran them.
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}
        out["dims"] = list(self.dims)
        out["ranks"] = "all" if self.ranks is None else list(self.ranks)
        out["checks"] = "all" if self.checks is None else list(self.checks)
        return out


def _regenerate(config: CampaignConfig, dim: int, rank: int, trial: int):
    seed = derive_seed(config.master_seed, dim, rank, trial)
    space = sample_space(config._sample_config(dim, rank, seed))
    bundle = sample_bundle(space, scale=config.scale, seed=derive_seed(seed, 1))
    return space, bundle


def _run_cell(args) -> list[CheckTable]:
    config, dim, rank = args
    opts = config.options()
    chunk = max(1, min(_TRIAL_CHUNK, _CHUNK_MATRIX_BYTES // (16 * 16 * dim * dim)))
    tables = []
    for first in range(0, config.trials, chunk):
        items = []
        for trial in range(first, min(first + chunk, config.trials)):
            space, bundle = _regenerate(config, dim, rank, trial)
            items.append((space, bundle, f"d{dim}_r{rank}_t{trial}"))
        # The trials of a cell share their rank, checks and operand names: one chunk.
        ((_positions, table),) = run_tables(items, opts=opts, checks=config.checks)
        tables.append(table._replace(variants=None, variant=None, skips=None))
    return tables


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool, imported on first use: its modules
    (multiprocessing among them) take about as long to import as the
    package, and only campaigns with more than one worker start a pool."""
    from concurrent.futures import ProcessPoolExecutor as Pool

    return Pool(max_workers=max_workers)


def run_campaign(config: CampaignConfig) -> dict:
    """Execute the campaign and return the report document."""
    start = time.perf_counter()
    cells = config.cells()
    jobs = [(config, dim, rank) for dim, rank in cells]
    if config.workers > 1 and len(jobs) > 1:
        # A pool forks all its workers up front: no more than there are jobs.
        with ProcessPoolExecutor(max_workers=min(config.workers, len(jobs))) as pool:
            cells = list(pool.map(_run_cell, jobs))
    else:
        cells = [_run_cell(job) for job in jobs]

    checks = summarize(CheckTable.concat([table for tables in cells for table in tables]))
    totals = {key: sum(s[key] for s in checks.values()) for key in _COUNTS}
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": _tool_block(),
        "master_seed": config.master_seed,
        "config": config.echo(),
        "totals": totals,
        "checks": checks,
        "wall_time_s": time.perf_counter() - start,
    }


def _tool_block() -> dict:
    from . import __version__

    return {"name": "semiradius", "version": __version__}


def report_exit_code(report: dict) -> int:
    """0 all certified, 2 uncertified present, 3 violation candidates."""
    totals = report["totals"]
    if totals["violations"]:
        return 3
    if totals["uncertified"]:
        return 2
    return 0


def write_report(report: dict, path) -> None:
    text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_csv(report: dict, path) -> None:
    """Per-check aggregate rows for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for cid, summary in report["checks"].items():
            row = {k: summary.get(k, "") for k in _CSV_FIELDS[1:]}
            row["check"] = cid
            writer.writerow(row)


def save_extremes(config: CampaignConfig, report: dict, directory) -> list[Path]:
    """Regenerate each check's argmin instance and write it as a file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids = sorted(
        {
            s["argmin_instance"]
            for s in report["checks"].values()
            if s.get("argmin_instance")
        }
    )
    written = []
    for iid in ids:
        match = _INSTANCE_ID.match(iid)
        if match is None:
            raise ParseError(f"malformed instance id in report: {iid!r}")
        dim, rank, trial = (int(g) for g in match.groups())
        space, bundle = _regenerate(config, dim, rank, trial)
        path = directory / f"{iid}.json"
        write_instance(path, space, bundle)
        written.append(path)
    return written


def verify_instance(path, opts: RadiusOptions = RadiusOptions()) -> list[CheckResult]:
    """Replay all applicable checks on a stored instance file."""
    space, operands = read_instance(path)
    return run_all(space, operands, instance=Path(path).stem, opts=opts)
