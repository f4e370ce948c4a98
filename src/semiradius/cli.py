"""Command line harness: run campaigns, replay instances, show tolerances.

Exit codes follow the campaign verdicts: 0 when every live check row is
certified, 2 when uncertified rows exist, 3 when any violation candidate
appeared.  Usage and input errors exit 1 so they cannot be mistaken for
verdict outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .campaign import (
    CampaignConfig,
    report_exit_code,
    run_campaign,
    save_extremes,
    verify_instance,
    write_csv,
    write_report,
)
from .catalog import (
    CATALOG,
    CERT_EPS,
    EQ_TOL,
    EQUALITY_TOL,
    PASS_UNCERTIFIED,
    VIOLATION_CANDIDATE,
    VIOLATION_TOL,
)
from .errors import BadConfig, SemiradiusError
from .functionals import DEFAULT_GAP_SCALE, DEFAULT_GRID, DEFAULT_MC_SAMPLES, RadiusOptions
from .kernel import DEFAULT_CUTOFF, HERMITIAN_TOL, PSD_TOL
from .space import FACT_TOL

WORKERS_ENV = "SEMIRADIUS_WORKERS"


class _Parser(argparse.ArgumentParser):
    # Argparse exits 2 on usage errors, which this tool reserves for
    # the uncertified verdict; remap to 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise BadConfig(f"expected comma-separated integers, got {text!r}") from None


def _parse_ranks(text: str) -> tuple[int, ...] | None:
    if text.strip().lower() == "all":
        return None
    return _parse_ints(text)


def _expand_check_token(token: str) -> list[str]:
    if ".." not in token:
        return [token]
    first, _, last = token.partition("..")
    if not (first.startswith("C") and last.startswith("C")):
        raise BadConfig(f"malformed check range {token!r}")
    try:
        lo, hi = int(first[1:]), int(last[1:])
    except ValueError:
        raise BadConfig(f"malformed check range {token!r}") from None
    if hi < lo:
        raise BadConfig(f"empty check range {token!r}")
    return [f"C{k}" for k in range(lo, hi + 1)]


def _parse_checks(text: str) -> tuple[str, ...] | None:
    if text.strip().lower() == "all":
        return None
    out: list[str] = []
    for token in text.split(","):
        token = token.strip()
        if token:
            out.extend(_expand_check_token(token))
    if not out:
        raise BadConfig(f"no checks named in {text!r}")
    unknown = [c for c in out if c not in CATALOG]
    if unknown:
        raise BadConfig(f"unknown checks: {', '.join(unknown)}")
    return tuple(dict.fromkeys(out))


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _add_solver_flags(parser) -> None:
    parser.add_argument("--grid", type=int, default=DEFAULT_GRID, help="initial angle grid count")
    parser.add_argument("--gap", type=float, default=DEFAULT_GAP_SCALE, help="relative enclosure gap target")
    parser.add_argument("--oracle-samples", type=int, default=DEFAULT_MC_SAMPLES, help="Monte Carlo cap samples")


def _solver_settings(args) -> dict:
    """The solver flags as RadiusOptions (and CampaignConfig) fields."""
    return {"grid_count": args.grid, "gap_scale": args.gap, "oracle_samples": args.oracle_samples}


def _build_parser() -> _Parser:
    parser = _Parser(prog="semiradius", description=__doc__)
    parser.add_argument("--version", action="version", version=f"semiradius {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    camp = sub.add_parser("campaign", help="run a check campaign over sampled spaces")
    camp.add_argument("--dims", default="2,3,4,5,6", help="comma list of dimensions")
    camp.add_argument("--ranks", default="all", help="comma list of ranks, or 'all'")
    camp.add_argument("--trials", type=int, default=100, help="trials per (dim, rank) cell")
    camp.add_argument("--seed", type=int, default=0, help="master seed")
    camp.add_argument("--law", default="uniform", choices=("uniform", "equal", "geometric"))
    camp.add_argument("--lam-min", type=float, default=0.1, help="smallest positive eigenvalue")
    camp.add_argument("--lam-max", type=float, default=2.0, help="largest eigenvalue")
    camp.add_argument("--scale", type=float, default=1.0, help="operator entry scale")
    _add_solver_flags(camp)
    camp.add_argument("--checks", default="all", help="subset such as C1..C5,C12, or 'all'")
    camp.add_argument("--out", default=None, help="write the JSON report here")
    camp.add_argument("--csv", default=None, help="write per-check aggregate CSV here")
    camp.add_argument("--save-extremes", default=None, metavar="DIR",
                      help="regenerate each check's argmin instance into DIR")
    camp.add_argument("--workers", type=int, default=None,
                      help=f"worker processes (default ${WORKERS_ENV} or 1)")

    ver = sub.add_parser("verify", help="replay all applicable checks on an instance file")
    ver.add_argument("file", help="instance JSON written by this tool")
    _add_solver_flags(ver)

    sub.add_parser("info", help="print version and tolerance constants")
    return parser


def _cmd_campaign(args) -> int:
    config = CampaignConfig(
        dims=_parse_ints(args.dims),
        ranks=_parse_ranks(args.ranks),
        trials=args.trials,
        master_seed=args.seed,
        law=args.law,
        lam_min=args.lam_min,
        lam_max=args.lam_max,
        scale=args.scale,
        checks=_parse_checks(args.checks),
        workers=args.workers if args.workers is not None else _default_workers(),
        **_solver_settings(args),
    )
    report = run_campaign(config)
    if args.out:
        write_report(report, args.out)
    if args.csv:
        write_csv(report, args.csv)
    if args.save_extremes:
        save_extremes(config, report, args.save_extremes)
    totals = report["totals"]
    print(
        "checks {trials} rows: {certified} certified, {uncertified} uncertified,"
        " {violations} violation candidates, {skipped} skipped".format(**totals)
    )
    print(f"wall time {report['wall_time_s']:.2f}s")
    return report_exit_code(report)


def _cmd_verify(args) -> int:
    rows = verify_instance(args.file, opts=RadiusOptions(**_solver_settings(args)))
    for r in rows:
        print(f"{r.check_id:4s} {r.verdict:19s} slack={r.slack: .6e}")
    totals = {
        "violations": sum(r.verdict == VIOLATION_CANDIDATE for r in rows),
        "uncertified": sum(r.verdict == PASS_UNCERTIFIED for r in rows),
    }
    return report_exit_code({"totals": totals})


def _cmd_info() -> int:
    print(
        json.dumps(
            {
                "version": __version__,
                "checks": list(CATALOG),
                "tolerances": {
                    "seed_rank_cutoff": DEFAULT_CUTOFF,
                    "hermitian_tol": HERMITIAN_TOL,
                    "psd_tol": PSD_TOL,
                    "membership_tol": FACT_TOL,
                    "violation_tol": VIOLATION_TOL,
                    "certification_floor": CERT_EPS,
                    "equality_cushion": EQ_TOL,
                    "near_equality_tol": EQUALITY_TOL,
                },
            },
            indent=1,
            sort_keys=True,
        )
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_info()
    except SemiradiusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
