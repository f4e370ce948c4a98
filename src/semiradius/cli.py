"""Command line harness: run campaigns, replay instances, show tolerances.

Exit codes follow the campaign verdicts: 0 when every live check row is
certified, 2 when uncertified rows exist, 3 when any violation candidate
appeared.  Usage and input errors exit 1 so they cannot be mistaken for
verdict outcomes.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .functionals import RadiusOptions
from .kernel import DEFAULT_CUTOFF, HERMITIAN_TOL, PSD_TOL
from .sampler import SPECTRUM_LAWS
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


def _given(args, config_type) -> dict:
    """The flags set on the command line, by the config_type fields they
    name; a flag left out keeps that field's default."""
    values = ((f.name, getattr(args, f.name, None)) for f in dataclasses.fields(config_type))
    return {name: value for name, value in values if value is not None}


def _add_solver_flags(parser) -> None:
    parser.add_argument("--grid", dest="grid_count", type=int, help="initial angle grid count")
    parser.add_argument("--gap", dest="gap_scale", type=float, help="relative enclosure gap target")
    parser.add_argument("--oracle-samples", type=int, help="Monte Carlo cap samples")


def _build_parser() -> _Parser:
    parser = _Parser(prog="semiradius", description=__doc__)
    parser.add_argument("--version", action="version", version=f"semiradius {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    camp = sub.add_parser("campaign", help="run a check campaign over sampled spaces")
    camp.add_argument("--dims", help="comma list of dimensions")
    camp.add_argument("--ranks", help="comma list of ranks, or 'all'")
    camp.add_argument("--trials", type=int, help="trials per (dim, rank) cell")
    camp.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    camp.add_argument("--law", choices=SPECTRUM_LAWS)
    camp.add_argument("--lam-min", type=float, help="smallest positive eigenvalue")
    camp.add_argument("--lam-max", type=float, help="largest eigenvalue")
    camp.add_argument("--scale", type=float, help="operator entry scale")
    _add_solver_flags(camp)
    camp.add_argument("--checks", help="subset such as C1..C5,C12, or 'all'")
    camp.add_argument("--out", help="write the JSON report here")
    camp.add_argument("--csv", help="write per-check aggregate CSV here")
    camp.add_argument("--save-extremes", metavar="DIR", help="regenerate each check's argmin instance into DIR")
    camp.add_argument("--workers", type=int, help=f"worker processes (default ${WORKERS_ENV} or 1)")

    ver = sub.add_parser("verify", help="replay all applicable checks on an instance file")
    ver.add_argument("file", help="instance JSON written by this tool")
    _add_solver_flags(ver)

    sub.add_parser("info", help="print version and tolerance constants")
    return parser


def _cmd_campaign(args) -> int:
    settings = _given(args, CampaignConfig)
    # Parsed here, not by argparse, so that their BadConfig exits 1 with a message.
    for name, parse in (("dims", _parse_ints), ("ranks", _parse_ranks), ("checks", _parse_checks)):
        if name in settings:
            settings[name] = parse(settings[name])
    settings.setdefault("workers", _default_workers())
    config = CampaignConfig(**settings)
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
    rows = verify_instance(args.file, opts=RadiusOptions(**_given(args, RadiusOptions)))
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
