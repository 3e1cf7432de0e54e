"""Command-line frontend for the full pipeline.

Subcommands::

    channel    trace the receiver grid; emit channel.csv + bandwidth_cdf.csv
    allocate   solve the WDMA assignment for the configured scenario
    place      solve one placement cell on the reference topology
    sweep      solve the full (DRR, workload) grid
    chain      scenario -> channel -> allocation -> placement, one bundle
    validate   check config and topology self-consistency, write nothing

Exit codes are the process contract: 0 success, 2 a solver proved the model
infeasible (a machine-readable report goes to stderr), 1 usage or config
errors.  Identical invocations write identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .config import apply_overrides, load_config
from .errors import ConfigError, InfeasibleError, ResourceLimitError
from .placement import sweep as run_sweep
from .scenarios import (
    ResultBundle,
    allocation_bundle,
    build_manifest,
    chain_scenario,
    channel_bundle,
    placement_cell,
    placement_cell_tables,
    placement_table,
    topology_from_config,
)
from .topology import validate_topology

__all__ = ["main", "build_parser"]

FIGURES = ("7a", "7b", "7c", "8", "9", "10", "11")


class _UsageError(Exception):
    """Raised in place of argparse's sys.exit so usage errors map to exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _time_limit(text: str) -> float:
    """A solver budget in seconds. A NaN or infinite budget never expires
    and a negative one is meaningless, so each is a usage error."""
    seconds = float(text)
    if not (math.isfinite(seconds) and seconds >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite, non-negative number of seconds, "
            f"got {text!r}")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="owcfog", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, fig: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="JSON config; defaults apply when omitted")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (created if absent)")
        p.add_argument("--override", metavar="K=V", action="append",
                       default=[],
                       help="config override, dotted path or shorthand "
                            "(drr, workload, tasks, seed); repeatable")
        p.add_argument("--seed", type=int, default=None,
                       help="scenario RNG seed (overrides config)")
        p.add_argument("--time-limit", type=_time_limit, default=None,
                       metavar="SECONDS", help="solver time budget")
        if fig:
            p.add_argument("--fig", choices=FIGURES, default=None,
                           help="emit the column subset for one figure")
        return p

    add("channel", "trace channel metrics over the receiver grid")
    add("allocate", "solve the WDMA wavelength assignment")
    add("place", "solve one placement cell", fig=True)
    add("sweep", "solve the (DRR, workload) placement grid", fig=True)
    add("chain", "run the full scenario pipeline")
    add("validate", "check config and topology consistency")
    return parser


# ---------------------------------------------------------------------
# figure projections
# ---------------------------------------------------------------------

def _fig_columns(fig: str, header: List[str]) -> List[str]:
    """Column subset of the placement table backing one published figure."""
    base = ["drr", "workload_mips"]
    per_node = {
        "8": [c for c in header if c.startswith("mips_")],
        "9": [c for c in header if c.startswith("net_w_")],
        "11": [c for c in header if c.startswith("util_")],
    }
    named = {
        "7a": base + ["processing_power_w"],
        "7b": base + ["networking_power_w"],
        "7c": base + ["total_power_w"],
        "8": base + ["networking_power_w"] + per_node["8"],
        "9": base + per_node["9"],
        "10": base + ["processing_power_w", "networking_power_w",
                      "total_power_w"],
        "11": base + per_node["11"],
    }
    return named[fig]


def _project_placement(bundle: ResultBundle, fig: Optional[str]) -> None:
    if not fig:
        return
    header, rows = bundle.tables["placement"]
    keep = _fig_columns(fig, header)
    idx = [header.index(c) for c in keep]
    bundle.tables[f"fig{fig}"] = (keep, [[r[i] for i in idx] for r in rows])


# ---------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------

def _cmd_place(cfg: Dict, fig: Optional[str],
               time_limit: Optional[float]) -> ResultBundle:
    cell = placement_cell(cfg)
    bundle = ResultBundle(
        tables=placement_cell_tables(topology_from_config(cfg), **cell,
                                     time_limit_s=time_limit),
        manifest=build_manifest(cfg, stage="place", placement=cell),
    )
    _project_placement(bundle, fig)
    return bundle


def _cmd_sweep(cfg: Dict, fig: Optional[str],
               time_limit: Optional[float]) -> ResultBundle:
    topology = topology_from_config(cfg)
    sweep_cfg = cfg["sweep"]
    rows = run_sweep(sweep_cfg["drr"], sweep_cfg["workload_mips"],
                     topology=topology, task_count=sweep_cfg["tasks"],
                     time_limit_s=time_limit)
    bundle = ResultBundle(
        tables={"placement": placement_table(rows, topology)},
        manifest=build_manifest(cfg, stage="sweep", sweep=sweep_cfg),
    )
    _project_placement(bundle, fig)
    return bundle


def _cmd_validate(cfg: Dict) -> int:
    problems = validate_topology(topology_from_config(cfg))
    record = {"ok": not problems, "problems": problems}
    print(json.dumps(record, sort_keys=True))
    return 0 if not problems else 1


def _diagnostic(kind: str, exit_code: int, message: str,
                report: Optional[Dict] = None) -> None:
    record = {"error": kind, "exit": exit_code, "message": message}
    if report is not None:
        record["report"] = report
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _diagnostic("usage", 1, str(exc))
        return 1

    try:
        seed = [] if args.seed is None else [f"scenario.seed={args.seed}"]
        cfg = apply_overrides(load_config(args.config), args.override + seed)

        if args.command == "validate":
            return _cmd_validate(cfg)

        if args.command == "channel":
            bundle = channel_bundle(cfg)
        elif args.command == "allocate":
            bundle = allocation_bundle(cfg, time_limit_s=args.time_limit)
        elif args.command == "place":
            bundle = _cmd_place(cfg, args.fig, args.time_limit)
        elif args.command == "sweep":
            bundle = _cmd_sweep(cfg, args.fig, args.time_limit)
        else:  # chain
            bundle = chain_scenario(cfg, time_limit_s=args.time_limit)

        written = bundle.write(Path(args.out))
        for path in written:
            print(path)
        return 0

    except InfeasibleError as exc:
        _diagnostic("infeasible", 2, str(exc), report=exc.report)
        return 2
    except ConfigError as exc:
        _diagnostic("config", 1, str(exc))
        return 1
    except ResourceLimitError as exc:
        _diagnostic("resource_limit", 1, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
