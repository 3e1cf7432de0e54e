"""Command-line frontend for the full pipeline.

Subcommands::

    channel    trace the receiver grid; emit channel.csv + bandwidth_cdf.csv
    allocate   solve the WDMA assignment for the configured scenario
    place      solve one placement cell on the reference topology
    sweep      solve the full (DRR, workload) grid
    chain      scenario -> channel -> allocation -> placement, one bundle
    validate   load the config as every stage does, write nothing

Exit codes are the process contract: 0 success, 2 a solver proved the model
infeasible (a machine-readable report goes to stderr), 1 usage or config
errors, an output directory that cannot be written, or a resource cap
(``"error": "resource_limit"``): more surface elements than
``room.max_elements``, more time bins per trace than the tracer allows, or a
time limit that expires before any feasible point is found.  Every exit 1 or 2 writes
one JSON line to stderr.  Identical invocations write identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .config import load_config
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

__all__ = ["main", "build_parser"]

#: Published figure -> (the placement columns it plots after ``drr`` and
#: ``workload_mips``, the prefix of the per-node columns it adds, if any).
FIGURES: Dict[str, Tuple[List[str], Optional[str]]] = {
    "7a": (["processing_power_w"], None),
    "7b": (["networking_power_w"], None),
    "7c": (["total_power_w"], None),
    "8": (["networking_power_w"], "mips_"),
    "9": ([], "net_w_"),
    "10": (["processing_power_w", "networking_power_w", "total_power_w"],
           None),
    "11": ([], "util_"),
}


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
    add("validate", "load the config as every stage does")
    return parser


# ---------------------------------------------------------------------
# figure projections
# ---------------------------------------------------------------------

def _project_placement(bundle: ResultBundle, fig: str) -> None:
    """Add the column subset of the placement table backing one figure."""
    header, rows = bundle.tables["placement"]
    named, prefix = FIGURES[fig]
    keep = ["drr", "workload_mips", *named]
    if prefix:
        keep += [c for c in header if c.startswith(prefix)]
    idx = [header.index(c) for c in keep]
    bundle.tables[f"fig{fig}"] = (keep, [[r[i] for i in idx] for r in rows])


# ---------------------------------------------------------------------
# command bodies
# ---------------------------------------------------------------------

def _cmd_place(cfg: Dict, time_limit: Optional[float]) -> ResultBundle:
    cell = placement_cell(cfg)
    return ResultBundle(
        tables=placement_cell_tables(topology_from_config(cfg), **cell,
                                     time_limit_s=time_limit),
        manifest=build_manifest(cfg, stage="place", placement=cell),
    )


def _cmd_sweep(cfg: Dict, time_limit: Optional[float]) -> ResultBundle:
    topology = topology_from_config(cfg)
    sweep_cfg = cfg["sweep"]
    cells = run_sweep(sweep_cfg["drr"], sweep_cfg["workload_mips"],
                      topology=topology, task_count=sweep_cfg["tasks"],
                      time_limit_s=time_limit)
    return ResultBundle(
        tables={"placement": placement_table(cells, topology)},
        manifest=build_manifest(cfg, stage="sweep", sweep=sweep_cfg),
    )


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
        cfg = load_config(args.config, args.override + seed)

        if args.command == "validate":
            print(json.dumps({"ok": True, "problems": []}, sort_keys=True))
            return 0

        if args.command == "channel":
            bundle = channel_bundle(cfg)
        elif args.command == "allocate":
            bundle = allocation_bundle(cfg, time_limit_s=args.time_limit)
        elif args.command == "place":
            bundle = _cmd_place(cfg, args.time_limit)
        elif args.command == "sweep":
            bundle = _cmd_sweep(cfg, args.time_limit)
        else:  # chain
            bundle = chain_scenario(cfg, time_limit_s=args.time_limit)
        if getattr(args, "fig", None):  # place and sweep take --fig
            _project_placement(bundle, args.fig)

        try:
            written = bundle.write(Path(args.out))
        except OSError as exc:  # e.g. --out names a file, or sits under one
            _diagnostic("output", 1, str(exc))
            return 1
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
