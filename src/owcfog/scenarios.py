"""Scenario generation, stage chaining, and result artifacts.

This module glues the pipeline together: user placements (Poisson point
process or fixed coordinates) feed the channel tracer, solved allocations
become downlink capacities in the fog topology, and every stage's output
lands in a :class:`ResultBundle` — a directory of CSV tables plus a manifest
that pins the config hash, seed and library versions so a run can be
reproduced byte for byte.  The tracer and the solvers return records and
solutions; this module builds every stage's table from them.
"""

from __future__ import annotations

import itertools
import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .allocator import (AllocationProblem, AllocationSolution,
                        check_slot_count, solve_branch_and_bound)
from .channel import ChannelRecords, compute_channel_records, grid_positions
from .config import config_digest, receiver_from_config, room_from_config
from .errors import ConfigError, InfeasibleError
from .placement import PlacementProblem, SweepCell, demands_from_drr
from .placement import solve_branch_and_bound as solve_placement
from .room import (WAVELENGTHS, RoomConfig, Scenario, fixed_scenario,
                   ppp_mean_users)
from .signal_model import ChannelTable
from .topology import TopologyConfig, build_reference_topology

__all__ = [
    "ResultBundle",
    "ANALOGUE_SEEDS",
    "generate_ppp_users",
    "scenario_from_config",
    "bandwidth_cdf",
    "fraction_at_least",
    "build_manifest",
    "channel_bundle",
    "allocate_scenario",
    "allocation_bundle",
    "chain_scenario",
    "placement_cell",
    "topology_from_config",
    "placement_table",
    "placement_cell_tables",
]

#: RNG identity recorded in every manifest.  The bit stream of PCG64 under
#: a given seed is stable across numpy releases, which is what makes pinned
#: scenario seeds meaningful.
RNG_ID = "numpy.random.default_rng(PCG64)"

#: Pinned seeds for the two named 8-user draws used in reports.  Each is a
#: PPP draw with exactly eight users whose WDMA assignment solves under the
#: reference room; their solved rate ranges are reported in the run manifest
#: for side-by-side comparison with published scenario ranges, without any
#: claim of coordinate equality.
ANALOGUE_SEEDS: Dict[str, int] = {
    "s1-analogue": 172,   # solved rates 1.27-5.00 Gbit/s
    "s2-analogue": 19,    # solved rates 0.52-5.00 Gbit/s (wider spread)
}


# ---------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------

def generate_ppp_users(room: RoomConfig, intensity_per_m2: float,
                       seed: int) -> Scenario:
    """Scatter users by a 2-D Poisson point process on the receiver plane.

    The count is Poisson with mean :func:`ppp_mean_users`; positions are
    i.i.d. uniform over the floor.  Identical seeds give identical draws.
    """
    rng = np.random.default_rng(seed)
    count = _ppp_count(rng, room, intensity_per_m2)
    xs = rng.uniform(0.0, room.length_m, size=count)
    ys = rng.uniform(0.0, room.width_m, size=count)
    positions = tuple((float(x), float(y)) for x, y in zip(xs, ys))
    return Scenario(name=f"ppp-{seed}", mode="ppp", seed=seed,
                    positions_m=positions)


def _ppp_count(rng: np.random.Generator, room: RoomConfig,
               intensity_per_m2: float) -> int:
    """The user count of a PPP draw: the first value drawn from ``rng``."""
    return int(rng.poisson(ppp_mean_users(room, intensity_per_m2)))


def scenario_from_config(cfg: Dict, room: Optional[RoomConfig] = None) -> Scenario:
    """Build the scenario a config document describes.

    Named analogue scenarios (see :data:`ANALOGUE_SEEDS`) force their pinned
    seed so the draw is the same in every environment.
    """
    if room is None:
        room = room_from_config(cfg)
    sc = cfg["scenario"]
    if sc["mode"] == "fixed":
        return fixed_scenario(sc["name"], sc["positions_m"], room,
                              seed=sc["seed"])
    seed = ANALOGUE_SEEDS.get(sc["name"], sc["seed"])
    scenario = generate_ppp_users(room, sc["intensity_per_m2"], seed)
    if sc["name"]:
        scenario.name = sc["name"]
    return scenario


def _user_count(cfg: Dict, room: RoomConfig) -> int:
    """The number of users :func:`scenario_from_config` gives, without
    drawing their positions: a PPP draw takes its count from the seeded
    generator before any position."""
    sc = cfg["scenario"]
    if sc["mode"] == "fixed":
        return len(sc["positions_m"])
    rng = np.random.default_rng(ANALOGUE_SEEDS.get(sc["name"], sc["seed"]))
    return _ppp_count(rng, room, sc["intensity_per_m2"])


# ---------------------------------------------------------------------
# bandwidth coverage
# ---------------------------------------------------------------------

def _per_location_bandwidth(records: ChannelRecords) -> List[float]:
    # A location "supports" the best bandwidth any AP/wavelength offers there;
    # users at one (x, y) share their traces, so they are one location.
    best = dict(zip(map(tuple, records.positions_m),
                    records.bw_3db_hz.max(axis=(1, 2)).tolist()))
    return [best[k] for k in sorted(best)]


def bandwidth_cdf(records: ChannelRecords) -> List[Tuple[float, float]]:
    """Empirical CDF of per-location supported bandwidth.

    Returns sorted ``(bandwidth_hz, cumulative fraction)`` pairs, one per
    distinct bandwidth value, ending at fraction 1.0.
    """
    values = _per_location_bandwidth(records)
    if not values:
        raise ConfigError("bandwidth CDF needs at least one location")
    values.sort()
    n = len(values)
    out: List[Tuple[float, float]] = []
    for i, v in enumerate(values):
        if i + 1 < n and values[i + 1] == v:
            continue  # keep only the last (highest) fraction per value
        out.append((v, (i + 1) / n))
    return out


def fraction_at_least(records: ChannelRecords,
                      threshold_hz: float) -> float:
    """Fraction of locations whose supported bandwidth is ≥ the threshold."""
    values = _per_location_bandwidth(records)
    if not values:
        raise ConfigError("coverage fraction needs at least one location")
    return sum(1 for v in values if v >= threshold_hz) / len(values)


# ---------------------------------------------------------------------
# result bundles
# ---------------------------------------------------------------------

Table = Tuple[List[str], List[List[object]]]


#: Rows formatted into one string per ``write`` call when a bundle is
#: written: enough to keep the call count low, few enough that no table's
#: whole text is ever in memory. The text of each repeated float is kept
#: for one batch of rows, then dropped.
WRITE_BATCH_ROWS = 1024


def _open_text(path: Path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _cell(value: object) -> str:
    if isinstance(value, np.generic):  # np.float64 repr()s as its constructor
        value = value.item()
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)  # shortest round-trip text keeps bytes stable
    if value is None:
        return ""
    return str(value)


class _FloatTexts(dict):
    """float -> its ``_cell`` text, taken on first lookup. Only nonzero,
    non-NaN floats are looked up: 0.0 and -0.0 are equal keys with
    different text, NaN never finds itself, and an equal int or bool would
    share a float's key."""

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(value)
        return text


@dataclass
class ResultBundle:
    """Stage tables plus the manifest identifying the run.

    ``tables`` maps stage name to ``(header, rows)``; ``write`` lays the
    bundle out as ``<out>/<stage>.csv`` files and ``<out>/manifest``.
    """

    tables: Dict[str, Table]
    manifest: Dict[str, object]

    def write(self, out_dir) -> List[Path]:
        """Write every table, then the manifest, as UTF-8 with ``\\n``
        line ends whatever the platform and locale; returns their paths."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        # the four wavelength rows of a link repeat its floats
        texts = _FloatTexts()
        for stage, (header, rows) in self.tables.items():
            path = out / f"{stage}.csv"
            with _open_text(path) as f:
                f.write(",".join(header) + "\n")
                for start in range(0, len(rows), WRITE_BATCH_ROWS):
                    texts.clear()
                    f.write("".join(
                        ",".join([texts[v] if type(v) is float and v
                                  and v == v else _cell(v) for v in row])
                        + "\n"
                        for row in rows[start:start + WRITE_BATCH_ROWS]))
            written.append(path)
        manifest_path = out / "manifest"
        with _open_text(manifest_path) as f:
            f.write(json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")
        written.append(manifest_path)
        return written


def build_manifest(cfg: Dict, scenario: Optional[Scenario] = None,
                   **extra: object) -> Dict[str, object]:
    """Everything needed to reproduce a run — and nothing volatile."""
    manifest: Dict[str, object] = {
        "config_sha256": config_digest(cfg),
        "seed": scenario.seed if scenario else cfg["scenario"]["seed"],
        "rng": RNG_ID,
        "versions": {
            "owcfog": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if scenario is not None:
        manifest["scenario"] = {
            "name": scenario.name,
            "mode": scenario.mode,
            "users": scenario.n_users,
        }
    manifest.update(extra)
    return manifest


# ---------------------------------------------------------------------
# stage tables
# ---------------------------------------------------------------------

CHANNEL_HEADER = ["user_x", "user_y", "ap_id", "wavelength", "h",
                  "rx_power_w", "delay_spread_s", "bw_3db_hz", "rate_bps"]
ALLOCATION_HEADER = ["user", "ap_id", "wavelength", "sinr_db", "rate_bps"]
ALLOCATION_SUMMARY_HEADER = ["objective", "node_count", "gap"]
CDF_HEADER = ["bandwidth_hz", "fraction"]
UTILIZATION_HEADER = ["mobile_id", "wavelength", "utilization"]
PLACEMENT_BASE_HEADER = ["drr", "workload_mips", "total_power_w",
                         "processing_power_w", "networking_power_w",
                         "status", "detail"]


def placement_table(cells: Sequence[SweepCell],
                    topology: TopologyConfig) -> Table:
    """``placement.sweep`` cells → one row each: the totals, then each
    node's MIPS, processing and networking power in sorted id order, then
    each mobile's utilization.  An infeasible cell names its constraint in
    ``detail`` and leaves every figure empty."""
    node_ids = sorted(n.node_id for n in topology.nodes)
    mobiles = topology.mobiles()
    header = PLACEMENT_BASE_HEADER + [
        prefix + n for prefix in ("mips_", "proc_w_", "net_w_")
        for n in node_ids] + ["util_" + m.node_id for m in mobiles]
    empty = [None] * (len(header) - len(PLACEMENT_BASE_HEADER))
    rows: List[List[object]] = []
    for drr, workload, sol in cells:
        if isinstance(sol, InfeasibleError):
            rows.append([drr, workload, None, None, None, "infeasible",
                         sol.report.get("constraint", ""), *empty])
            continue
        per_node = (sol.workload_mips, sol.processing_power_w,
                    sol.networking_power_w)
        rows.append([drr, workload, sol.objective_w, sol.total_processing_w,
                     sol.total_networking_w, "optimal", None,
                     *[values[n] for values in per_node for n in node_ids],
                     *[sol.workload_mips[m.node_id] / m.capacity_mips
                       for m in mobiles]])
    return (header, rows)


def channel_table(records: ChannelRecords) -> Table:
    """One row per link, in (user, AP, wavelength) order; ``tolist`` gives
    Python floats, whose ``repr`` the CSV keeps."""
    links = itertools.product(records.positions_m, records.ap_ids,
                              records.wavelengths)
    metrics = zip(*(values.ravel().tolist() for values in (
        records.h, records.rx_power_w, records.delay_spread_s,
        records.bw_3db_hz, records.rate_bps)))
    # a list display sized exactly: [..., *m] would over-allocate each row
    rows = [[x, y, ap_id, wl, h, rx, ds, bw, rate]
            for ((x, y), ap_id, wl), (h, rx, ds, bw, rate)
            in zip(links, metrics)]
    return (list(CHANNEL_HEADER), rows)


def allocation_tables(solution: Optional[AllocationSolution]
                      ) -> Dict[str, Table]:
    """Assignment and summary tables; both are empty without a solution."""
    rows: List[List[object]] = []
    summary: List[List[object]] = []
    if solution is not None:
        rows = [[u, solution.assignment[u][0], solution.assignment[u][1],
                 solution.sinr_db[u], solution.rate_bps[u]]
                for u in sorted(solution.assignment)]
        summary = [[solution.objective,
                    int(solution.stats.get("nodes", 0)),
                    float(solution.stats.get("gap", 0.0))]]
    return {
        "allocation": (list(ALLOCATION_HEADER), rows),
        "allocation_summary": (list(ALLOCATION_SUMMARY_HEADER), summary),
    }


def cdf_table(records: ChannelRecords) -> Table:
    """The bandwidth CDF as a table; empty when there are no users."""
    rows = [[bw, frac] for bw, frac in bandwidth_cdf(records)] \
        if records.positions_m else []
    return (list(CDF_HEADER), rows)


# ---------------------------------------------------------------------
# stage runners
# ---------------------------------------------------------------------

def channel_bundle(cfg: Dict) -> ResultBundle:
    """Trace the receiver grid and tabulate per-location channel quality."""
    room = room_from_config(cfg)
    receiver = receiver_from_config(cfg)
    records = compute_channel_records(room, receiver, grid_positions(room))
    return ResultBundle(
        tables={"channel": channel_table(records),
                "bandwidth_cdf": cdf_table(records)},
        manifest=build_manifest(cfg, stage="channel"),
    )


def allocate_scenario(cfg: Dict, time_limit_s: Optional[float] = None
                      ) -> Tuple[Scenario, ChannelRecords,
                                 Optional[AllocationSolution]]:
    """Scenario positions → channel records → solved WDMA assignment.

    Before any position is drawn, the user count must fit the slots; then
    each user must get, from a lone ``topology.mobile_rates_mbps`` list, a
    rate (stand-in colours build that layer).  Both hold before any link is
    traced.  Returns no solution for an empty scenario.  Infeasibility is
    re-raised with the stage recorded in the report.
    """
    room = room_from_config(cfg)
    receiver = receiver_from_config(cfg)
    n_users = _user_count(cfg, room)
    try:
        check_slot_count(n_users, len(room.aps) * len(WAVELENGTHS))
        if n_users:
            topology_from_config(cfg, ["red"] * n_users)
        scenario = scenario_from_config(cfg, room)
        records = compute_channel_records(room, receiver, scenario.positions_m)
        if scenario.n_users == 0:
            return scenario, records, None
        problem = AllocationProblem.from_table(
            ChannelTable.from_records(records), receiver)
        solution = solve_branch_and_bound(problem, time_limit_s=time_limit_s)
    except InfeasibleError as exc:
        raise InfeasibleError(str(exc),
                              report={"stage": "allocate", **exc.report})
    return scenario, records, solution


def allocation_bundle(cfg: Dict, time_limit_s: Optional[float] = None
                      ) -> ResultBundle:
    scenario, records, solution = allocate_scenario(cfg, time_limit_s)
    return ResultBundle(
        tables={"channel": channel_table(records),
                **allocation_tables(solution)},
        manifest=build_manifest(cfg, scenario, stage="allocate"),
    )


def topology_from_config(cfg: Dict,
                         wavelengths: Optional[Sequence[str]] = None,
                         rates_mbps: Optional[Sequence[float]] = None
                         ) -> TopologyConfig:
    """Reference topology around a mobile layer, with the config's mobile
    overrides applied.

    ``wavelengths`` and ``rates_mbps`` are a solved layer, one entry per user
    (``chain`` passes its allocation; ``place`` and ``sweep`` pass none).  A
    ``topology.mobile_wavelengths`` override replaces that layer entirely,
    rates included; a ``topology.mobile_rates_mbps`` override alone replaces
    its rates, so it must give one per entry.
    """
    topo_cfg = cfg["topology"]
    if topo_cfg["mobile_wavelengths"] is not None:
        wavelengths, rates_mbps = topo_cfg["mobile_wavelengths"], None
    if topo_cfg["mobile_rates_mbps"] is not None:
        rates_mbps = topo_cfg["mobile_rates_mbps"]
    return build_reference_topology(mobile_wavelengths=wavelengths,
                                    mobile_rates_mbps=rates_mbps)


def placement_cell(cfg: Dict) -> Dict[str, object]:
    """The placement cell ``place`` and ``chain`` solve, as the manifest
    records it: the first entries of the sweep axes and the task count."""
    sweep_cfg = cfg["sweep"]
    return {"drr": sweep_cfg["drr"][0],
            "workload_mips": sweep_cfg["workload_mips"][0],
            "tasks": sweep_cfg["tasks"]}


def placement_cell_tables(topology: TopologyConfig, drr: float,
                          workload_mips: float, tasks: int,
                          time_limit_s: Optional[float] = None
                          ) -> Dict[str, Table]:
    """Solve one (DRR, workload) cell; returns placement + utilization tables."""
    sources = [m.node_id for m in topology.mobiles()]
    demands = demands_from_drr(workload_mips, drr, tasks, sources)
    try:
        sol = solve_placement(PlacementProblem(topology, demands),
                              time_limit_s=time_limit_s)
    except InfeasibleError as exc:
        raise InfeasibleError(str(exc),
                              report={"stage": "place", **exc.report})
    util_rows = [[m.node_id, m.wavelength,
                  sol.workload_mips[m.node_id] / m.capacity_mips]
                 for m in topology.mobiles()]
    return {
        "placement": placement_table([(drr, workload_mips, sol)], topology),
        "utilization": (list(UTILIZATION_HEADER), util_rows),
    }


def chain_scenario(cfg: Dict, time_limit_s: Optional[float] = None
                   ) -> ResultBundle:
    """Run the whole pipeline on one scenario and one placement cell.

    Channel metrics are traced at the scenario's user positions, the WDMA
    assignment is solved, the solved rates cap the mobile routes of the fog
    topology, and the placement model runs at the config's
    :func:`placement_cell`.  An empty scenario yields a bundle of empty
    tables.
    """
    scenario, records, solution = allocate_scenario(cfg, time_limit_s)
    tables = {"channel": channel_table(records),
              "bandwidth_cdf": cdf_table(records),
              **allocation_tables(solution)}
    if solution is None:
        tables["placement"] = (list(PLACEMENT_BASE_HEADER), [])
        tables["utilization"] = (list(UTILIZATION_HEADER), [])
        return ResultBundle(tables=tables,
                            manifest=build_manifest(cfg, scenario,
                                                    stage="chain"))

    # mobile unit i is user i, on its assigned wavelength, its route capped
    # by its solved downlink rate
    users = sorted(solution.assignment)
    rates = [solution.rate_bps[u] for u in users]
    topology = topology_from_config(
        cfg, [solution.assignment[u][1] for u in users],
        [rate / 1e6 for rate in rates])
    cell = placement_cell(cfg)
    tables.update(placement_cell_tables(topology, **cell,
                                        time_limit_s=time_limit_s))
    manifest = build_manifest(
        cfg, scenario, stage="chain", placement=cell,
        rate_range_gbps=[min(rates) / 1e9, max(rates) / 1e9],
    )
    return ResultBundle(tables=tables, manifest=manifest)
