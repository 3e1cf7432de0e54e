"""The benchmark's workloads: which CLI invocations make up one pass.

Every workload is a list of operations; an operation is one ``owcfog``
invocation (its CLI arguments minus ``--out``) and the reference bundle its
output is checked against.  A pass runs each operation once, each in a fresh
interpreter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

REFERENCE = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("chain-analogue", "channel-grid", "placement-sweep")

#: Seed that selects the pinned inputs of ``chain-analogue``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    label: str          # role in the workload; names per-scenario metrics
    key: str            # reference bundle directory under reference/
    argv: Tuple[str, ...]


def fixed_chain(key: str, label: str, positions) -> Op:
    """``chain`` on explicit user coordinates, default placement cell."""
    return Op(label, key, (
        "chain", "--override", "scenario.mode=fixed",
        "--override", f"scenario.name={key}",
        "--override", "scenario.positions_m=" + json.dumps(positions)))


PINNED: Dict[str, List[Op]] = {
    "chain-analogue": [
        Op("s1", "chain-s1-analogue",
           ("chain", "--override", "scenario.name=s1-analogue")),
        Op("s2", "chain-s2-analogue",
           ("chain", "--override", "scenario.name=s2-analogue")),
    ],
    "channel-grid": [Op("grid", "channel-grid", ("channel",))],
    "placement-sweep": [Op("sweep", "placement-sweep", ("sweep",))],
}

#: Reduced inputs for the benchmark's own tests: two 3-user chains, a 2x2
#: receiver grid and a 2x2 (DRR, workload) sweep.  Each finishes in seconds.
SMALL: Dict[str, List[Op]] = {
    "chain-analogue": [
        fixed_chain("small-chain-s1", "s1", [[1.0, 1.0], [4.0, 2.0], [7.0, 3.0]]),
        fixed_chain("small-chain-s2", "s2", [[2.0, 3.0], [5.0, 1.0], [6.5, 2.5]]),
    ],
    "channel-grid": [Op("grid", "small-channel-grid", (
        "channel", "--override", "room.grid_nx=2",
        "--override", "room.grid_ny=2"))],
    "placement-sweep": [Op("sweep", "small-placement-sweep", (
        "sweep", "--override", "drr=[0.002,0.2]",
        "--override", "workload=[100,1000]"))],
}


def operations(workload: str, seed: int, small: bool = False,
               reference: Path = REFERENCE) -> Tuple[List[Op], str]:
    """Operations of one pass, and a line saying how the seed chose them."""
    if small:
        return SMALL[workload], "reduced self-check inputs; seed ignored"
    if workload != "chain-analogue":
        return PINNED[workload], "inputs are fixed; seed ignored"
    if seed == DEFAULT_SEED:
        return PINNED[workload], "pinned s1-analogue and s2-analogue draws"
    table = json.loads((reference / "chain_pairs.json").read_text())
    first, second = table["pairs"][(seed - 1) % len(table["pairs"])]
    ops = [fixed_chain(f"chain-ppp-{s}", label, table["draws"][str(s)]["positions_m"])
           for s, label in ((first, "s1"), (second, "s2"))]
    why = (f"8-user PPP draws {first} and {second}: their allocator node counts "
           f"sum to within {table['tolerance']:.0%} of s1-analogue + "
           f"s2-analogue's {table['reference_nodes']:,}, so a pass does the "
           f"same search work")
    return ops, why
