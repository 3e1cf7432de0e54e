"""Regenerate the reference outputs the benchmark checks against.

Run once, from the repository root, on the commit whose outputs are the
reference::

    python3 perfbench/make_reference.py

It writes, under ``perfbench/reference/``:

* one directory per operation (``meta.json`` plus the gzipped CSVs) for the
  pinned inputs and the reduced self-check inputs;
* ``chain_pairs.json``: the 8-user PPP draws that ``chain-analogue`` uses on
  a non-default seed, and one directory per draw.

Choosing the draws: every PPP seed below ``SURVEY_SEEDS`` (other than the
two pinned analogue seeds) whose draw has exactly eight users is run through
``chain`` once.  Branch and bound is about 85% of such a run, so its node
count is the measure of work; unlike a wall time it repeats exactly.  A pair
of draws is kept when their node counts sum to within ``TOLERANCE`` of
s1-analogue + s2-analogue (219,670 + 645,873 at the reference commit).
Allocator work differs more than tenfold between 8-user draws, so a pair
picked at random would make ``pass_s`` measure the draw instead of the code;
matched pairs keep the work of a pass the same while the geometry and the
search tree change with the seed.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

from workloads import PINNED, REFERENCE, SMALL, Op, fixed_chain

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 0.05
#: PPP seeds below this are surveyed for 8-user draws.
SURVEY_SEEDS = 200
#: Allocator time limit for a surveyed draw; a draw that hits it cannot pair.
SURVEY_LIMIT_S = 60.0
MAX_PAIRS = 12


def run_cli(op: Op, time_limit=None):
    """Run one operation; return (exit code, wall seconds, output dir).

    With a time limit (a surveyed draw) the CLI's diagnostics are dropped.
    """
    out = Path(tempfile.mkdtemp(prefix="ref-", dir=ROOT / ".perfbench"))
    argv = [sys.executable, "-m", "owcfog.cli", *op.argv, "--out", str(out)]
    if time_limit is not None:
        argv += ["--time-limit", str(time_limit)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    err = None if time_limit is None else subprocess.DEVNULL
    code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=err).returncode
    return code, time.perf_counter() - start, out


def write_reference(op: Op, code: int, out: Path) -> None:
    dest = REFERENCE / op.key
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for csv_path in sorted(out.glob("*.csv")):
        # mtime=0 keeps the archive bytes a function of the CSV alone
        data = gzip.compress(csv_path.read_bytes(), compresslevel=9, mtime=0)
        (dest / (csv_path.name + ".gz")).write_bytes(data)
    meta = {"argv": list(op.argv), "exit": code}
    (dest / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")


def reference_op(op: Op) -> Path:
    code, seconds, out = run_cli(op)
    write_reference(op, code, out)
    shutil.rmtree(out)
    print(f"{op.key}: exit {code}, {seconds:.2f} s", flush=True)
    return REFERENCE / op.key


def node_count(ref_dir: Path) -> int:
    summary = gzip.decompress((ref_dir / "allocation_summary.csv.gz").read_bytes())
    return int(summary.decode().splitlines()[1].split(",")[1])


def eight_user_draws():
    sys.path.insert(0, str(ROOT / "src"))
    from owcfog.config import load_config, room_from_config
    from owcfog.scenarios import ANALOGUE_SEEDS, generate_ppp_users

    cfg = load_config()
    room = room_from_config(cfg)
    intensity = cfg["scenario"]["intensity_per_m2"]
    for seed in range(1, SURVEY_SEEDS):
        draw = generate_ppp_users(room, intensity, seed)
        if draw.n_users == 8 and seed not in ANALOGUE_SEEDS.values():
            yield seed, [list(p) for p in draw.positions_m]


def survey():
    """Run ``chain`` on each 8-user draw; keep the ones solved to optimality."""
    draws = {}
    for seed, positions in eight_user_draws():
        op = fixed_chain(f"chain-ppp-{seed}", "draw", positions)
        code, seconds, out = run_cli(op, time_limit=SURVEY_LIMIT_S)
        summary = out / "allocation_summary.csv"
        row = summary.read_text().splitlines()[1].split(",") if code == 0 else None
        if row is None or float(row[2]) != 0.0:   # failed, or stopped with a gap
            shutil.rmtree(out)
            print(f"ppp-{seed}: exit {code}, not solved to optimality", flush=True)
            continue
        write_reference(op, code, out)
        shutil.rmtree(out)
        print(f"ppp-{seed}: {row[1]} nodes, {seconds:.2f} s", flush=True)
        draws[seed] = {"positions_m": positions, "nodes": int(row[1]),
                       "chain_s": round(seconds, 2)}
    return draws


def matched_pairs(draws, target_nodes: int):
    scored = []
    for a, b in combinations(sorted(draws), 2):
        na, nb = draws[a]["nodes"], draws[b]["nodes"]
        miss = abs(na + nb - target_nodes) / target_nodes
        if miss <= TOLERANCE:
            scored.append((miss, [a, b] if na <= nb else [b, a]))
    scored.sort()
    pairs, used = [], set()
    for _, pair in scored:          # first the closest pairs that share no draw
        if not used.intersection(pair):
            pairs.append(pair)
            used.update(pair)
    pairs += [pair for _, pair in scored if pair not in pairs]
    return pairs[:MAX_PAIRS]


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    for ops in SMALL.values():
        for op in ops:
            reference_op(op)
    for workload in ("channel-grid", "placement-sweep"):
        reference_op(PINNED[workload][0])
    target = sum(node_count(reference_op(op)) for op in PINNED["chain-analogue"])

    draws = survey()
    pairs = matched_pairs(draws, target)
    if not pairs:
        print("no matched pair of draws; raise SURVEY_SEEDS", file=sys.stderr)
        return 1
    used = sorted({s for pair in pairs for s in pair})
    for seed in set(draws) - set(used):
        shutil.rmtree(REFERENCE / f"chain-ppp-{seed}")
    table = {
        "criterion": "two 8-user PPP draws whose allocator node counts sum "
                     "to within tolerance of s1-analogue + s2-analogue",
        "tolerance": TOLERANCE,
        "reference_nodes": target,
        "survey_seeds": SURVEY_SEEDS,
        "pairs": pairs,
        "draws": {str(s): draws[s] for s in used},
        "surveyed": {str(s): {k: d[k] for k in ("nodes", "chain_s")}
                     for s, d in sorted(draws.items())},
    }
    (REFERENCE / "chain_pairs.json").write_text(json.dumps(table, indent=1) + "\n")
    print(f"{len(pairs)} pairs from {len(draws)} solved draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
