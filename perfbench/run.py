"""End-to-end benchmark of the owcfog CLI: channel -> allocate -> place.

Run from the repository root::

    python3 perfbench/run.py --workload chain-analogue --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Load model: a closed loop with one client.  A pass runs each operation of the
workload (one ``owcfog`` CLI invocation) in a fresh interpreter, one at a
time, because a CLI user pays import and any lazily built cache on every
invocation.  Passes repeat until ``--seconds`` have elapsed (at least one).
Every output is checked against the stored reference (see ``check.py``); an
invocation that exits non-zero or fails the check counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over the run).
``--trace 1`` runs one untraced and one traced pass and reports per-layer
metrics from spans recorded around each module's public functions (see
``tracing.py``); the spans are written to ``.perfbench/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from check import compare
from tracing import REQUIRED, check_coverage, self_times
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS, Op, operations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

#: Interpreter starts timed on their own in each run, besides the passes.
SETUP_SAMPLES = 5
#: Children still running this long after the run started are killed, so a
#: run ends inside the 180 s a caller may allow it.
RUN_LIMIT_S = 170.0

#: Metric names and units, as declared in BENCHMARK.json.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Runner:
    """Spawns child interpreters for one benchmark run and checks outputs."""

    def __init__(self, workdir: Path, reference: Path):
        self.workdir = workdir
        self.reference = reference
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def spawn(self, mode: str, op: Optional[Op] = None, op_id: int = 0) -> Dict:
        """Run ``child.py`` once; return its result with ``setup_s`` added."""
        self.count += 1
        result_path = self.workdir / f"result{self.count}.json"
        out_dir = self.workdir / f"out{self.count}"
        argv = [sys.executable, str(BENCH / "child.py"), str(result_path), mode]
        if op is not None:
            argv += [str(op_id), "--", *op.argv, "--out", str(out_dir)]
        err_path = self.workdir / f"stderr{self.count}.txt"
        spawned = time.monotonic()
        with open(err_path, "w") as err:
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - spawned))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:      # timed out or interrupted
                    proc.kill()
                    proc.wait()
        if code == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
            result["setup_s"] = result["ready"] - spawned
        else:
            tail = err_path.read_text()[-2000:]
            reason = "timed out" if code is None else f"exited {code}"
            result = {"crash": f"child {reason}: {tail}"}
        result["wall_s"] = time.monotonic() - spawned
        result["out_dir"] = out_dir
        return result

    def operation(self, op: Op, op_id: int, mode: str) -> Dict:
        """One CLI invocation, with its output checked and then removed."""
        result = self.spawn(mode, op, op_id)
        self.attempted += 1
        out_dir = result.pop("out_dir")
        if "crash" in result:
            problems = [result["crash"]]
        else:
            problems, result["identical"] = compare(result["exit"], out_dir,
                                                    self.reference / op.key)
            result["bytes"] = sum(p.stat().st_size for p in out_dir.glob("*")
                                  if p.is_file())
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"operation {op.key} failed: " + "; ".join(problems),
                  file=sys.stderr)
        result["ok"] = not problems
        return result

    def run_pass(self, ops: List[Op], mode: str) -> List[Dict]:
        return [self.operation(op, i, mode) for i, op in enumerate(ops)]

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


def pass_seconds(results: List[Dict]) -> float:
    # A crashed invocation has no in-process time; its wall time stands in.
    return sum(r.get("pass_s", r["wall_s"]) for r in results)


def end_to_end(runner: Runner, ops: List[Op], seconds: float):
    """Set-up samples plus passes until ``seconds`` elapse; return metrics."""
    setups = [runner.spawn("setup") for _ in range(SETUP_SAMPLES)]
    passes: List[List[Dict]] = []
    start = time.monotonic()
    while not passes or (time.monotonic() - start < seconds
                         and not runner.expired()):
        passes.append(runner.run_pass(ops, "run"))
    setup_samples = [r["setup_s"] for r in setups + sum(passes, [])
                     if "setup_s" in r]
    times = [pass_seconds(p) for p in passes]
    rss = [max(r.get("maxrss_mb", 0.0) for r in p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
        "pass_s": statistics.median(times),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} interpreter starts",
        "pass_s": f"median of {len(times)} passes of {len(ops)} invocations",
        "peak_rss_mb": "median over passes of the largest process",
    }
    return metrics, notes


def _spans_by_name(results: List[Dict]):
    by_name: Dict[str, List] = {}
    for r in results:
        for span in r.get("spans", []):
            by_name.setdefault(span[0], []).append(span)
    return by_name


def layer_metrics(ops: List[Op], untraced: List[Dict], traced: List[Dict],
                  probe: Optional[Dict]) -> Dict[str, float]:
    """Per-layer figures from one traced pass (plus the channel probe)."""
    spans = _spans_by_name(traced)

    def total(name: str) -> float:
        return sum(end - start for _, start, end, _, _ in spans.get(name, []))

    def calls(name: str) -> int:
        return len(spans.get(name, []))

    selfs: Dict[str, float] = {}
    for r in traced:
        for name, value in self_times(r.get("spans", [])).items():
            selfs[name] = selfs.get(name, 0.0) + value

    # Every metric is set below, zero where the workload does not reach the
    # layer; run_workload refuses a declared name that is missing here.
    trace_s, trace_n = total("channel.trace"), calls("channel.trace")
    fft_calls = sum(r.get("fft_calls", 0) for r in traced)
    fft_distinct = sum(r.get("fft_distinct", 0) for r in traced)
    m: Dict[str, float] = {
        "channel.trace_s": trace_s,
        "channel.trace_calls": trace_n,
        "channel.trace_ms_per_link": 1e3 * trace_s / trace_n if trace_n else 0.0,
        "channel.bandwidth_3db_s": total("channel.bandwidth_3db"),
        "channel.bandwidth_3db_calls": calls("channel.bandwidth_3db"),
        "channel.fft_useful_ratio": fft_distinct / fft_calls if fft_calls else 0.0,
        "channel.delay_spread_s": total("channel.delay_spread"),
        "channel.records_self_s": selfs.get("channel.records", 0.0),
        "signal_model.table_s": total("signal_model.table"),
        "allocator.problem_s": total("allocator.problem"),
        "allocator.solve_s": total("allocator.solve"),
        "topology.build_s": total("topology.build"),
        "placement.sweep_self_s": selfs.get("placement.sweep", 0.0),
        "scenarios.bundle_write_s": total("scenarios.bundle_write"),
        "scenarios.bundle_bytes": sum(r.get("bytes", 0) for r in traced),
        "scenarios.bundle_byte_identical":
            sum(r.get("identical", False) for r in traced) / len(traced),
        "scenarios.cdf_s": total("scenarios.cdf"),
        "config.load_s": total("config.load"),
        "process.cpu_s": sum(r.get("cpu_s", 0.0) for r in traced),
        "trace.overhead_ratio": pass_seconds(traced) / pass_seconds(untraced),
    }

    elements = probe["elements"] if probe else 0
    o0, o1, o2 = probe["order_ms"] if probe else (0.0, 0.0, 0.0)
    m.update({
        "channel.elements": elements,
        "channel.order0_ms": o0,
        "channel.order1_ms": o1 - o0,
        "channel.order2_ms": o2 - o1,
        "channel.order2_pairs_per_s":
            elements ** 2 / ((o2 - o1) / 1e3) if o2 > o1 else 0.0,
    })

    by_label = {op.label: r for op, r in zip(ops, traced)}
    for label in ("s1", "s2"):          # the two chain-analogue scenarios
        r = by_label.get(label, {})
        solves = r.get("solver_stats", {}).get("allocator.solve")
        st = solves[0] if solves else {}
        nodes, leaves = st.get("nodes", 0), st.get("leaves", 0)
        solve_s = sum(end - start for name, start, end, _, _ in r.get("spans", [])
                      if name == "allocator.solve")
        m.update({
            f"allocator.nodes.{label}": nodes,
            f"allocator.leaves.{label}": leaves,
            f"allocator.bound_prunes.{label}": st.get("bound_prunes", 0),
            f"allocator.leaf_fraction.{label}": leaves / nodes if nodes else 0.0,
            f"allocator.nodes_per_s.{label}": nodes / solve_s if solve_s else 0.0,
            f"allocator.gap.{label}": st.get("gap", 0.0),
            f"allocator.complete.{label}": int(st.get("complete", False)),
        })

    place = [s for r in traced for s in r.get("solver_stats", {}).get("placement.solve", [])]
    durations = sorted(end - start for _, start, end, _, _ in spans.get("placement.solve", []))
    nodes = sum(s["nodes"] for s in place)
    prunes = sum(s["bound_prunes"] for s in place)
    solve_s = sum(durations)
    if len(durations) > 1:
        p50 = statistics.median(durations)
        p90 = statistics.quantiles(durations, n=10, method="inclusive")[8]
    else:
        p50 = p90 = solve_s
    m.update({
        "placement.solve_s": solve_s,
        "placement.solve_calls": len(durations),
        "placement.solve_ms_p50": 1e3 * p50,
        "placement.solve_ms_p90": 1e3 * p90,
        "placement.nodes": nodes,
        "placement.leaves": sum(s["leaves"] for s in place),
        "placement.bound_prunes": prunes,
        "placement.prune_ratio": prunes / nodes if nodes else 0.0,
        "placement.nodes_per_s": nodes / solve_s if solve_s else 0.0,
    })
    return m


def traced_run(runner: Runner, workload: str, seed: int, ops: List[Op]):
    """One untraced and one traced pass, the channel probe, and the spans."""
    untraced = runner.run_pass(ops, "run")
    traced = runner.run_pass(ops, "trace")
    probe = None
    if "channel.trace" in REQUIRED[workload]:
        probe = runner.spawn("probe", ops[0])
        probe.pop("out_dir")
        if "crash" in probe:
            raise RuntimeError(f"channel probe failed: {probe['crash']}")
    spans = [s for r in traced for s in r.get("spans", [])]
    if all(r["ok"] for r in traced):
        check_coverage(workload, (s[0] for s in spans))
    trace_file = WORK / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "ops": [op.key for op in ops], "spans": spans}))
    metrics = layer_metrics(ops, untraced, traced, probe)
    return metrics, trace_file


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool, reference: Path):
    """Run one workload; print its table; return the result object."""
    ops, why = operations(workload, seed, small, reference)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    runner = Runner(workdir, reference)
    try:
        print(f"{workload} seed={seed}: {why}")
        print("  operations: " + ", ".join(f"{op.label}={op.key}" for op in ops))
        if trace:
            metrics, trace_file = traced_run(runner, workload, seed, ops)
            units, notes = LAYER_UNITS, {}
            print(f"  spans written to {trace_file.relative_to(ROOT)}")
        else:
            metrics, notes = end_to_end(runner, ops, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [name for name in units if name not in metrics]
    if missing:
        raise RuntimeError("BENCHMARK.json names metrics the benchmark does "
                           "not compute: " + ", ".join(missing))
    for name, unit in units.items():
        print(f"  {name:34s} {_format(metrics[name]):>14s} {unit:6s} "
              f"{notes.get(name, '')}")
    rate = runner.failed / runner.attempted
    print(f"  {'error_rate':34s} {_format(rate):>14s} {'ratio':6s} "
          f"{runner.failed} of {runner.attempted} invocations failed")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {DEFAULT_SEED} gives the pinned inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs that finish in seconds (self-check)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "owcfog" / "cli.py").is_file():
        print(f"no owcfog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace), args.small,
                                             REFERENCE)
    except RuntimeError as exc:   # span coverage, channel probe, metric names
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
