"""Self-checks of the benchmark on its reduced inputs (a few seconds each).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import REFERENCE, WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_by_name_with_unit(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = _run("--workload", "all", "--small", "--seconds", "0",
                "--trace", str(trace))
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        for metric in declared:
            got = result["metrics"][f"{workload}/{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    printed = proc.stdout
    for metric in declared:
        assert f"  {metric['name']} " in printed
    assert "error_rate" in printed


def test_end_to_end_metrics_are_never_zero():
    result = _result(_run("--workload", "placement-sweep", "--small",
                          "--seconds", "0", "--trace", "0"))
    assert set(result["metrics"]) == {"setup_s", "pass_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_first_float(path: Path, column: str) -> None:
    lines = gzip.decompress(path.read_bytes()).decode().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    i = header.index(column)
    row[i] = repr(float(row[i]) * (1 + 1e-6))
    lines[1] = ",".join(row)
    path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))


def test_corrupted_reference_counts_in_error_rate(tmp_path, capsys):
    key = "small-placement-sweep"
    shutil.copytree(REFERENCE / key, tmp_path / key)
    _corrupt_first_float(tmp_path / key / "placement.csv.gz", "total_power_w")
    run.WORK.mkdir(exist_ok=True)
    result = run.run_workload("placement-sweep", 0, 0.0, False, True, tmp_path)
    out, err = capsys.readouterr()
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert "total_power_w" in err
    assert f"{result['failed']} of {result['attempted']} invocations failed" in out


def test_check_tolerates_rounding_but_not_decisions(tmp_path):
    ref = tmp_path / "ref"
    shutil.copytree(REFERENCE / "small-placement-sweep", ref)
    out = tmp_path / "out"
    out.mkdir()
    text = gzip.decompress((ref / "placement.csv.gz").read_bytes()).decode()
    header, first, *rest = text.splitlines()
    cols = header.split(",")
    row = first.split(",")

    def write(cells):
        (out / "placement.csv").write_text(
            "\n".join([header, ",".join(cells), *rest]) + "\n")

    assert check.compare(0, out, ref) == (["tables [], expected ['placement']"], False)
    write(row)
    assert check.compare(0, out, ref) == ([], True)
    assert check.compare(1, out, ref)[0] == ["exit code 1, expected 0"]

    nudged = list(row)
    i = cols.index("total_power_w")
    nudged[i] = repr(float(row[i]) * (1 + 1e-12))
    write(nudged)
    assert check.compare(0, out, ref) == ([], False)

    mips = next(c for c in cols
                if c.startswith("mips_") and float(row[cols.index(c)]) != 0.0)
    for column, value in (("status", "infeasible"), (mips, None)):
        changed = list(row)
        j = cols.index(column)
        changed[j] = value if value is not None else repr(float(row[j]) * (1 + 1e-12))
        write(changed)
        problems, identical = check.compare(0, out, ref)
        assert problems and column in problems[0] and not identical


def _channel_spans(tmp_path, targets):
    from owcfog import cli

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, targets)
    try:
        code = cli.main(["channel", "--override", "room.grid_nx=2",
                         "--override", "room.grid_ny=2",
                         "--out", str(tmp_path / "out")])
    finally:
        uninstall()
    assert code == 0
    return [s[0] for s in tracer.spans]


def test_all_wrappers_cover_the_channel_workload(tmp_path):
    tracing.check_coverage("channel-grid", _channel_spans(tmp_path, tracing.TARGETS))


def test_removing_one_wrapper_trips_span_coverage(tmp_path):
    targets = dict(tracing.TARGETS)
    del targets["channel.bandwidth_3db"]
    with pytest.raises(tracing.SpanCoverageError, match="channel.bandwidth_3db"):
        tracing.check_coverage("channel-grid", _channel_spans(tmp_path, targets))


def test_wrappers_reach_every_binding_and_come_off():
    from owcfog import cli, placement, scenarios

    original = placement.solve_branch_and_bound
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert scenarios.solve_placement is placement.solve_branch_and_bound
        assert placement.solve_branch_and_bound.__wrapped__ is original
        assert cli.run_sweep is placement.sweep
        assert hasattr(cli.run_sweep, "__wrapped__")
    finally:
        uninstall()
    assert placement.solve_branch_and_bound is original
    assert scenarios.solve_placement is original


def test_fft_inputs_count_distinct_objects_not_runs():
    tracer = tracing.Tracer()
    fft = tracer.wrap("channel.bandwidth_3db", lambda ir: 0.0)
    first, second = object(), object()
    for ir in (first, second, first, first):
        fft(ir)
    assert (tracer.fft_calls, tracer.fft_distinct) == (4, 2)


def test_a_declared_metric_that_is_not_computed_fails_loudly(monkeypatch):
    monkeypatch.setitem(run.END_TO_END_UNITS, "no_such_metric", "s")
    run.WORK.mkdir(exist_ok=True)
    with pytest.raises(RuntimeError, match="no_such_metric"):
        run.run_workload("placement-sweep", 0, 0.0, False, True, REFERENCE)


def test_self_times_subtract_direct_children():
    spans = [("outer", 0.0, 10.0, -1, 0), ("inner", 1.0, 4.0, 0, 0),
             ("leaf", 2.0, 3.0, 1, 0), ("inner", 5.0, 6.0, 0, 0)]
    assert tracing.self_times(spans) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_fails_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "placement-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
