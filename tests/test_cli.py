"""CLI exit codes, artifacts, figure projections, and determinism."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from owcfog.cli import main


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------

def test_validate_defaults_ok(capsys):
    code, out, _ = _run(["validate"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = _run(["bogus"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "usage"


def test_bad_override_is_config_error(capsys):
    code, _, err = _run(["place", "--override", "nope=1"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "config"


def test_infeasible_model_exits_two(tmp_path, capsys):
    code, _, err = _run(
        ["place", "--out", str(tmp_path), "--override", "workload=90000",
         "--override", "tasks=4"], capsys)
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "infeasible"
    assert record["report"]["stage"] == "place"
    assert "constraint" in record["report"]


def test_infeasible_run_writes_one_stderr_line(tmp_path):
    # a workload far outside the paper's 100..1500 MIPS range is refused by
    # the solver alone: stderr holds the JSON diagnostic and nothing else
    proc = subprocess.run(
        [sys.executable, "-m", "owcfog.cli", "place", "--out", str(tmp_path),
         "--override", "workload=[1e300]"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "infeasible"


@pytest.mark.skipif(shutil.which("taskset") is None,
                    reason="the script pins one run to a CPU with taskset")
def test_ci_console_script_passes(tmp_path):
    # the workflow's console-script step, run the way the workflow runs it,
    # with a shim standing in for the installed entry point
    shim = tmp_path / "bin" / "owcfog"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m owcfog.cli "$@"\n')
    shim.chmod(0o755)
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    script = Path(__file__).resolve().parents[1] / "ci" / "console-script.sh"
    env = {**_child_env(), "RUNNER_TEMP": str(runner_temp),
           "PATH": os.pathsep.join([str(shim.parent), os.environ["PATH"]])}
    proc = subprocess.run(["bash", "-eo", "pipefail", str(script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (runner_temp / "chain" / "manifest").is_file()


@pytest.mark.parametrize("command,override", [
    ("validate", 'room.reflectivity={"walls":1.5,"ceiling":0.8,"floor":0.3}'),
    ("validate", "room.ap_half_power_semiangle_deg=95"),
    ("channel", 'room.reflectivity={"walls":"x","ceiling":0.8,"floor":0.3}'),
    # JSON parses Infinity; the stages would fail on it or print it bare
    ("validate", "room.length_m=Infinity"),
    ("validate", "scenario.intensity_per_m2=Infinity"),
    ("chain", "scenario.intensity_per_m2=Infinity"),
    # numpy cannot draw a Poisson count with a mean past about 9.2e18
    ("validate", "scenario.intensity_per_m2=1e300"),
    ("allocate", "scenario.intensity_per_m2=1e300"),
    ("chain", "scenario.intensity_per_m2=1e300"),
    ("place", "workload=Infinity"),
    ("validate", "room.length_m=NaN"),
    pytest.param("validate", "room.width_m=1" + "0" * 400,
                 id="validate-room.width_m=1e400-as-an-integer"),
    # every task is sourced at a mobile unit, so none could be placed
    ("validate", "topology.mobile_wavelengths=[]"),
    ("place", "topology.mobile_wavelengths=[]"),
    ("sweep", "topology.mobile_wavelengths=[]"),
    ("chain", "topology.mobile_wavelengths=[]"),
    # stages that never build the topology refuse an unknown colour too
    ("channel", 'topology.mobile_wavelengths=["uv"]'),
    ("allocate", 'topology.mobile_wavelengths=["uv"]'),
    # x = 100 m lies outside the default 8 m x 4 m room
    pytest.param("validate",
                 ["scenario.mode=fixed", "scenario.positions_m=[[100,1]]"],
                 id="validate-fixed-scenario.positions_m=[[100,1]]"),
    # a PPP draw would drop the given point without saying so
    ("allocate", "scenario.positions_m=[[1,1]]"),
])
def test_config_a_stage_rejects_fails_at_load(command, override, tmp_path,
                                              capsys):
    overrides = [override] if isinstance(override, str) else override
    code, out, err = _run([command, "--out", str(tmp_path / "out")]
                          + [a for o in overrides for a in ("--override", o)],
                          capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("command", ["channel", "allocate", "place", "sweep",
                                     "chain", "validate"])
def test_rates_must_match_wavelengths_at_load(command, tmp_path, capsys):
    code, out, err = _run([command, "--out", str(tmp_path / "out"),
                           "--override",
                           'topology.mobile_wavelengths=["red","blue"]',
                           "--override",
                           "topology.mobile_rates_mbps=[100,200,300]"],
                          capsys)
    assert code == 1
    assert out == ""
    assert "one rate per entry" in json.loads(err)["message"]
    assert not (tmp_path / "out").exists()


def test_overrides_complete_a_config_file(tmp_path, capsys):
    # the file alone lacks the fixed points; the one check sees both
    path = tmp_path / "fixed.json"
    path.write_text('{"scenario":{"mode":"fixed"}}')
    code, out, _ = _run(["validate", "--config", str(path),
                         "--override", "scenario.positions_m=[[1,1]]"], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["validate", "--seed", "3", "--override", "room.grid_nx=4"],
    ["place", "--override", "tasks=1"],
    ["sweep", "--override", "drr=0.2", "--override", "workload=[100,200]"],
])
def test_each_invocation_validates_once(argv, tmp_path, capsys, monkeypatch):
    from owcfog import config

    calls = []
    validate = config.validate_config

    def counted(cfg):
        calls.append(1)
        return validate(cfg)

    monkeypatch.setattr(config, "validate_config", counted)
    path = tmp_path / "run.json"
    path.write_text('{"scenario":{"seed":1}}')
    code, _, _ = _run(argv[:1] + ["--config", str(path),
                                  "--out", str(tmp_path / "out")] + argv[1:],
                      capsys)
    assert code == 0
    assert len(calls) == 1


_LONE_RATES = "topology.mobile_rates_mbps=[100,200,300]"


@pytest.mark.parametrize("command", ["validate", "place", "sweep"])
def test_lone_rates_size_the_mobile_layer(command, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, _ = _run([command, "--out", str(out_dir), "--override",
                       _LONE_RATES, "--override", "tasks=3", "--override",
                       "drr=0.2", "--override", "workload=[100,200]"], capsys)
    assert code == 0
    if command == "validate":
        return
    with open(out_dir / "placement.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert [c for c in header if c.startswith("util_")] == \
        ["util_mobile_0", "util_mobile_1", "util_mobile_2"]
    if command == "place":
        with open(out_dir / "utilization.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        # colours cycle over the units the rates give
        assert [r[:2] for r in rows] == [["mobile_0", "red"],
                                         ["mobile_1", "yellow"],
                                         ["mobile_2", "green"]]


def test_lone_rates_give_one_rate_per_solved_user_in_chain(tmp_path, capsys):
    # seed 0 draws 3 users, so the 3 rates replace their solved rates
    out_dir = tmp_path / "out"
    code, _, _ = _run(["chain", "--out", str(out_dir), "--seed", "0",
                       "--override", _LONE_RATES], capsys)
    assert code == 0
    with open(out_dir / "utilization.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3


@pytest.fixture
def trace_calls(monkeypatch):
    """Calls of ``channel.trace_impulse_response``, one entry each."""
    from owcfog import channel

    calls = []
    trace = channel.trace_impulse_response

    def counted(*args, **kwargs):
        calls.append(1)
        return trace(*args, **kwargs)

    monkeypatch.setattr(channel, "trace_impulse_response", counted)
    return calls


@pytest.mark.parametrize("command", ["allocate", "chain"])
def test_chain_refuses_wrong_rate_count_before_tracing(command, tmp_path,
                                                       capsys, trace_calls):
    # seed 0 draws 3 users: 2 rates cannot replace their solved rates, and
    # the draw says so before any of its 24 links is traced
    code, out, err = _run([command, "--out", str(tmp_path / "out"),
                           "--seed", "0", "--override",
                           "topology.mobile_rates_mbps=[100,200]"], capsys)
    assert code == 1
    assert out == ""
    assert "one rate per entry" in json.loads(err)["message"]
    assert len(trace_calls) == 0
    assert not (tmp_path / "out").exists()


@pytest.fixture
def uniform_draws(monkeypatch):
    """Sizes of the ``Generator.uniform`` draws of every generator made
    through ``numpy.random.default_rng``, one entry each."""
    import numpy as np

    sizes = []
    make = np.random.default_rng

    class Spied:
        def __init__(self, *args, **kwargs):
            self._rng = make(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def uniform(self, *args, **kwargs):
            sizes.append(kwargs.get("size"))
            return self._rng.uniform(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Spied)
    return sizes


@pytest.mark.parametrize("command", ["allocate", "chain"])
def test_more_users_than_slots_refused_before_tracing(command, tmp_path,
                                                      capsys, trace_calls,
                                                      uniform_draws):
    # seed 0 at 1.2 users per m^2 draws 41 users for 8 APs x 4 wavelengths;
    # the count alone refuses them, before any position is drawn
    code, out, err = _run([command, "--out", str(tmp_path / "out"),
                           "--seed", "0", "--override",
                           "scenario.intensity_per_m2=1.2"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        '{"error": "infeasible", "exit": 2, "message": "more users than '
        'AP-wavelength slots", "report": {"constraint": "slot_once", '
        '"slots": 32, "stage": "allocate", "users": 41}}\n')
    assert len(trace_calls) == 0
    assert uniform_draws == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["place", "sweep", "chain"])
def test_placement_deeper_than_the_recursion_limit_refused(command, tmp_path,
                                                           capsys):
    # the placement search recurses once per task, so 1,200 tasks cannot
    # be searched; the stage ends in one resource-limit line
    code, out, err = _run([command, "--out", str(tmp_path / "out"),
                           "--override", "tasks=1200",
                           "--override", "workload=[100]",
                           "--override", "drr=[0.002]"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error"] == "resource_limit"
    assert "1200 tasks" in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("under", [False, True],
                         ids=["out-is-a-file", "out-under-a-file"])
def test_unwritable_out_is_output_error(under, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under else blocker
    code, stdout, err = _run(["place", "--override", "tasks=1",
                              "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    record = json.loads(err)
    assert record["error"] == "output"
    assert record["exit"] == 1
    assert blocker.read_text() == "not a directory\n"


def test_negative_seed_rejected(capsys):
    code, _, err = _run(["place", "--seed", "-3"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("limit,code", [("nan", 1), ("-1", 1), ("inf", 1),
                                        ("abc", 1), ("0", 0)])
def test_time_limit_must_be_finite_and_non_negative(limit, code, tmp_path,
                                                     capsys):
    # a NaN deadline is never passed, so it would run with no budget at all
    out = tmp_path / "out"
    got, stdout, err = _run(["allocate", "--seed", "1", "--time-limit", limit,
                             "--out", str(out)], capsys)
    assert got == code
    if code:
        assert json.loads(err)["error"] == "usage"
        assert "--time-limit" in json.loads(err)["message"]
        assert stdout == "" and not out.exists()
    else:
        assert (out / "manifest").exists()


# ---------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------

def test_place_names_central_cloud_in_cheap_flow_regime(tmp_path, capsys):
    code, out, _ = _run(
        ["place", "--out", str(tmp_path), "--override", "drr=0.002",
         "--override", "workload=1000", "--override", "tasks=1"], capsys)
    assert code == 0
    paths = out.splitlines()
    assert str(tmp_path / "placement.csv") in paths
    with open(tmp_path / "placement.csv") as f:
        row = next(csv.DictReader(f))
    assert float(row["mips_ccloud"]) == 1000.0
    assert float(row["total_power_w"]) == pytest.approx(1.052, abs=1e-9)
    # the long-form utilization table is always written alongside
    with open(tmp_path / "utilization.csv") as f:
        util = list(csv.DictReader(f))
    assert [u["mobile_id"] for u in util] == [f"mobile_{i}" for i in range(8)]


def test_allocate_one_user(tmp_path, capsys):
    code, _, _ = _run(
        ["allocate", "--out", str(tmp_path),
         "--override", "scenario.mode=fixed",
         "--override", "scenario.positions_m=[[2.0,1.0]]"], capsys)
    assert code == 0
    with open(tmp_path / "allocation.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert float(rows[0]["sinr_db"]) >= 14.0
    with open(tmp_path / "allocation_summary.csv") as f:
        summary = next(csv.DictReader(f))
    assert set(summary) == {"objective", "node_count", "gap"}
    assert float(summary["gap"]) == 0.0


def test_out_directory_created(tmp_path, capsys):
    target = tmp_path / "deep" / "nested"
    code, _, _ = _run(
        ["place", "--out", str(target), "--override", "tasks=1"], capsys)
    assert code == 0
    assert (target / "manifest").exists()


def test_identical_invocations_identical_artifacts(tmp_path, capsys):
    argv = ["place", "--override", "drr=0.04", "--override", "workload=800",
            "--override", "tasks=3"]
    assert _run(argv + ["--out", str(tmp_path / "a")], capsys)[0] == 0
    assert _run(argv + ["--out", str(tmp_path / "b")], capsys)[0] == 0
    for name in ("placement.csv", "utilization.csv", "manifest"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


#: sha256 of the CSVs the README's CLI examples write. Left out:
#: ``allocation_summary.csv`` (it carries the solver's ``node_count``) and the
#: manifest (it carries library versions).
README_EXAMPLE_DIGESTS = {
    "place": (
        ["place", "--override", "drr=0.002", "--override", "workload=1000",
         "--override", "tasks=1"],
        {"placement.csv":
             "932c23289cc95325671dd4551ff151824c3407c15be5ea7c2c968bcf252cb862",
         "utilization.csv":
             "cfb8dd818fd0259543fa03b7d6cee1a5e6006cc9525774e7c57f4b549bd4eba0"}),
    "sweep": (
        ["sweep", "--fig", "7c"],
        {"placement.csv":
             "32d145c368ea008417cc98b5c8af6229935347f2959e832fd713fdaee28be817",
         "fig7c.csv":
             "2697ceb4b1268de628e7141d24d21388cb1a2ede6f82ce40cbb28fe70e1d6030"}),
    "chain": (
        ["chain", "--override", "scenario.seed=7"],
        {"channel.csv":
             "6bba27cef10c9f5f59390937711319ee401e6cca11e89ddb2e41127cf7280a98",
         "bandwidth_cdf.csv":
             "4e87af32a6333421c5a4c226ec6a321c7e971710c0882e2201d4df0a93b0c4fe",
         "allocation.csv":
             "96fa1263b7a5106b1152b62f5d3d314855626064cf20b7d8b298fd920cdc9c0d",
         "placement.csv":
             "7bfba2e6c7392783d7367dd39559e2da5e6fee40afe92b28d57944a1e131a5c1",
         "utilization.csv":
             "ea3dd38bb4327f9d4963eefa7fd471f8bbda66e900f60e3380dd88a582aa7cf6"}),
}


@pytest.mark.parametrize("example", [
    "place",
    "sweep",
    "chain",
])
def test_readme_example_bundle_pinned(example, tmp_path, capsys):
    argv, digests = README_EXAMPLE_DIGESTS[example]
    assert _run(argv + ["--out", str(tmp_path)], capsys)[0] == 0
    for name, digest in digests.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


def test_seed_flag_changes_scenario(tmp_path, capsys):
    base = ["allocate", "--override", "scenario.intensity_per_m2=0.05"]
    _run(base + ["--out", str(tmp_path / "a"), "--seed", "19"], capsys)
    _run(base + ["--out", str(tmp_path / "b"), "--seed", "19"], capsys)
    _run(base + ["--out", str(tmp_path / "c"), "--seed", "20"], capsys)
    read = lambda d: (tmp_path / d / "channel.csv").read_bytes()
    assert read("a") == read("b")
    assert read("a") != read("c")


# ---------------------------------------------------------------------
# figure projections
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = main(["sweep", "--out", str(out), "--fig", "7c",
                 "--override", "drr=[0.002,0.6]",
                 "--override", "workload=[500,1000]",
                 "--override", "tasks=5"])
    assert code == 0
    return out


def test_sweep_grid_rows(sweep_dir):
    with open(sweep_dir / "placement.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert {r["status"] for r in rows} == {"optimal"}


def test_fig_projection_columns(sweep_dir):
    with open(sweep_dir / "fig7c.csv") as f:
        reader = csv.DictReader(f)
        assert reader.fieldnames == ["drr", "workload_mips", "total_power_w"]
        rows = list(reader)
    # nondecreasing in DRR for fixed workload
    by_w = {}
    for r in rows:
        by_w.setdefault(r["workload_mips"], []).append(float(r["total_power_w"]))
    for vals in by_w.values():
        assert vals == sorted(vals)


@pytest.mark.parametrize("fig,needle", [
    ("7a", "processing_power_w"),
    ("7b", "networking_power_w"),
    ("8", "mips_ccloud"),
    ("9", "net_w_roomfog"),
    ("10", "total_power_w"),
    ("11", "util_mobile_0"),
])
def test_every_figure_projects(tmp_path, capsys, fig, needle):
    code, _, _ = _run(
        ["place", "--out", str(tmp_path), "--fig", fig,
         "--override", "tasks=2"], capsys)
    assert code == 0
    with open(tmp_path / f"fig{fig}.csv") as f:
        header = f.readline().strip().split(",")
    assert needle in header


# ---------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------

def _child_env():
    # the child does not inherit pytest's ``pythonpath`` setting
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "owcfog.cli", "validate"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("module,absent", [
    ("owcfog.placement", "owcfog.allocator"),
])
def test_import_leaves_module_unloaded(module, absent):
    # the two solvers are independent of each other
    code = (f"import sys, {module}; "
            f"sys.exit({absent!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_every_package_module():
    # the package is the pipeline: verification code lives under tests/
    code = ("import pkgutil, sys, owcfog, owcfog.cli; "
            "print([f'owcfog.{m.name}' for m in "
            "pkgutil.iter_modules(owcfog.__path__) "
            "if f'owcfog.{m.name}' not in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["sweep", "--override", "drr=[0.002,0.2]",
     "--override", "workload=[100,1000]"],
    ["channel", "--override", "room.grid_nx=2", "--override", "room.grid_ny=2"],
    ["place", "--override", "tasks=1"],
    ["chain", "--override", "scenario.mode=fixed",
     "--override", "scenario.positions_m=[[2,1],[6,3],[4,2]]"],
], ids=["sweep", "channel", "place", "chain-fixed"])
def test_stage_leaves_openssl_unloaded(argv, tmp_path):
    # the manifest digest uses the interpreter's built-in SHA-256: loading
    # OpenSSL's libcrypto through hashlib adds about 3.5 MB to a run's peak
    # memory. (A PPP scenario loads it anyway, through numpy.random.)
    code = ("import sys; from owcfog.cli import main; "
            f"code = main({argv + ['--out', str(tmp_path)]!r}); "
            "sys.exit(code or 10 * ('_hashlib' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
