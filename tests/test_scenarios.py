"""Scenario generation, bandwidth CDF, chaining, and bundle artifacts."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from owcfog.channel import ChannelRecords
from owcfog.config import apply_overrides, load_config, merge_config
from owcfog.errors import ConfigError, InfeasibleError
from owcfog.room import POISSON_LAM_MAX, fixed_scenario, ppp_mean_users
from owcfog.scenarios import (
    ANALOGUE_SEEDS,
    WRITE_BATCH_ROWS,
    ResultBundle,
    _cell,
    allocate_scenario,
    allocation_tables,
    bandwidth_cdf,
    build_manifest,
    chain_scenario,
    channel_bundle,
    fraction_at_least,
    generate_ppp_users,
    scenario_from_config,
    topology_from_config,
)
from owcfog.config import room_from_config


@pytest.fixture(scope="module")
def room():
    return room_from_config(load_config())


# ---------------------------------------------------------------------
# Poisson point process
# ---------------------------------------------------------------------

def test_ppp_deterministic(room):
    a = generate_ppp_users(room, 0.25, seed=4)
    b = generate_ppp_users(room, 0.25, seed=4)
    assert a.positions_m == b.positions_m
    assert a.seed == 4 and a.mode == "ppp"


def test_ppp_positions_inside_room(room):
    for seed in range(50):
        s = generate_ppp_users(room, 0.25, seed)
        for x, y in s.positions_m:
            assert 0 <= x <= room.length_m
            assert 0 <= y <= room.width_m


def test_ppp_mean_count_matches_intensity(room):
    # law of large numbers: mean over many draws within 2% of lambda*area
    counts = [generate_ppp_users(room, 0.25, seed).n_users
              for seed in range(10_000)]
    expected = 0.25 * room.length_m * room.width_m
    assert np.mean(counts) == pytest.approx(expected, rel=0.02)


def test_ppp_rejects_bad_intensity(room):
    with pytest.raises(ConfigError):
        generate_ppp_users(room, 0.0, seed=1)


def test_poisson_limit_is_numpy_limit(room):
    # the count alone is drawn: positions for this many users would not fit
    rng = np.random.default_rng(0)
    assert rng.poisson(POISSON_LAM_MAX) > 0
    with pytest.raises(ValueError):
        rng.poisson(math.nextafter(POISSON_LAM_MAX, math.inf))
    area = room.length_m * room.width_m
    with pytest.raises(ConfigError, match="Poisson limit"):
        ppp_mean_users(room, 2 * POISSON_LAM_MAX / area)
    assert ppp_mean_users(room, 0.5 * POISSON_LAM_MAX / area) < \
        POISSON_LAM_MAX


def test_fixed_scenario_validates_bounds(room):
    s = fixed_scenario("pair", [[1.0, 1.0], [7.5, 3.5]], room)
    assert s.n_users == 2
    with pytest.raises(ConfigError, match="outside the room"):
        fixed_scenario("bad", [[9.0, 1.0]], room)


def test_named_analogue_scenarios_pin_their_seed(room):
    for name, seed in ANALOGUE_SEEDS.items():
        cfg = merge_config({"scenario": {"name": name, "seed": 12345}})
        s = scenario_from_config(cfg, room)
        assert s.seed == seed
        assert s.n_users == 8


# ---------------------------------------------------------------------
# bandwidth CDF
# ---------------------------------------------------------------------

def _records(positions, bw):
    """ChannelRecords of one wavelength whose 3-dB bandwidths are
    ``bw[u][a]``, at ``positions[u]``."""
    bw = np.array(bw, dtype=float)[..., None]
    return ChannelRecords(list(positions), list(range(bw.shape[1])), ["red"],
                          np.full(bw.shape, 1e-6), np.full(bw.shape, 1e-6),
                          np.full(bw.shape, 1e-10), bw, bw)


def _line(bws):
    """One AP per user, the users along y = 0."""
    return _records([(float(i), 0.0) for i in range(len(bws))],
                    [[bw] for bw in bws])


def test_cdf_monotone_ends_at_one():
    cdf = bandwidth_cdf(_line([3e9, 1e9, 5e9, 1e9]))
    assert cdf[-1][1] == 1.0
    assert all(a[0] < b[0] and a[1] <= b[1] for a, b in zip(cdf, cdf[1:]))
    assert cdf == [(1e9, 0.5), (3e9, 0.75), (5e9, 1.0)]


def test_cdf_all_equal_is_single_step():
    assert bandwidth_cdf(_line([2e9] * 5)) == [(2e9, 1.0)]


def test_cdf_uses_best_link_per_location():
    # one location, two links: the 4 GHz one determines support there
    recs = _records([(1.0, 1.0)], [[1e9, 4e9]])
    assert bandwidth_cdf(recs) == [(4e9, 1.0)]
    assert fraction_at_least(recs, 4e9) == 1.0
    # two users at (1, 1) are one location, so it counts once against
    # the 1 GHz location at (2, 1)
    recs = _records([(1.0, 1.0), (2.0, 1.0), (1.0, 1.0)],
                    [[1e9, 4e9], [1e9, 1e9], [1e9, 4e9]])
    assert bandwidth_cdf(recs) == [(1e9, 0.5), (4e9, 1.0)]
    assert fraction_at_least(recs, 4e9) == 0.5


def test_fraction_at_least():
    recs = _line([1e9, 3e9, 4e9, 5e9])
    assert fraction_at_least(recs, 4e9) == 0.5
    assert fraction_at_least(recs, 6e9) == 0.0


def test_cdf_needs_records():
    with pytest.raises(ConfigError):
        bandwidth_cdf(_records([], np.empty((0, 1))))


# ---------------------------------------------------------------------
# chaining
# ---------------------------------------------------------------------

def _one_user_cfg(workload_mips=1000.0):
    return merge_config({
        "scenario": {"mode": "fixed", "positions_m": [[2.0, 1.0]],
                     "name": "single"},
        "sweep": {"drr": [0.002], "workload_mips": [workload_mips],
                  "tasks": 1},
    })


def test_chain_single_user():
    bundle = chain_scenario(_one_user_cfg())
    assert set(bundle.tables) == {"channel", "bandwidth_cdf", "allocation",
                                  "allocation_summary", "placement",
                                  "utilization"}
    header, rows = bundle.tables["allocation"]
    assert len(rows) == 1
    header, rows = bundle.tables["placement"]
    assert rows[0][header.index("status")] == "optimal"
    # the cheap-flow regime sends everything to the central cloud
    assert rows[0][header.index("mips_ccloud")] == pytest.approx(1000.0)
    lo, hi = bundle.manifest["rate_range_gbps"]
    assert 0 < lo <= hi <= 5.0


def test_chain_empty_scenario_gives_empty_bundle():
    cfg = merge_config({"scenario": {"mode": "fixed", "positions_m": [],
                                     "name": "empty"}})
    bundle = chain_scenario(cfg)
    for stage, (header, rows) in bundle.tables.items():
        assert rows == [], stage
    assert bundle.manifest["scenario"]["users"] == 0


def test_chain_caps_mobile_routes_by_solved_rates():
    cfg = merge_config({"scenario": {"name": "s1-analogue"}})
    scenario, _, solution = allocate_scenario(cfg)
    users = sorted(solution.assignment)
    topo = topology_from_config(
        cfg, [solution.assignment[u][1] for u in users],
        [solution.rate_bps[u] / 1e6 for u in users])
    mobiles = topo.mobiles()
    assert len(mobiles) == scenario.n_users
    for i, m in enumerate(mobiles):
        assert m.node_id == f"mobile_{i}"
        assert m.wavelength == solution.assignment[i][1]
        cap = m.route.capacity_mbps
        assert cap <= solution.rate_bps[i] / 1e6 + 1e-9


def test_chain_topology_config_override_wins():
    cfg = merge_config({
        "scenario": {"mode": "fixed", "positions_m": [[2.0, 1.0]],
                     "name": "single"},
        "topology": {"mobile_wavelengths": ["red", "blue"],
                     "mobile_rates_mbps": [2000.0, 3000.0]},
    })
    _, _, solution = allocate_scenario(cfg)
    topo = topology_from_config(cfg, [solution.assignment[0][1]],
                                [solution.rate_bps[0] / 1e6])
    assert [m.wavelength for m in topo.mobiles()] == ["red", "blue"]
    assert topo.node("mobile_1").route.capacity_mbps == 3000.0


def test_chain_labels_placement_stage_on_infeasibility():
    cfg = _one_user_cfg(workload_mips=500_000.0)
    with pytest.raises(InfeasibleError) as err:
        chain_scenario(cfg)
    assert err.value.report["stage"] == "place"


# ---------------------------------------------------------------------
# bundles on disk
# ---------------------------------------------------------------------

def test_bundle_layout_and_reproducibility(tmp_path):
    bundle = chain_scenario(_one_user_cfg())
    first = bundle.write(tmp_path / "a")
    again = bundle.write(tmp_path / "b")
    names_a = sorted(p.name for p in first)
    assert names_a == sorted(["channel.csv", "bandwidth_cdf.csv",
                              "allocation.csv", "allocation_summary.csv",
                              "placement.csv", "utilization.csv", "manifest"])
    for pa, pb in zip(sorted(first), sorted(again)):
        assert pa.read_bytes() == pb.read_bytes()


def test_csv_floats_round_trip(tmp_path):
    bundle = ResultBundle(
        tables={"t": (["a", "b"], [[1 / 3, 10_000_000_000.0]])},
        manifest={"x": 1},
    )
    (path, _) = bundle.write(tmp_path)
    text = path.read_text().splitlines()
    cells = text[1].split(",")
    assert float(cells[0]) == 1 / 3  # repr() keeps full precision
    assert float(cells[1]) == 1e10


def _one_shot_csv(header, rows):
    """The whole table as one string, the layout the bundle promises."""
    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return "" if v is None else str(v)
    lines = [",".join(header)] + [",".join(map(cell, r)) for r in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_batched_writer_matches_one_shot_text(tmp_path):
    rng = np.random.default_rng(5)
    rows = [[float(rng.standard_normal()) * 10.0 ** int(rng.integers(-12, 12)),
             int(rng.integers(-5, 10**6)), bool(i % 3),
             "µ-link" if i % 7 == 0 else None, i / 3] for i in range(2500)]
    assert len(rows) > 2 * WRITE_BATCH_ROWS  # two full batches and a part
    tables = {"mixed": (["scaled", "count", "flag", "label", "third"], rows),
              "empty": (["only", "header"], [])}
    manifest = {"stage": "test", "users": 2500}
    paths = ResultBundle(tables=tables, manifest=manifest).write(tmp_path)
    assert paths == [tmp_path / "mixed.csv", tmp_path / "empty.csv",
                     tmp_path / "manifest"]
    for path, (header, table_rows) in zip(paths, tables.values()):
        assert path.read_bytes() == _one_shot_csv(header, table_rows)
    assert paths[-1].read_bytes() == (json.dumps(
        manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_writer_keeps_the_text_of_every_cell(tmp_path):
    # The writer takes each repeated float's text once per batch. Values
    # that compare equal but print differently meet in one row and one
    # column of a batch: 1.0, 1 and True; 0.0, -0.0, False and 0; 2.5 and
    # a float subclass. Runs of five equal floats cross each batch edge.
    mixed = [1.0, 1, True, 0.0, -0.0, False, 0, None, math.nan, math.inf,
             -math.inf, np.float64(2.5), 2.5, -1.0, 1.0]
    rows = [[i // 5 / 7, mixed[i % len(mixed)], mixed[-1 - i % len(mixed)],
             i // 5 / 7, 1 / 3] for i in range(2 * WRITE_BATCH_ROWS + 10)]
    assert rows[WRITE_BATCH_ROWS - 1][0] == rows[WRITE_BATCH_ROWS][0]
    header = ["run", "mixed", "reversed", "run_again", "third"]
    (path, _) = ResultBundle(tables={"t": (header, rows)},
                             manifest={}).write(tmp_path)
    longhand = ",".join(header) + "\n" + "".join(
        ",".join(_cell(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == longhand.encode("utf-8")


@pytest.mark.parametrize("value,text", [
    (np.float64(2.5), "2.5"), (np.float64(-0.0), "-0.0"),
    (np.float32(0.5), "0.5"), (np.bool_(True), "true"),
    (np.bool_(False), "false"), (np.int64(-3), "-3"),
], ids=repr)
def test_numpy_scalar_cells_read_like_python_ones(value, text, tmp_path):
    # numpy 2 repr()s np.float64(2.5) as "np.float64(2.5)", and str() of
    # np.True_ is "True": a cell writes the Python value's text instead
    assert _cell(value) == _cell(value.item()) == text
    (path, _) = ResultBundle(tables={"t": (["v"], [[value]])},
                             manifest={}).write(tmp_path)
    assert path.read_text(encoding="utf-8") == f"v\n{text}\n"


def test_manifest_contents():
    cfg = load_config()
    manifest = build_manifest(cfg, stage="channel")
    assert manifest["rng"] == "numpy.random.default_rng(PCG64)"
    assert len(manifest["config_sha256"]) == 64
    assert {"owcfog", "python", "numpy"} <= set(manifest["versions"])
    # nothing volatile: serializing twice gives identical bytes
    assert json.dumps(manifest, sort_keys=True) == json.dumps(
        build_manifest(cfg, stage="channel"), sort_keys=True)


@pytest.mark.slow
def test_channel_bundle_grid(tmp_path):
    cfg = apply_overrides(load_config(), ["room.grid_nx=4", "room.grid_ny=2"])
    bundle = channel_bundle(cfg)
    header, rows = bundle.tables["channel"]
    assert header[:4] == ["user_x", "user_y", "ap_id", "wavelength"]
    assert len(rows) == 4 * 2 * 8 * 4  # positions x APs x wavelengths
    cdf_header, cdf_rows = bundle.tables["bandwidth_cdf"]
    assert cdf_rows[-1][1] == 1.0
    bundle.write(tmp_path)
    assert (tmp_path / "bandwidth_cdf.csv").exists()


#: sha256 of the channel bundle's CSVs on the default 128-point grid. Any
#: change to what the tracer or the channel metrics compute moves them.
CHANNEL_GRID_DIGESTS = {
    "channel.csv":
        "8d2171426d1f0ae03b1f7a50e423fd8b012e15b2926f31459b7740f6be61bc4f",
    "bandwidth_cdf.csv":
        "f7ca6f26a96afbe1bee9a05becb616c6374b7a5dbecf5daae9d08a80ce0e76b1",
}


@pytest.mark.slow
def test_channel_grid_bundle_pinned(tmp_path):
    channel_bundle(load_config()).write(tmp_path)
    for name, digest in CHANNEL_GRID_DIGESTS.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


# ---------------------------------------------------------------------
# allocator on pipeline draws
# ---------------------------------------------------------------------

#: sha256 of allocation.csv for the named draws, and a node ceiling each.
#: Node counts repeat exactly, so the ceilings catch a weakened bound.
ANALOGUE_ALLOCATIONS = {
    "s1-analogue": (
        "b08d58547f563f93ecc56e446bddc4b6425385037e1936ee4256f03031dee9a0",
        1_000),
    "s2-analogue": (
        "42a614055436998316b9c5d53257d4b89324608216aa0644a5554eaa3871dd73",
        2_000),
}


@pytest.mark.parametrize("name", sorted(ANALOGUE_ALLOCATIONS))
def test_analogue_allocation_pinned(name, tmp_path):
    digest, node_ceiling = ANALOGUE_ALLOCATIONS[name]
    cfg = merge_config({"scenario": {"name": name}})
    _, _, solution = allocate_scenario(cfg)
    bundle = ResultBundle(tables=allocation_tables(solution), manifest={})
    bundle.write(tmp_path)
    data = (tmp_path / "allocation.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert solution.stats["complete"] and solution.stats["gap"] == 0.0
    assert solution.stats["nodes"] <= node_ceiling


@pytest.mark.parametrize("seed", [1, 4, 10])
def test_large_default_draw_ends_in_bounded_time(seed):
    # 9-11 users; draw 1 alone needed minutes under a bound that ignored
    # the slots already taken
    cfg = merge_config({"scenario": {"seed": seed}})
    t0 = time.perf_counter()
    try:
        _, _, solution = allocate_scenario(cfg)
    except InfeasibleError as exc:
        assert exc.report["constraint"] in ("sinr_floor", "onu_capacity")
    else:
        assert solution.stats["complete"] and solution.stats["gap"] == 0.0
    assert time.perf_counter() - t0 < 60.0
