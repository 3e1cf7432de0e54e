"""Config document loading, validation, overrides, and object builders."""

import hashlib
import json

import pytest

from owcfog.config import (
    DEFAULT_CONFIG,
    apply_overrides,
    config_digest,
    load_config,
    merge_config,
    receiver_from_config,
    room_from_config,
)
from owcfog import placement
from owcfog.cli import main
from owcfog.errors import ConfigError


def test_defaults_load_clean():
    cfg = load_config()
    assert set(cfg) == {"room", "receiver", "noise", "scenario", "topology",
                        "sweep"}
    assert cfg["room"]["length_m"] == 8.0
    assert cfg["sweep"]["tasks"] == 50


def test_load_from_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"scenario": {"seed": 99}}))
    cfg = load_config(p)
    assert cfg["scenario"]["seed"] == 99
    # untouched sections keep their defaults
    assert cfg["receiver"]["fov_deg"] == 40.0


def test_load_applies_overrides_before_the_check(tmp_path):
    p = tmp_path / "fixed.json"
    p.write_text(json.dumps({"scenario": {"mode": "fixed"}}))
    with pytest.raises(ConfigError, match="requires scenario.positions_m"):
        load_config(p)
    cfg = load_config(p, ["scenario.positions_m=[[1,1]]", "seed=4"])
    assert cfg["scenario"]["positions_m"] == [[1, 1]]
    assert cfg["scenario"]["seed"] == 4
    assert cfg == apply_overrides(
        merge_config({"scenario": {"mode": "fixed",
                                   "positions_m": [[1, 1]]}}), ["seed=4"])


def test_load_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/qqq.json")


def test_load_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        merge_config({"rom": {"length_m": 4}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key room.lenght_m"):
        merge_config({"room": {"lenght_m": 4}})


def test_defaults_not_mutated_by_merge():
    cfg = merge_config({"room": {"length_m": 5.0}})
    cfg["room"]["reflectivity"]["walls"] = 0.0
    assert DEFAULT_CONFIG["room"]["length_m"] == 8.0
    assert DEFAULT_CONFIG["room"]["reflectivity"]["walls"] == 0.8


class TestValidation:
    def test_fixed_mode_needs_positions(self):
        with pytest.raises(ConfigError, match="requires scenario.positions_m"):
            merge_config({"scenario": {"mode": "fixed"}})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="scenario.mode"):
            merge_config({"scenario": {"mode": "grid"}})

    def test_drr_must_be_fraction(self):
        with pytest.raises(ConfigError, match="below 1.0"):
            merge_config({"sweep": {"drr": [0.5, 1.5]}})

    def test_positive_numbers(self):
        with pytest.raises(ConfigError, match="room.length_m"):
            merge_config({"room": {"length_m": -1}})
        with pytest.raises(ConfigError, match="receiver.area_m2"):
            merge_config({"receiver": {"area_m2": 0}})

    def test_fov_capped(self):
        with pytest.raises(ConfigError, match="at most 90"):
            merge_config({"receiver": {"fov_deg": 120}})

    def test_receiver_plane_below_ceiling(self):
        with pytest.raises(ConfigError, match="below the ceiling"):
            merge_config({"room": {"receiver_plane_m": 3.0}})

    def test_positions_shape(self):
        with pytest.raises(ConfigError, match=r"positions_m\[0\]"):
            merge_config({"scenario": {"mode": "fixed",
                                       "positions_m": [[1.0]]}})

    def test_tasks_positive_int(self):
        with pytest.raises(ConfigError, match="sweep.tasks"):
            merge_config({"sweep": {"tasks": 0}})
        with pytest.raises(ConfigError, match="sweep.tasks"):
            merge_config({"sweep": {"tasks": 2.5}})

    @pytest.mark.parametrize("key", ["room.grid_nx", "room.max_elements",
                                     "sweep.tasks", "scenario.seed"])
    @pytest.mark.parametrize("value", ["true", "false"])
    def test_booleans_are_not_integers(self, key, value):
        with pytest.raises(ConfigError, match=key):
            apply_overrides(load_config(), [f"{key}={value}"])


class TestOverrides:
    def test_dotted_path(self):
        cfg = apply_overrides(load_config(), ["room.length_m=10"])
        assert cfg["room"]["length_m"] == 10

    def test_aliases(self):
        cfg = apply_overrides(
            load_config(),
            ["drr=0.002", "workload=1000", "tasks=1", "seed=7"])
        assert cfg["sweep"]["drr"] == [0.002]
        assert cfg["sweep"]["workload_mips"] == [1000]
        assert cfg["sweep"]["tasks"] == 1
        assert cfg["scenario"]["seed"] == 7

    def test_json_values(self):
        cfg = apply_overrides(load_config(), ["drr=[0.2, 0.6]",
                                              "scenario.mode=ppp"])
        assert cfg["sweep"]["drr"] == [0.2, 0.6]
        assert cfg["scenario"]["mode"] == "ppp"

    def test_string_fallback(self):
        cfg = apply_overrides(load_config(), ["scenario.name=trial-a"])
        assert cfg["scenario"]["name"] == "trial-a"

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(load_config(), ["drr"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(load_config(), ["sweep.step=2"])

    def test_deep_path_rejected(self):
        with pytest.raises(ConfigError, match="section.key"):
            apply_overrides(load_config(), ["a.b.c=1"])

    def test_overridden_value_still_validated(self):
        with pytest.raises(ConfigError, match="fov_deg"):
            apply_overrides(load_config(), ["receiver.fov_deg=180"])

    def test_original_untouched(self):
        cfg = load_config()
        apply_overrides(cfg, ["room.length_m=10"])
        assert cfg["room"]["length_m"] == 8.0


class TestBuilders:
    def test_room(self):
        cfg = apply_overrides(load_config(), [
            "room.ap_half_power_semiangle_deg=45",
            "room.ap_tx_power_w=2.5",
            "room.element_edge_m=0.25",
        ])
        room = room_from_config(cfg)
        assert len(room.aps) == 8
        assert all(ap.half_power_semiangle_deg == 45 for ap in room.aps)
        assert all(ap.tx_power_w["blue"] == 2.5 for ap in room.aps)
        assert room.element_edge_m == 0.25

    def test_receiver(self):
        rx = receiver_from_config(load_config())
        assert rx.area_m2 == 1e-4
        assert rx.bandwidth_hz == 5e9

    def test_noise_density_is_squared(self):
        rx = receiver_from_config(load_config())
        assert rx.preamp_a2_per_hz == pytest.approx((4.47e-12) ** 2,
                                                    rel=1e-12)
        assert rx.bandwidth_hz == 5e9


def test_digest_tracks_content():
    a = load_config()
    b = apply_overrides(a, ["seed=1"])
    assert config_digest(a) == config_digest(load_config())
    assert config_digest(a) != config_digest(b)
    assert len(config_digest(a)) == 64


@pytest.mark.parametrize("overrides", [
    [],
    ["seed=1"],
    ["drr=[0.002,0.2]", "workload=[100,1000]", "tasks=3"],
    ["scenario.mode=fixed", "scenario.positions_m=[[2,1],[6,3]]",
     "scenario.name=caf\u00e9"],
])
def test_digest_is_sha256_of_canonical_json(overrides):
    # the manifest's config_sha256 is plain SHA-256, whichever built-in
    # module computes it
    cfg = apply_overrides(load_config(), overrides)
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    assert config_digest(cfg) == hashlib.sha256(blob.encode()).hexdigest()


# One case per rule the loader applied before the ranges moved to the
# objects that use them: each value must still be refused when it loads,
# and by ``owcfog validate``, with exit code 1.
_PARENT_RULES = [
    (["room.length_m=Infinity"], "room.length_m"),
    (["room.width_m=-1"], "room.width_m"),
    (["room.height_m=0"], "room.height_m"),
    (["room.element_edge_m=0"], "room.element_edge_m"),
    (["room.time_bin_s=-1e-11"], "room.time_bin_s"),
    (["room.receiver_plane_m=-1"], "room.receiver_plane_m"),
    (["room.receiver_plane_m=3.0"], "below the ceiling"),
    (["room.ap_half_power_semiangle_deg=0"], "semiangle"),
    (["room.ap_half_power_semiangle_deg=95"], "semiangle"),
    (["room.ap_tx_power_w=0"], "room.ap_tx_power_w"),
    (["room.max_elements=0"], "room.max_elements"),
    (["room.grid_nx=0"], "room.grid_nx"),
    (["room.grid_ny=-2"], "room.grid_ny"),
    (["room.grid_nx=1.5"], "room.grid_nx"),
    (["room.ap_grid_nx=0"], "room.ap_grid_nx"),
    (["room.ap_grid_ny=0"], "room.ap_grid_ny"),
    (["room.reflectivity=5"], "room.reflectivity"),
    (['room.reflectivity={"walls":1.5,"ceiling":0.8,"floor":0.3}'],
     "reflectivity[walls]"),
    (["receiver.area_m2=0"], "receiver.area_m2"),
    (["receiver.fov_deg=120"], "at most 90"),
    (["receiver.fov_deg=wide"], "receiver.fov_deg"),
    (["receiver.bandwidth_hz=0"], "receiver.bandwidth_hz"),
    (["receiver.responsivity_a_per_w=-1"], "receiver.responsivity_a_per_w"),
    (["receiver.rate_factor=NaN"], "receiver.rate_factor"),
    (["noise.preamp_a_per_sqrt_hz=-1"], "noise.preamp_a_per_sqrt_hz"),
    (["scenario.mode=grid"], "scenario.mode"),
    (["scenario.name=5"], "scenario.name"),
    (["scenario.intensity_per_m2=0"], "scenario.intensity_per_m2"),
    (["scenario.intensity_per_m2=Infinity"], "scenario.intensity_per_m2"),
    (["scenario.seed=-1"], "scenario.seed"),
    (["scenario.seed=1.5"], "scenario.seed"),
    (["scenario.mode=fixed"], "requires scenario.positions_m"),
    (["scenario.positions_m=[[1,1]]"], "requires scenario.positions_m"),
    (["scenario.mode=fixed", 'scenario.positions_m={"x":1}'],
     "scenario.positions_m"),
    (["scenario.mode=fixed", "scenario.positions_m=[[1.0]]"],
     "positions_m[0]"),
    (["scenario.mode=fixed", 'scenario.positions_m=[[1,"y"]]'],
     "positions_m[0]"),
    (["scenario.mode=fixed", "scenario.positions_m=[[1,1],[100,1]]"],
     "outside the room"),
    (["topology.mobile_wavelengths=red"], "topology.mobile_wavelengths"),
    (["topology.mobile_wavelengths=[]"], "must not be empty"),
    (['topology.mobile_wavelengths=["uv"]'], "topology.mobile_wavelengths[0]"),
    (["topology.mobile_rates_mbps=fast"], "topology.mobile_rates_mbps"),
    (['topology.mobile_wavelengths=["red"]', "topology.mobile_rates_mbps=[0]"],
     "topology.mobile_rates_mbps[0]"),
    (["topology.mobile_rates_mbps=[-5]"], "topology.mobile_rates_mbps[0]"),
    (['topology.mobile_wavelengths=["red"]',
      "topology.mobile_rates_mbps=[1,2]"], "one rate per entry"),
    (["drr=[]"], "sweep.drr"),
    (["workload=[]"], "sweep.workload_mips"),
    (["drr=[0.5,1.5]"], "below 1.0"),
    (["drr=[0.2,0]"], "sweep.drr"),
    (["drr=x"], "sweep.drr"),
    (["workload=[100,0]"], "workload"),
    (["workload=[-5]"], "workload"),
    (["workload=Infinity"], "sweep.workload_mips"),
    (["tasks=0"], "sweep.tasks"),
    (["tasks=2.5"], "sweep.tasks"),
]


@pytest.mark.parametrize("overrides, fragment", _PARENT_RULES,
                         ids=[" ".join(o) for o, _ in _PARENT_RULES])
def test_every_parent_rule_still_refuses(overrides, fragment, capsys):
    with pytest.raises(ConfigError) as info:
        apply_overrides(load_config(), overrides)
    assert fragment in str(info.value)
    argv = ["validate"] + [a for o in overrides for a in ("--override", o)]
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_a_load_builds_one_task_per_sweep_axis_entry(monkeypatch):
    # Each drr and workload entry is checked with one task and the count
    # rule alone, so the task count costs nothing to load: full task lists
    # took 77 s and 320 MB for tasks=2000000.
    built = []

    class Counted(placement.TaskDemand):
        def __post_init__(self):
            built.append(self.task_id)
            super().__post_init__()
    monkeypatch.setattr(placement, "TaskDemand", Counted)
    cfg = load_config(overrides=["tasks=1000"])
    sweep = cfg["sweep"]
    assert sweep["tasks"] == 1000
    assert len(built) == len(sweep["drr"]) + len(sweep["workload_mips"]) - 1
