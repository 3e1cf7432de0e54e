"""Config document loading, validation, overrides, and object builders."""

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
