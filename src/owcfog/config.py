"""Configuration loading, validation and CLI overrides.

A run is described by one JSON document with six sections::

    room | receiver | noise | scenario | topology | sweep

Every key has a default, so ``{}`` is a valid config.  Unknown sections or
keys are rejected outright — silent typos in sweeps are far more expensive
than a hard error at startup.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from .channel import (
    WAVELENGTHS,
    ReceiverSpec,
    RoomConfig,
    default_ap_grid,
    lambertian_order,
)
from .errors import ConfigError

__all__ = [
    "DEFAULT_CONFIG",
    "load_config",
    "merge_config",
    "apply_overrides",
    "validate_config",
    "room_from_config",
    "receiver_from_config",
    "config_digest",
]


# ---------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------

#: Baseline document.  ``element_edge_m`` is coarser here than the library
#: default inside :class:`RoomConfig`: pipeline runs trade a little delay
#: resolution for a large speedup across whole user grids, and the derived
#: figures are insensitive to the difference at this scale.
DEFAULT_CONFIG: Dict[str, Dict[str, Any]] = {
    "room": {
        "length_m": 8.0,
        "width_m": 4.0,
        "height_m": 3.0,
        "reflectivity": {"walls": 0.8, "ceiling": 0.8, "floor": 0.3},
        "element_edge_m": 0.5,
        "max_elements": 200_000,
        "time_bin_s": 1e-11,
        "receiver_plane_m": 1.0,
        "grid_nx": 16,
        "grid_ny": 8,
        "ap_grid_nx": 4,
        "ap_grid_ny": 2,
        "ap_half_power_semiangle_deg": 60.0,
        "ap_tx_power_w": 1.8,
    },
    "receiver": {
        "area_m2": 1e-4,
        "fov_deg": 40.0,
        "bandwidth_hz": 5e9,
        "responsivity_a_per_w": 0.4,
        "rate_factor": 1.0,
    },
    "noise": {
        "preamp_a_per_sqrt_hz": 4.47e-12,
    },
    "scenario": {
        "mode": "ppp",          # "ppp" | "fixed"
        "name": "",
        "intensity_per_m2": 0.25,
        "seed": 0,
        "positions_m": None,    # [[x, y], ...] for mode == "fixed"
    },
    "topology": {
        "mobile_wavelengths": None,   # default colour cycle when null
        "mobile_rates_mbps": None,    # uncapped LAN rate when null
    },
    "sweep": {
        "drr": [0.002, 0.02, 0.04, 0.06, 0.2, 0.4, 0.6],
        "workload_mips": [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0,
                          800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0,
                          1400.0, 1500.0],
        "tasks": 50,
    },
}

# Shorthand override keys accepted next to full dotted paths, so sweeps can
# be steered without spelling out the section each time.
_OVERRIDE_ALIASES = {
    "drr": "sweep.drr",
    "workload": "sweep.workload_mips",
    "tasks": "sweep.tasks",
    "seed": "scenario.seed",
}


# ---------------------------------------------------------------------
# load / merge / validate
# ---------------------------------------------------------------------

def load_config(path: Optional[Union[str, Path]] = None) -> Dict[str, Any]:
    """Read a JSON config file and merge it over the defaults."""
    if path is None:
        return validate_config(copy.deepcopy(DEFAULT_CONFIG))
    p = Path(path)
    try:
        raw = json.loads(p.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return merge_config(raw)


def merge_config(overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """Overlay a partial document on the defaults and validate the result."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    for section, body in overrides.items():
        if section not in cfg:
            raise ConfigError(
                f"unknown config section {section!r}; expected one of "
                f"{sorted(cfg)}"
            )
        if not isinstance(body, Mapping):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in body.items():
            if key not in cfg[section]:
                raise ConfigError(
                    f"unknown key {section}.{key}; expected one of "
                    f"{sorted(cfg[section])}"
                )
            cfg[section][key] = copy.deepcopy(value)
    return validate_config(cfg)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value: Any) -> bool:
    """An integer that is not a bool (``isinstance(True, int)`` holds)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_number(value: Any, label: str) -> float:
    # JSON parses Infinity and NaN, and float() overflows on a huge integer
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max,
            f"{label} must be a finite number, got {value!r}")
    return float(value)


def validate_config(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Check types and ranges.  Returns ``cfg`` for chaining."""
    room = cfg["room"]
    for key in ("length_m", "width_m", "height_m", "element_edge_m",
                "time_bin_s", "receiver_plane_m", "ap_half_power_semiangle_deg",
                "ap_tx_power_w"):
        _expect(_as_number(room[key], f"room.{key}") > 0,
                f"room.{key} must be positive")
    for key in ("max_elements", "grid_nx", "grid_ny", "ap_grid_nx",
                "ap_grid_ny"):
        _expect(_is_int(room[key]) and room[key] > 0,
                f"room.{key} must be a positive integer")
    _expect(isinstance(room["reflectivity"], Mapping),
            "room.reflectivity must be an object")
    # the checks the channel stage applies, so validate accepts no room the
    # stages would reject
    reflective = RoomConfig(reflectivity=room["reflectivity"])
    for wl in WAVELENGTHS:
        reflective.reflectivity_for(wl)
    lambertian_order(room["ap_half_power_semiangle_deg"])
    _expect(room["receiver_plane_m"] < room["height_m"],
            "room.receiver_plane_m must sit below the ceiling")

    rx = cfg["receiver"]
    for key in rx:
        _expect(_as_number(rx[key], f"receiver.{key}") > 0,
                f"receiver.{key} must be positive")
    _expect(rx["fov_deg"] <= 90.0, "receiver.fov_deg must be at most 90")

    _expect(_as_number(cfg["noise"]["preamp_a_per_sqrt_hz"],
                       "noise.preamp_a_per_sqrt_hz") > 0,
            "noise.preamp_a_per_sqrt_hz must be positive")

    sc = cfg["scenario"]
    _expect(sc["mode"] in ("ppp", "fixed"),
            f"scenario.mode must be 'ppp' or 'fixed', got {sc['mode']!r}")
    _expect(isinstance(sc["name"], str), "scenario.name must be a string")
    _expect(_as_number(sc["intensity_per_m2"],
                       "scenario.intensity_per_m2") > 0,
            "scenario.intensity_per_m2 must be positive")
    _expect(_is_int(sc["seed"]) and sc["seed"] >= 0,
            "scenario.seed must be a non-negative integer")
    # only a fixed scenario reads the points; a PPP draw would drop them
    _expect((sc["mode"] == "fixed") == (sc["positions_m"] is not None),
            "scenario.mode 'fixed' requires scenario.positions_m, and no "
            "other mode accepts them")
    if sc["positions_m"] is not None:
        _expect(isinstance(sc["positions_m"], list),
                "scenario.positions_m must be a list of [x, y] pairs")
        for i, pos in enumerate(sc["positions_m"]):
            _expect(isinstance(pos, (list, tuple)) and len(pos) == 2,
                    f"scenario.positions_m[{i}] must be an [x, y] pair")
            x, y = (_as_number(v, f"scenario.positions_m[{i}]") for v in pos)
            # the check fixed_scenario and compute_channel_records make
            _expect(0 <= x <= room["length_m"] and 0 <= y <= room["width_m"],
                    f"scenario.positions_m[{i}] at ({x}, {y}) lies outside "
                    f"the room")

    topo = cfg["topology"]
    colours, rates = topo["mobile_wavelengths"], topo["mobile_rates_mbps"]
    if colours is not None:
        _expect(isinstance(colours, list)
                and all(isinstance(w, str) for w in colours),
                "topology.mobile_wavelengths must be a list of colour names")
        # every placed task is sourced at a mobile unit
        _expect(len(colours) > 0,
                "topology.mobile_wavelengths must not be empty")
        for i, w in enumerate(colours):
            _expect(w in WAVELENGTHS,
                    f"topology.mobile_wavelengths[{i}] must be one of "
                    f"{list(WAVELENGTHS)}, got {w!r}")
    if rates is not None:
        _expect(isinstance(rates, list),
                "topology.mobile_rates_mbps must be a list of numbers")
        for i, r in enumerate(rates):
            _expect(_as_number(r, f"topology.mobile_rates_mbps[{i}]") > 0,
                    f"topology.mobile_rates_mbps[{i}] must be positive")
        # alone, the rates list is sized by the solved users instead
        _expect(colours is None or len(rates) == len(colours),
                "topology.mobile_rates_mbps must give one rate per entry of "
                "topology.mobile_wavelengths")

    sw = cfg["sweep"]
    for key in ("drr", "workload_mips"):
        _expect(isinstance(sw[key], list) and sw[key],
                f"sweep.{key} must be a non-empty list")
        for i, v in enumerate(sw[key]):
            _expect(_as_number(v, f"sweep.{key}[{i}]") > 0,
                    f"sweep.{key}[{i}] must be positive")
    for v in sw["drr"]:
        _expect(v < 1.0, "sweep.drr entries must be below 1.0")
    _expect(_is_int(sw["tasks"]) and sw["tasks"] > 0,
            "sweep.tasks must be a positive integer")
    return cfg


# ---------------------------------------------------------------------
# CLI overrides
# ---------------------------------------------------------------------

def _parse_value(text: str) -> Any:
    """Interpret an override value: JSON when it parses, else a string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: Dict[str, Any], overrides: List[str]) -> Dict[str, Any]:
    """Apply ``key=value`` strings on top of a validated document.

    Keys are dotted paths (``room.length_m``); a handful of bare aliases
    (``drr``, ``workload``, ``tasks``, ``seed``) are accepted for the common
    sweep knobs.  Values parse as JSON, falling back to plain strings, so
    ``drr=[0.2,0.6]``, ``seed=7`` and ``scenario.mode=fixed`` all work.
    """
    cfg = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, text = item.partition("=")
        key = _OVERRIDE_ALIASES.get(key, key)
        parts = key.split(".")
        if len(parts) != 2:
            raise ConfigError(
                f"override key {key!r} must be section.key (or one of "
                f"{sorted(_OVERRIDE_ALIASES)})"
            )
        section, leaf = parts
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if leaf not in cfg[section]:
            raise ConfigError(f"unknown key {section}.{leaf}")
        value = _parse_value(text)
        # Scalars are fine where lists are expected for the sweep axes:
        # "drr=0.002" means a one-point axis.
        if (section, leaf) in (("sweep", "drr"), ("sweep", "workload_mips")) \
                and not isinstance(value, list):
            value = [value]
        cfg[section][leaf] = value
    return validate_config(cfg)


# ---------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------

def room_from_config(cfg: Mapping[str, Any]) -> RoomConfig:
    room = cfg["room"]
    aps = tuple(default_ap_grid(
        length_m=room["length_m"],
        width_m=room["width_m"],
        height_m=room["height_m"],
        nx=room["ap_grid_nx"],
        ny=room["ap_grid_ny"],
        tx_power_w={w: float(room["ap_tx_power_w"]) for w in WAVELENGTHS},
        half_power_semiangle_deg=room["ap_half_power_semiangle_deg"],
    ))
    reflectivity = {k: v for k, v in room["reflectivity"].items()}
    return RoomConfig(
        length_m=room["length_m"],
        width_m=room["width_m"],
        height_m=room["height_m"],
        reflectivity=reflectivity,
        element_edge_m=room["element_edge_m"],
        max_elements=room["max_elements"],
        time_bin_s=room["time_bin_s"],
        receiver_plane_m=room["receiver_plane_m"],
        grid_nx=room["grid_nx"],
        grid_ny=room["grid_ny"],
        aps=aps,
    )


def receiver_from_config(cfg: Mapping[str, Any]) -> ReceiverSpec:
    rx = cfg["receiver"]
    return ReceiverSpec(
        area_m2=rx["area_m2"],
        fov_deg=rx["fov_deg"],
        bandwidth_hz=rx["bandwidth_hz"],
        responsivity_a_per_w=rx["responsivity_a_per_w"],
        rate_factor=rx["rate_factor"],
        preamp_a2_per_hz=cfg["noise"]["preamp_a_per_sqrt_hz"] ** 2,
    )


def config_digest(cfg: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON form, for run manifests.

    The digest comes from the interpreter's built-in SHA-256 (``_sha2`` on
    CPython >= 3.12, ``_sha256`` before), the modules ``hashlib`` itself
    falls back to without OpenSSL: importing ``hashlib`` loads
    ``libcrypto``, about 3.5 MB of resident memory, to hash one small
    document.  The hex digest is the same.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256

    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()
