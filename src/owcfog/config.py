"""Configuration loading, validation and CLI overrides.

A run is described by one JSON document with six sections::

    room | receiver | noise | scenario | topology | sweep

Every key has a default, so ``{}`` is a valid config.  Unknown sections or
keys are rejected outright — silent typos in sweeps are far more expensive
than a hard error at startup.

Loading reads the file, overlays it on the defaults, applies the CLI's
``key=value`` overrides and only then validates, once, the final document:
a file that the overrides complete loads.  Validation checks the JSON shape
alone: section and key names, and that each value has its default's type.
Every range is checked by the object or function that uses the value
(``RoomConfig``, ``AccessPoint``, ``ReceiverSpec``,
``build_reference_topology``, ``fixed_scenario``, ``ppp_mean_users``,
``demands_from_drr``), and validation builds each of them once, so a
document that loads is one every stage accepts.  The sweep is checked with
one task per axis entry and the task count alone, not with the full task
list of every cell.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from .channel import WAVELENGTHS, ReceiverSpec, RoomConfig, default_ap_grid
from .errors import ConfigError
from .placement import check_task_count, demands_from_drr
from .topology import build_reference_topology

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
# load / merge / override / validate
# ---------------------------------------------------------------------

def load_config(path: Optional[Union[str, Path]] = None,
                overrides: Sequence[str] = ()) -> Dict[str, Any]:
    """Read a JSON config file, overlay it on the defaults, apply the
    ``key=value`` overrides and validate the final document once."""
    raw: Mapping[str, Any] = {}
    if path is not None:
        p = Path(path)
        try:
            raw = json.loads(p.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {p}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
    return _overlay(DEFAULT_CONFIG, raw, overrides)


def merge_config(overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """Overlay a partial document on the defaults and validate the result."""
    return _overlay(DEFAULT_CONFIG, overrides)


def apply_overrides(cfg: Dict[str, Any], overrides: List[str]) -> Dict[str, Any]:
    """Apply ``key=value`` strings on top of a document and validate it.

    Keys are dotted paths (``room.length_m``); a handful of bare aliases
    (``drr``, ``workload``, ``tasks``, ``seed``) are accepted for the common
    sweep knobs.  Values parse as JSON, falling back to plain strings, so
    ``drr=[0.2,0.6]``, ``seed=7`` and ``scenario.mode=fixed`` all work.
    """
    return _overlay(cfg, {}, overrides)


def _overlay(base: Dict[str, Any], sections: Mapping[str, Any],
             overrides: Sequence[str] = ()) -> Dict[str, Any]:
    """A copy of ``base`` with each section of ``sections`` merged in, then
    each ``key=value`` override set, validated once as a whole."""
    cfg = copy.deepcopy(base)
    for section, body in sections.items():
        _expect(isinstance(body, Mapping),
                f"config section {section!r} must be an object")
        cfg.setdefault(section, {}).update(copy.deepcopy(dict(body)))
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
        try:
            value = json.loads(text)
        except json.JSONDecodeError:  # not JSON: a plain string
            value = text
        # Scalars are fine where lists are expected for the sweep axes:
        # "drr=0.002" means a one-point axis.
        if (section, leaf) in (("sweep", "drr"), ("sweep", "workload_mips")) \
                and not isinstance(value, list):
            value = [value]
        cfg.setdefault(section, {})[leaf] = value
    return validate_config(cfg)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


#: The shape of each value whose default is null, by example.
_NULL_DEFAULT_SHAPES: Dict[str, Any] = {
    "scenario.positions_m": [(0.0, 0.0)],
    "topology.mobile_wavelengths": [""],
    "topology.mobile_rates_mbps": [0.0],
}


def _check_shape(value: Any, like: Any, label: str) -> None:
    """Refuse ``value`` unless it has the JSON shape of the example ``like``
    (a tuple is an [x, y] pair; a list holds entries shaped like its one)."""
    if isinstance(like, list):
        _expect(isinstance(value, list), f"{label} must be a list")
        for i, v in enumerate(value):
            _check_shape(v, like[0], f"{label}[{i}]")
    elif isinstance(like, tuple):
        _expect(isinstance(value, (list, tuple)) and len(value) == len(like),
                f"{label} must be an [x, y] pair")
        for v, entry in zip(value, like):
            _check_shape(v, entry, label)
    elif isinstance(like, float):
        # JSON parses Infinity and NaN, and float() overflows on a huge
        # integer; isinstance(True, int) holds
        _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max,
                f"{label} must be a finite number, got {value!r}")
    elif isinstance(like, int):
        _expect(isinstance(value, int) and not isinstance(value, bool),
                f"{label} must be an integer, got {value!r}")
    elif isinstance(like, str):
        _expect(isinstance(value, str), f"{label} must be a string")
    else:
        _expect(isinstance(value, Mapping), f"{label} must be an object")


def validate_config(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Check the JSON shape, then build what the stages build (no PPP
    draw).  Returns ``cfg`` for chaining."""
    # scenarios imports this module, so it is imported on first use
    from .scenarios import fixed_scenario, ppp_mean_users

    for section, body in cfg.items():
        _expect(section in DEFAULT_CONFIG, f"unknown config section "
                f"{section!r}; expected one of {sorted(DEFAULT_CONFIG)}")
        defaults = DEFAULT_CONFIG[section]
        for key, value in body.items():
            label = f"{section}.{key}"
            _expect(key in defaults, f"unknown key {label}; expected one of "
                    f"{sorted(defaults)}")
            like = defaults[key]
            if like is not None or value is not None:
                _check_shape(value, _NULL_DEFAULT_SHAPES.get(label, like),
                             label)

    # an AP may send 0 W, but a room whose APs all do carries no link
    _expect(cfg["room"]["ap_tx_power_w"] > 0,
            "room.ap_tx_power_w must be positive")
    room = room_from_config(cfg)
    for wl in WAVELENGTHS:  # each map the channel stage reads
        room.reflectivity_for(wl)
    receiver_from_config(cfg)

    sc = cfg["scenario"]
    _expect(sc["mode"] in ("ppp", "fixed"),
            f"scenario.mode must be 'ppp' or 'fixed', got {sc['mode']!r}")
    # numpy would refuse a negative seed with a ValueError
    _expect(sc["seed"] >= 0, "scenario.seed must be a non-negative integer")
    # only a fixed scenario reads the points; a PPP draw would drop them
    _expect((sc["mode"] == "fixed") == (sc["positions_m"] is not None),
            "scenario.mode 'fixed' requires scenario.positions_m, and no "
            "other mode accepts them")
    ppp_mean_users(room, sc["intensity_per_m2"])
    if sc["mode"] == "fixed":
        fixed_scenario(sc["name"], sc["positions_m"], room)

    topo = cfg["topology"]
    build_reference_topology(topo["mobile_wavelengths"],
                             topo["mobile_rates_mbps"])

    sw = cfg["sweep"]
    for key in ("drr", "workload_mips"):
        _expect(sw[key], f"sweep.{key} must be a non-empty list")
    # the count, then one task per axis entry checks each drr and workload
    check_task_count(sw["tasks"])
    for drr in sw["drr"]:
        demands_from_drr(sw["workload_mips"][0], drr, 1)
    for workload in sw["workload_mips"][1:]:
        demands_from_drr(workload, sw["drr"][0], 1)
    return cfg


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
    # the spec sees only the square, which is positive for either sign
    _expect(cfg["noise"]["preamp_a_per_sqrt_hz"] > 0,
            "noise.preamp_a_per_sqrt_hz must be positive")
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
