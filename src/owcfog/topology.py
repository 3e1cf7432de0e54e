"""Cloud/fog processing hierarchy: nodes, network devices, and routes.

The reference build mirrors the measured hardware catalogue: five fixed
processing locations (room, building, campus, metro, central cloud) plus
eight wavelength-tagged mobile units pooled as a mobile fog layer.  Every
processing location is reached from the OLT by exactly one route, so each
:class:`ProcessingNode` carries its route, with a fixed power-per-throughput
efficiency; routes to mobile units additionally depend on the optical
wireless wavelength serving that unit.

All types here are frozen: a topology is built once and then shared freely
(the placement sweep reads it from many cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .channel import WAVELENGTHS
from .errors import ConfigError

MOBILE_KIND = "MobileUnit"
FOG_KINDS = ("RoomFog", "BuildFog", "CampFog", "MetroFog", "CCloud")
NODE_KINDS = (MOBILE_KIND,) + FOG_KINDS

# ---------------------------------------------------------------------------
# hardware catalogue (vendor datasheet figures)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkDevice:
    """A network element with its rated power draw and line capacity."""

    name: str
    model: str
    power_w: float
    capacity_gbps: float

    def __post_init__(self) -> None:
        if self.power_w < 0:
            raise ConfigError(f"device {self.name}: negative power")
        if not self.capacity_gbps > 0:
            raise ConfigError(f"device {self.name}: capacity must be > 0")

    @property
    def efficiency_w_per_mbps(self) -> float:
        return self.power_w / (self.capacity_gbps * 1e3)


REFERENCE_DEVICES: Tuple[NetworkDevice, ...] = (
    NetworkDevice("OLT", "Tellabs 1134", 400.0, 320.0),
    NetworkDevice("ONU", "FTE7502 10G", 15.0, 10.0),
    NetworkDevice("Central cloud switch", "Cisco 6509", 3800.0, 320.0),
    NetworkDevice("Central cloud router", "Juniper MX-960", 5100.0, 660.0),
    NetworkDevice("Core router", "Cisco CRS-1 16-slots", 13200.0, 1200.0),
    NetworkDevice("Transponder", "ONS 15454", 50.0, 10.0),
    NetworkDevice("Optical switch", "Cisco SG220", 63.2, 100.0),
    NetworkDevice("Edge router", "Cisco 12816", 4200.0, 200.0),
    NetworkDevice("Aggregation switch", "Cisco 6880", 3800.0, 160.0),
    NetworkDevice("Ethernet switch", "Cisco 6880", 3800.0, 160.0),
)

#: Line rate of the ONU that feeds each access point, Mbit/s.
ONU_CAPACITY_MBPS = next(d.capacity_gbps for d in REFERENCE_DEVICES
                         if d.name == "ONU") * 1e3

# server capacity (MIPS) and processing efficiency (W/MIPS) per location
_NODE_SPECS: Dict[str, Tuple[float, float]] = {
    "CCloud": (144_000.0, 0.000796),
    "MetroFog": (73_440.0, 0.00129),
    "CampFog": (35_160.0, 0.0027),
    "BuildFog": (34_200.0, 0.0028),
    "RoomFog": (6_200.0, 0.003),
    MOBILE_KIND: (1_500.0, 0.004),
}

# route power-per-throughput (W/Mbps) from the OLT to each fixed location
ROUTE_EFFICIENCY_W_PER_MBPS: Dict[str, float] = {
    "CCloud": 0.128,
    "MetroFog": 0.0713,
    "CampFog": 0.0475,
    "BuildFog": 0.0238,
    "RoomFog": 0.0015,
}

# ... and per downlink wavelength for routes ending at a mobile unit
MOBILE_ROUTE_EFFICIENCY_W_PER_MBPS: Dict[str, float] = {
    "red": 0.00222,
    "yellow": 0.00195,
    "green": 0.00177,
    "blue": 0.00177,
}

# the building/campus Ethernet LAN cannot carry more than this
ETHERNET_LAN_CAP_MBPS = 10_000.0
DEFAULT_MOBILE_COUNT = 8

# device chains from the OLT: they set each route's capacity, never its
# efficiency (the published figures above are authoritative)
_ROUTE_CHAINS: Dict[str, Tuple[str, ...]] = {
    "RoomFog": ("ONU",),
    "BuildFog": ("Ethernet switch",),
    "CampFog": ("Ethernet switch", "Aggregation switch"),
    "MetroFog": ("Edge router",),
    "CCloud": ("Edge router", "Core router", "Central cloud switch",
               "Central cloud router"),
    MOBILE_KIND: ("ONU",),
}


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Route:
    """The single path from the OLT to one processing node."""

    devices: Tuple[str, ...]
    capacity_mbps: float
    efficiency_w_per_mbps: float

    def __post_init__(self) -> None:
        if not 0 < self.capacity_mbps < math.inf:
            raise ConfigError(
                f"route via {self.devices}: capacity must be finite and > 0")
        if not 0 < self.efficiency_w_per_mbps < math.inf:
            raise ConfigError(
                f"route via {self.devices}: efficiency must be finite and > 0")


@dataclass(frozen=True)
class ProcessingNode:
    """A compute location: capacity in MIPS, efficiency in W/MIPS, and the
    route from the OLT that carries its tasks' flows."""

    node_id: str
    kind: str
    capacity_mips: float
    efficiency_w_per_mips: float
    route: Route
    wavelength: Optional[str] = None  # mobile units only

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ConfigError(f"unknown node kind {self.kind!r}")
        if not 0 < self.capacity_mips < math.inf:
            raise ConfigError(
                f"node {self.node_id}: capacity must be finite and > 0")
        if not 0 < self.efficiency_w_per_mips < math.inf:
            raise ConfigError(
                f"node {self.node_id}: efficiency must be finite and > 0")
        if self.kind == MOBILE_KIND:
            if self.wavelength not in WAVELENGTHS:
                raise ConfigError(
                    f"mobile node {self.node_id} needs a wavelength tag, "
                    f"got {self.wavelength!r}")
        elif self.wavelength is not None:
            raise ConfigError(
                f"node {self.node_id}: only mobile units carry a wavelength")

    @property
    def is_mobile(self) -> bool:
        return self.kind == MOBILE_KIND


@dataclass(frozen=True)
class TopologyConfig:
    """Immutable node collection for the placement model; each node
    carries its own route, so nodes are all there is to check."""

    nodes: Tuple[ProcessingNode, ...]

    def __post_init__(self) -> None:
        ids = [n.node_id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate node ids in topology")
        non_mobile_kinds = [n.kind for n in self.nodes if not n.is_mobile]
        if len(set(non_mobile_kinds)) != len(non_mobile_kinds):
            raise ConfigError("at most one node per fixed fog kind")

    def node(self, node_id: str) -> ProcessingNode:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise ConfigError(f"no node {node_id!r} in topology")

    def mobiles(self) -> List[ProcessingNode]:
        return [n for n in self.nodes if n.is_mobile]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _chain_capacity_mbps(devices: Sequence[NetworkDevice]) -> float:
    return min(d.capacity_gbps for d in devices) * 1e3


def build_reference_topology(
        mobile_wavelengths: Optional[Sequence[str]] = None,
        mobile_rates_mbps: Optional[Sequence[float]] = None,
) -> TopologyConfig:
    """Build the standard five-location + eight-mobile topology.

    ``mobile_wavelengths[i]`` tags mobile unit ``i``; ``mobile_rates_mbps[i]``
    is its optical wireless downlink rate, which caps the route to that unit.
    Defaults describe the ideal scenario: the four colours cycled over eight
    units, every downlink at the full rate the ONU can feed.  Passing
    an explicit wavelength list builds the same fixed backbone around any
    number of mobile units (solved scenarios bring however many users the
    point process produced).
    """
    if mobile_wavelengths is None:
        mobile_wavelengths = [WAVELENGTHS[i % len(WAVELENGTHS)]
                              for i in range(DEFAULT_MOBILE_COUNT)]
    if mobile_rates_mbps is None:
        mobile_rates_mbps = [ONU_CAPACITY_MBPS] * len(mobile_wavelengths)
    if len(mobile_rates_mbps) != len(mobile_wavelengths):
        raise ConfigError(
            "topology.mobile_rates_mbps must give one rate per entry of "
            "topology.mobile_wavelengths, one per mobile unit")

    catalogue = {d.name: d for d in REFERENCE_DEVICES}
    nodes: List[ProcessingNode] = []

    for kind in FOG_KINDS:
        cap, eff = _NODE_SPECS[kind]
        node_id = kind.lower()
        chain = _ROUTE_CHAINS[kind]
        link = _chain_capacity_mbps([catalogue[c] for c in chain])
        if kind in ("BuildFog", "CampFog"):
            # the local Ethernet LAN is the stated bottleneck on these paths
            link = min(link, ETHERNET_LAN_CAP_MBPS)
        route = Route(chain, link, ROUTE_EFFICIENCY_W_PER_MBPS[kind])
        nodes.append(ProcessingNode(node_id, kind, cap, eff, route))

    cap, eff = _NODE_SPECS[MOBILE_KIND]
    for i, (wl, rate) in enumerate(zip(mobile_wavelengths, mobile_rates_mbps)):
        if wl not in WAVELENGTHS:
            raise ConfigError(
                f"topology.mobile_wavelengths[{i}] must be one of "
                f"{list(WAVELENGTHS)}, got {wl!r}")
        if not rate > 0:
            raise ConfigError(
                f"topology.mobile_rates_mbps[{i}] must be positive, "
                f"got {rate!r}")
        route = Route(_ROUTE_CHAINS[MOBILE_KIND],
                      min(float(rate), ONU_CAPACITY_MBPS),
                      MOBILE_ROUTE_EFFICIENCY_W_PER_MBPS[wl])
        nodes.append(ProcessingNode(f"mobile_{i}", MOBILE_KIND, cap, eff,
                                    route, wavelength=wl))

    return TopologyConfig(tuple(nodes))
