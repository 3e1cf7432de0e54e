"""The room and its users, as plain data: no numpy, no tracer.

The optical room (its geometry, surfaces, access points and receiver front
end) and the user positions of a scenario. Each type checks its own ranges
when it is built, so the config loader refuses a bad document by building
them, and the fog stage reads the wavelength names, without importing the
ray tracer or numpy. ``owcfog.channel`` traces these rooms, and
``owcfog.scenarios`` draws PPP users into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from owcfog.errors import ConfigError, ResourceLimitError

#: Wavelength identifiers, in fixed canonical order.
WAVELENGTHS = ("red", "yellow", "green", "blue")

#: The surfaces a reflectivity map names.
SURFACES = ("walls", "ceiling", "floor")

#: The most APs ``default_ap_grid`` builds: a 64 x 64 grid, 512 times the
#: default 4 x 2. Each AP costs under 1 KB at load (a 300 x 300 grid took
#: 77 MB in ``validate``) and adds a trace per user position and map.
MAX_APS = 4096

#: The most links a room's receiver grid may have (points x APs), and the
#: most traces ``owcfog.channel.compute_channel_records`` takes (positions x
#: APs x reflectivity maps): 1,024 times the 1,024 of the default grid. The
#: records of that many links hold at most 168 MB, and at about 0.6 ms a
#: trace on the default 0.5 m mesh they take about ten minutes.
MAX_LINKS = 1 << 20


@dataclass
class AccessPoint:
    """A ceiling light unit acting as an optical transmitter.

    Args:
        ap_id: stable identifier used in records and CSV output.
        position_m: (x, y, z) of the emitter.
        half_power_semiangle_deg: Lambertian half-power semiangle, in (0, 90).
        tx_power_w: transmit optical power per wavelength, watts.

    Raises:
        ConfigError: for a non-finite position, a negative or non-finite
            transmit power, a power for a wavelength outside
            ``WAVELENGTHS``, or a semiangle outside (0, 90).
    """

    ap_id: int
    position_m: Tuple[float, float, float]
    half_power_semiangle_deg: float = 60.0
    tx_power_w: Dict[str, float] = field(
        default_factory=lambda: {w: 1.8 for w in WAVELENGTHS}
    )

    def __post_init__(self):
        if not all(-math.inf < c < math.inf for c in self.position_m):
            raise ConfigError(f"AP {self.ap_id} position must be finite")
        if not all(0 <= po < math.inf for po in self.tx_power_w.values()):
            raise ConfigError(f"AP {self.ap_id} transmit power must be "
                              f"non-negative and finite")
        for wl in self.tx_power_w:
            if wl not in WAVELENGTHS:
                raise ConfigError(f"AP {self.ap_id} transmit power names "
                                  f"unknown wavelength {wl!r}")
        lambertian_order(self.half_power_semiangle_deg)

    @property
    def lambertian_order(self) -> float:
        return lambertian_order(self.half_power_semiangle_deg)


@dataclass
class ReceiverSpec:
    """Photodetector and front end shared by all users: the tracer reads
    its area and field of view, the signal model its bandwidth B,
    responsivity R and preamplifier noise density N_pr (A^2/Hz).

    ``rate_factor`` maps 3-dB channel bandwidth to OOK bit rate (1 bit per Hz
    of usable bandwidth by default).
    """

    area_m2: float = 1.0e-4
    fov_deg: float = 40.0
    bandwidth_hz: float = 5.0e9
    responsivity_a_per_w: float = 0.4
    rate_factor: float = 1.0
    preamp_a2_per_hz: float = (4.47e-12) ** 2

    def __post_init__(self):
        noise = ("bandwidth_hz", "preamp_a2_per_hz", "responsivity_a_per_w")
        for key in noise + ("area_m2", "fov_deg", "rate_factor"):
            value = getattr(self, key)
            if not 0 < value < math.inf:
                kind = "noise parameters: " if key in noise else ""
                raise ConfigError(f"{kind}receiver.{key} must be positive "
                                  f"and finite, got {value!r}")
        if self.fov_deg > 90.0:
            raise ConfigError("receiver.fov_deg must be at most 90")


@dataclass
class RoomConfig:
    """Room geometry, surface properties, and simulation discretization.

    Reflectivity is a mapping ``wavelength -> {"walls": r, "ceiling": r,
    "floor": r}``; a flat ``{"walls": ..., ...}`` mapping is accepted and
    applied to every wavelength, and ``reflectivity_for`` refuses any other
    key. ``aps=None`` is the default 4 x 2 grid. A receiver grid with more
    than :data:`MAX_LINKS` links (grid points x APs) is refused with
    ``ResourceLimitError``.
    """

    length_m: float = 8.0
    width_m: float = 4.0
    height_m: float = 3.0
    reflectivity: Dict = field(
        default_factory=lambda: {"walls": 0.8, "ceiling": 0.8, "floor": 0.3}
    )
    element_edge_m: float = 0.1
    max_elements: int = 200_000
    time_bin_s: float = 1.0e-11
    receiver_plane_m: float = 1.0
    grid_nx: int = 16
    grid_ny: int = 8
    aps: Optional[Sequence[AccessPoint]] = None

    def __post_init__(self):
        for key in ("length_m", "width_m", "height_m", "element_edge_m",
                    "time_bin_s", "receiver_plane_m", "max_elements",
                    "grid_nx", "grid_ny"):
            value = getattr(self, key)
            if not 0 < value < math.inf:
                raise ConfigError(
                    f"room.{key} must be positive and finite, got {value!r}")
        if not self.receiver_plane_m < self.height_m:
            raise ConfigError("room.receiver_plane_m must be positive and "
                              "finite, and below the ceiling")
        if self.aps is None:
            self.aps = default_ap_grid(self.length_m, self.width_m, self.height_m)
        elif not self.aps:
            raise ConfigError("room.aps must list at least one AP")
        seen = set()
        for ap in self.aps:
            if ap.ap_id in seen:
                raise ConfigError(f"duplicate ap_id {ap.ap_id}")
            seen.add(ap.ap_id)
        check_link_count(self.grid_nx * self.grid_ny * len(self.aps),
                         f"room.grid_nx x grid_ny x {len(self.aps)} APs")

    def reflectivity_for(self, wavelength: str) -> Dict[str, float]:
        """Per-surface reflectivity map for one wavelength.

        A key that is neither a surface nor a wavelength, a surface key
        beside wavelength maps, and an unknown surface inside a wavelength's
        map are refused: each would otherwise be ignored.
        """
        table = self.reflectivity
        for key in table:
            if key not in SURFACES and key not in WAVELENGTHS:
                raise ConfigError(
                    f"unknown reflectivity key {key!r}: expected a surface "
                    f"{SURFACES} or a wavelength {WAVELENGTHS}")
        if all(k in SURFACES for k in table):
            out = dict(table)
        else:
            if wavelength not in table:
                raise ConfigError(f"no reflectivity entry for wavelength {wavelength!r}")
            if not isinstance(table[wavelength], Mapping):
                raise ConfigError(
                    f"reflectivity entry for {wavelength!r} must be a map")
            for key in table:
                if key in SURFACES:
                    raise ConfigError(
                        f"reflectivity key {key!r} sits beside wavelength "
                        f"maps: give it inside each wavelength's map")
            out = dict(table[wavelength])
        for key in SURFACES:
            if key not in out:
                raise ConfigError(f"reflectivity map missing {key!r}")
            value = out[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not 0.0 <= value < 1.0:
                raise ConfigError(
                    f"reflectivity[{key}] must be a number in [0, 1), "
                    f"got {value!r}")
        for key in out:
            if key not in SURFACES:
                raise ConfigError(
                    f"unknown surface {key!r} in the reflectivity map for "
                    f"{wavelength!r}: expected one of {SURFACES}")
        return out


def default_ap_grid(length_m: float = 8.0, width_m: float = 4.0,
                    height_m: float = 3.0, nx: int = 4, ny: int = 2,
                    tx_power_w: Optional[Dict[str, float]] = None,
                    half_power_semiangle_deg: float = 60.0
                    ) -> List[AccessPoint]:
    """Evenly spaced ceiling AP grid (nx along the length, ny along the width).

    Raises:
        ConfigError: for an empty grid.
        ResourceLimitError: for more than :data:`MAX_APS` APs, before any
            is built.
    """
    for key, n in (("room.ap_grid_nx", nx), ("room.ap_grid_ny", ny)):
        if not n >= 1:
            raise ConfigError(f"{key} must be a positive integer, got {n!r}")
    if nx * ny > MAX_APS:
        raise ResourceLimitError(
            f"room.ap_grid_nx x ap_grid_ny gives {nx * ny} APs, above the "
            f"cap of {MAX_APS}")
    aps = []
    ap_id = 0
    for j in range(ny):
        for i in range(nx):
            x = (i + 0.5) * length_m / nx
            y = (j + 0.5) * width_m / ny
            aps.append(AccessPoint(
                ap_id=ap_id,
                position_m=(x, y, height_m),
                half_power_semiangle_deg=half_power_semiangle_deg,
                tx_power_w=dict(tx_power_w) if tx_power_w else {w: 1.8 for w in WAVELENGTHS},
            ))
            ap_id += 1
    return aps


def check_link_count(links, counted: str) -> None:
    """Refuse more than :data:`MAX_LINKS` links; ``counted`` names what
    was multiplied to count them."""
    if links > MAX_LINKS:
        raise ResourceLimitError(
            f"{counted} give {links} links, above the cap of {MAX_LINKS}")


def lambertian_order(half_power_semiangle_deg: float) -> float:
    """Lambertian mode number m = -ln 2 / ln(cos(phi_half)).

    Args:
        half_power_semiangle_deg: half-power semiangle in degrees, in (0, 90).

    Returns:
        Mode number m (1.0 for a 60 degree semiangle).
    """
    if not 0.0 < half_power_semiangle_deg < 90.0:
        raise ConfigError(
            f"half-power semiangle must be in (0, 90) deg, got {half_power_semiangle_deg}"
        )
    return -math.log(2.0) / math.log(math.cos(math.radians(half_power_semiangle_deg)))


# ---------------------------------------------------------------------
# users
# ---------------------------------------------------------------------

#: The largest mean ``numpy.random.Generator.poisson`` accepts, about 9.2e18:
#: the expression of ``POISSON_LAM_MAX`` in numpy's
#: ``numpy/random/_common.pyx``, which numpy does not export to Python.
POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10


@dataclass
class Scenario:
    """A set of user positions on the receiver plane."""

    name: str
    mode: str                                # "ppp" | "fixed"
    seed: int
    positions_m: Tuple[Tuple[float, float], ...]

    @property
    def n_users(self) -> int:
        return len(self.positions_m)


def ppp_mean_users(room: RoomConfig, intensity_per_m2: float) -> float:
    """Mean user count of a PPP draw: intensity × floor area.  The loader
    calls it to refuse a bad intensity without making a draw; a mean past
    :data:`POISSON_LAM_MAX` is one numpy cannot draw."""
    if not intensity_per_m2 > 0:
        raise ConfigError(f"scenario.intensity_per_m2 must be positive, "
                          f"got {intensity_per_m2!r}")
    mean = intensity_per_m2 * room.length_m * room.width_m
    if mean > POISSON_LAM_MAX:
        raise ConfigError(
            f"scenario.intensity_per_m2 of {intensity_per_m2!r} gives a mean "
            f"of {mean!r} users, above the Poisson limit {POISSON_LAM_MAX!r}")
    return mean


def fixed_scenario(name: str, positions_m: Sequence[Sequence[float]],
                   room: RoomConfig, seed: int = 0) -> Scenario:
    """A scenario with explicit user coordinates (validated against the room)."""
    pos = []
    for i, p in enumerate(positions_m):
        x, y = float(p[0]), float(p[1])
        if not (0.0 <= x <= room.length_m and 0.0 <= y <= room.width_m):
            raise ConfigError(f"scenario.positions_m[{i}] at ({x}, {y}) lies "
                              f"outside the room")
        pos.append((x, y))
    return Scenario(name=name or "fixed", mode="fixed", seed=seed,
                    positions_m=tuple(pos))
