"""Electrical-domain signal, noise, and SINR bookkeeping.

A photodetector turns received optical power P_rx into current R * P_rx; all
"powers" here are squared currents (A^2). For a user assigned wavelength w on
access point a, every other AP is either:

- an *interferer* on w (w assigned to some other user there): its light is
  modulated and adds interference power, or
- a source of *shot noise* on w (w unassigned there): the wavelength is still
  emitted for illumination, just unmodulated.

The receiver's own preamplifier noise floor is always present. Two
interference accounting modes exist and must never be merged:

- ``linearized``: sum of squared interferer currents (what the assignment
  MILP uses, so its constraints stay linear), and
- ``exact``: square of the summed interferer currents.

The exact mode never reports a higher SINR than the linearized mode.

One kernel serves the allocator, its audits and :func:`sinr`:
:func:`photocurrent_powers` gives the signal and shot arrays, and
:func:`linearized_gammas` each assigned user's linearized SINR. It adds a
denominator as preamp noise first, then the foreign APs in ascending order;
callers sum gammas left to right in user order. That is the exhaustive
oracle's order, so branch and bound scores leaves bit for bit like it and
their tie-breaks agree. ``np.sum`` reorders the additions and breaks this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from owcfog.channel import WAVELENGTHS, ChannelRecord
from owcfog.errors import ConfigError

#: Elementary charge, coulombs (2019 SI exact value).
ELECTRON_CHARGE_C = 1.602176634e-19

_MODES = ("linearized", "exact")


@dataclass
class NoiseParams:
    """Receiver noise model inputs.

    Attributes:
        bandwidth_hz: receiver electrical bandwidth B.
        preamp_a2_per_hz: preamplifier noise density N_pr (A^2/Hz).
        responsivity_a_per_w: detector responsivity R.
    """

    bandwidth_hz: float = 5.0e9
    preamp_a2_per_hz: float = (4.47e-12) ** 2
    responsivity_a_per_w: float = 0.4

    def __post_init__(self):
        if self.bandwidth_hz <= 0 or self.preamp_a2_per_hz < 0 \
                or self.responsivity_a_per_w <= 0:
            raise ConfigError("noise parameters must be positive")


def electrical_signal_power(rx_power_w: float, responsivity_a_per_w: float) -> float:
    """Signal power (R * P_rx)^2 in A^2 for a received optical power."""
    if rx_power_w < 0:
        raise ConfigError("received power must be non-negative")
    i = responsivity_a_per_w * rx_power_w
    return i * i


def preamp_noise(noise: NoiseParams) -> float:
    """Preamplifier noise power N_pr * B, in A^2."""
    return noise.preamp_a2_per_hz * noise.bandwidth_hz


def shot_noise(rx_power_w: float, noise: NoiseParams) -> float:
    """Shot noise 2 e (R * P_rx) B contributed by one optical source, A^2."""
    if rx_power_w < 0:
        raise ConfigError("received power must be non-negative")
    return 2.0 * ELECTRON_CHARGE_C * noise.responsivity_a_per_w * rx_power_w \
        * noise.bandwidth_hz


def sinr_db(sinr_linear: float) -> float:
    """10 log10 of a linear SINR; -inf for zero."""
    if sinr_linear < 0:
        raise ConfigError("SINR cannot be negative")
    if sinr_linear == 0.0:
        return -math.inf
    return 10.0 * math.log10(sinr_linear)


def photocurrent_powers(rx_power_w: np.ndarray, noise: NoiseParams
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Signal (R P)^2 and shot noise 2 e (R P) B, in A^2, for each power."""
    if np.any(rx_power_w < 0):
        raise ConfigError("received power must be non-negative")
    current = noise.responsivity_a_per_w * rx_power_w
    return current ** 2, 2.0 * ELECTRON_CHARGE_C * current * noise.bandwidth_hz


def _interferers(slots, shape: Tuple[int, int, int]):
    """AP and wavelength indices of the users on ``slots``, and an (n, A)
    mask set where AP b serves user i's wavelength to someone else."""
    n, n_aps, n_wl = shape
    aps, wls = np.asarray(slots, dtype=np.intp).reshape(n, 2).T
    taken = np.zeros((n_aps, n_wl), dtype=bool)
    taken[aps, wls] = True
    if np.count_nonzero(taken) != n:
        raise ConfigError("a slot is assigned to more than one user")
    busy = taken[:, wls].T
    busy[np.arange(n), aps] = False
    return aps, wls, busy


def linearized_gammas(signal_a2: np.ndarray, shot_a2: np.ndarray,
                      preamp_a2: float, slots) -> np.ndarray:
    """Linearized SINR of each user on ``slots``, one (AP, wavelength) index
    pair per row of the (n, A, W) signal and shot arrays. A foreign AP
    charges its signal when it serves the user's wavelength to someone else,
    its shot noise otherwise. Raises ConfigError if two users share a slot.
    """
    aps, wls, busy = _interferers(slots, signal_a2.shape)
    rows = np.arange(len(aps))
    charge = np.where(busy, signal_a2[rows, :, wls], shot_a2[rows, :, wls])
    charge[rows, aps] = 0.0          # adding 0.0 for the own AP is exact
    denom = np.full(len(aps), preamp_a2)
    for column in charge.T:          # preamp first, then APs in order
        denom += column
    return signal_a2[rows, aps, wls] / denom


# =====================================================================
# Channel table + assignments
# =====================================================================

@dataclass
class ChannelTable:
    """Dense (user, AP, wavelength) view over a list of channel records.

    Axes are ordered: users ascending, AP ids ascending, wavelengths in
    canonical order. Built via :meth:`from_records`, which requires the
    record list to cover the full cartesian product exactly once.
    """

    users: List[int]
    ap_ids: List[int]
    wavelengths: List[str]
    rx_power_w: np.ndarray      # (U, A, W)
    rate_bps: np.ndarray        # (U, A, W)
    positions: List[Tuple[float, float]] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: Sequence[ChannelRecord]) -> "ChannelTable":
        users = sorted({r.user for r in records})
        ap_ids = sorted({r.ap_id for r in records})
        wavelengths = [w for w in WAVELENGTHS
                       if any(r.wavelength == w for r in records)]
        extra = {r.wavelength for r in records} - set(wavelengths)
        if extra:
            raise ConfigError(f"unknown wavelengths in records: {sorted(extra)}")
        shape = (len(users), len(ap_ids), len(wavelengths))
        rx = np.full(shape, np.nan)
        rate = np.full(shape, np.nan)
        pos: Dict[int, Tuple[float, float]] = {}
        uix = {u: i for i, u in enumerate(users)}
        aix = {a: i for i, a in enumerate(ap_ids)}
        wix = {w: i for i, w in enumerate(wavelengths)}
        for r in records:
            key = (uix[r.user], aix[r.ap_id], wix[r.wavelength])
            if not np.isnan(rx[key]):
                raise ConfigError(
                    f"duplicate record for user {r.user}, ap {r.ap_id}, "
                    f"{r.wavelength}")
            rx[key] = r.rx_power_w
            rate[key] = r.rate_bps
            pos[r.user] = (r.user_x, r.user_y)
        if np.isnan(rx).any():
            raise ConfigError("records do not cover every (user, AP, wavelength)")
        return cls(users, ap_ids, wavelengths, rx, rate,
                   [pos[u] for u in users])


Assignment = Mapping[int, Tuple[int, str]]
"""user -> (ap_id, wavelength)."""


def _validate_assignment(assignment: Assignment, table: ChannelTable):
    slots = set()
    for u, (a, w) in assignment.items():
        if u not in table.users:
            raise ConfigError(f"assignment names unknown user {u}")
        if a not in table.ap_ids:
            raise ConfigError(f"assignment names unknown AP {a}")
        if w not in table.wavelengths:
            raise ConfigError(f"assignment names unknown wavelength {w!r}")
        if (a, w) in slots:
            raise ConfigError(f"slot (ap {a}, {w}) assigned twice")
        slots.add((a, w))


@dataclass
class SINRBreakdown:
    """Per-user SINR decomposition, all powers in A^2."""

    signal_a2: float
    interference_a2: float
    shot_a2: float
    preamp_a2: float
    sinr: float
    sinr_db: float


def sinr(assignment: Assignment, table: ChannelTable, noise: NoiseParams,
         mode: str = "linearized") -> Dict[int, SINRBreakdown]:
    """SINR of every assigned user under a WDMA assignment.

    Args:
        assignment: user -> (ap_id, wavelength); at most one user per slot.
        table: complete channel table (assigned-but-out-of-FOV links simply
            carry zero received power and contribute nothing).
        noise: receiver noise parameters.
        mode: "linearized" (sum of squared interferer currents) or "exact"
            (square of summed currents).

    Returns:
        dict user -> SINRBreakdown.
    """
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    _validate_assignment(assignment, table)
    rows = [table.users.index(u) for u in assignment]
    slots = [(table.ap_ids.index(a), table.wavelengths.index(w))
             for a, w in assignment.values()]
    signal, shot = photocurrent_powers(table.rx_power_w[rows], noise)
    preamp = preamp_noise(noise)
    aps, wls, busy = _interferers(slots, signal.shape)
    n = np.arange(len(rows))
    own, foreign = signal[n, aps, wls], np.where(busy, signal[n, :, wls], 0.0)
    quiet = np.where(busy, 0.0, shot[n, :, wls])
    quiet[n, aps] = 0.0
    shot_total = quiet.sum(axis=1)
    if mode == "linearized":
        interference = foreign.sum(axis=1)
        ratios = linearized_gammas(signal, shot, preamp, slots)
    else:
        # sqrt of a rounded square returns the current exactly (radix 2)
        interference = np.sqrt(foreign).sum(axis=1) ** 2
        ratios = own / (interference + shot_total + preamp)
    return {u: SINRBreakdown(sig, itf, sh, preamp, r, sinr_db(r))
            for u, sig, itf, sh, r in zip(
                assignment, own.tolist(), interference.tolist(),
                shot_total.tolist(), ratios.tolist())}
