"""Electrical-domain signal, noise, and SINR bookkeeping.

A photodetector turns received optical power P_rx into current R * P_rx; all
"powers" here are squared currents (A^2). For a user assigned wavelength w on
access point a, every other AP is either:

- an *interferer* on w (w assigned to some other user there): its light is
  modulated and adds interference power, or
- a source of *shot noise* on w (w unassigned there): the wavelength is still
  emitted for illumination, just unmodulated.

The receiver's own preamplifier noise floor is always present. Interference
is accounted *linearized*, as the sum of squared interferer currents, which
is what keeps the assignment model linear; :func:`owcfog.audit.sinr` also
computes the exact square of the summed currents for comparison.

One kernel serves the allocator and the audit references:
:func:`photocurrent_powers` gives the signal and shot arrays, and
:func:`linearized_gammas` each assigned user's linearized SINR. It adds a
denominator as preamp noise first, then the foreign APs in ascending order;
callers sum gammas left to right in user order. That is the exhaustive
oracle's order, so branch and bound scores leaves bit for bit like it and
their tie-breaks agree. ``np.sum`` reorders the additions and breaks this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from owcfog.channel import WAVELENGTHS, ChannelRecord
from owcfog.errors import ConfigError

#: Elementary charge, coulombs (2019 SI exact value).
ELECTRON_CHARGE_C = 1.602176634e-19


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


def preamp_noise(noise: NoiseParams) -> float:
    """Preamplifier noise power N_pr * B, in A^2."""
    return noise.preamp_a2_per_hz * noise.bandwidth_hz


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
# Channel table
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

