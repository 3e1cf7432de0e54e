"""Electrical-domain signal, noise, and SINR bookkeeping.

A photodetector turns received optical power P_rx into current R * P_rx; all
"powers" here are squared currents (A^2). For a user assigned wavelength w on
access point a, every other AP is either:

- an *interferer* on w (w assigned to some other user there): its light is
  modulated and adds interference power, or
- a source of *shot noise* on w (w unassigned there): the wavelength is still
  emitted for illumination, just unmodulated.

The receiver's own preamplifier noise floor is always present. Every noise
figure comes from the one :class:`owcfog.room.ReceiverSpec` the tracer
also reads. Interference is accounted *linearized*, as the sum of squared
interferer currents, which is what keeps the assignment model linear; the
test-side ``sinr`` in ``tests/oracles.py`` also computes the exact square of
the summed currents for comparison.

One kernel serves the allocator and the oracles in ``tests/oracles.py``:
:meth:`owcfog.allocator.AllocationProblem.from_table` turns the received
powers into signal and shot arrays once, and :func:`linearized_gammas` gives
each assigned user's linearized SINR from them. It adds a denominator as
preamp noise first, then the foreign APs in ascending order; callers sum
gammas left to right in user order. That is the exhaustive oracle's order,
so branch and bound scores every leaf bit for bit like it; both keep a leaf
only when it beats the incumbent by more than tol, so they return the same
assignment. ``np.sum`` reorders the additions and breaks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from owcfog.channel import ChannelRecords
from owcfog.errors import ConfigError
from owcfog.room import ReceiverSpec

#: Elementary charge, coulombs (2019 SI exact value).
ELECTRON_CHARGE_C = 1.602176634e-19


def preamp_noise(receiver: ReceiverSpec) -> float:
    """Preamplifier noise power N_pr * B, in A^2."""
    return receiver.preamp_a2_per_hz * receiver.bandwidth_hz


def linearized_gammas(signal_a2: np.ndarray, shot_a2: np.ndarray,
                      preamp_a2: float, slots) -> np.ndarray:
    """Linearized SINR of each user on ``slots``, one (AP, wavelength) index
    pair per row of the (n, A, W) signal and shot arrays. A foreign AP
    charges its signal when it serves the user's wavelength to someone else,
    its shot noise otherwise. Raises ConfigError if two users share a slot.
    """
    n, n_aps, n_wl = signal_a2.shape
    aps, wls = np.asarray(slots, dtype=np.intp).reshape(n, 2).T
    taken = np.zeros((n_aps, n_wl), dtype=bool)
    taken[aps, wls] = True
    if np.count_nonzero(taken) != n:
        raise ConfigError("a slot is assigned to more than one user")
    rows = np.arange(n)
    # row i: the APs lighting user i's wavelength, its own AP included
    charge = np.where(taken[:, wls].T, signal_a2[rows, :, wls],
                      shot_a2[rows, :, wls])
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
    """Dense (user, AP, wavelength) view of the received power and rate.

    Rows are users 0..U-1, the AP axis is by ascending id and wavelengths
    are in canonical order. :meth:`from_records` projects the tracer's
    :class:`owcfog.channel.ChannelRecords` onto that order.
    """

    ap_ids: List[int]
    wavelengths: List[str]
    rx_power_w: np.ndarray      # (U, A, W)
    rate_bps: np.ndarray        # (U, A, W)

    @classmethod
    def from_records(cls, records: ChannelRecords) -> "ChannelTable":
        # a room may list its APs out of id order
        order = np.argsort(records.ap_ids, kind="stable")
        return cls([records.ap_ids[a] for a in order],
                   list(records.wavelengths),
                   np.take(records.rx_power_w, order, axis=1),
                   np.take(records.rate_bps, order, axis=1))
