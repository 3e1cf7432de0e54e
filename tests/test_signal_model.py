"""Signal/noise/SINR model tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owcfog.allocator import AllocationProblem
from owcfog.channel import compute_channel_records
from owcfog.errors import ConfigError
from owcfog.room import WAVELENGTHS, ReceiverSpec, RoomConfig, default_ap_grid
from owcfog.signal_model import (
    ELECTRON_CHARGE_C,
    ChannelTable,
    preamp_noise,
)

from oracles import electrical_signal_power, shot_noise, sinr, sinr_db

# Frozen expectations (hand arithmetic first):
#   (0.4 A/W * 1e-6 W)^2
SIGNAL_1UW = 1.6e-13
#   2 * 1.602176634e-19 * 0.4 * 1e-6 * 5e9
SHOT_1UW = 6.408706536e-16
#   (4.47 pA/rtHz)^2 * 5 GHz
PREAMP_DEFAULT = 9.99045e-14


def test_electron_charge_is_si_exact():
    assert ELECTRON_CHARGE_C == 1.602176634e-19


def test_electrical_signal_power_frozen():
    assert electrical_signal_power(1e-6, 0.4) == pytest.approx(SIGNAL_1UW, rel=1e-12)
    assert electrical_signal_power(0.0, 0.4) == 0.0


def test_preamp_noise_default_near_1e_13():
    got = preamp_noise(ReceiverSpec())
    assert got == pytest.approx(PREAMP_DEFAULT, rel=1e-12)
    assert got == pytest.approx(1.0e-13, rel=0.01)


def test_shot_noise_frozen():
    got = shot_noise(1e-6, ReceiverSpec())
    assert got == pytest.approx(SHOT_1UW, rel=1e-12)
    # scales linearly in both power and bandwidth
    assert shot_noise(2e-6, ReceiverSpec()) == pytest.approx(2 * SHOT_1UW, rel=1e-12)
    assert shot_noise(1e-6, ReceiverSpec(bandwidth_hz=2.5e9)) == pytest.approx(
        SHOT_1UW / 2, rel=1e-12)


@pytest.mark.parametrize("field", ["bandwidth_hz", "responsivity_a_per_w",
                                   "preamp_a2_per_hz"])
def test_receiver_rejects_negative_noise_figures(field):
    with pytest.raises(ConfigError, match="noise parameters"):
        ReceiverSpec(**{field: -1.0})
    # a zero figure is refused too, before any channel is traced
    with pytest.raises(ConfigError, match="noise parameters"):
        ReceiverSpec(**{field: 0.0})
    # NaN fails every comparison, so it must not slip past the range check
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="noise parameters"):
            ReceiverSpec(**{field: bad})


@pytest.mark.parametrize("field", ["area_m2", "fov_deg", "rate_factor",
                                   "bandwidth_hz", "responsivity_a_per_w"])
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_receiver_rejects_bad_link_figures(field, bad):
    # a NaN rate factor would put NaN into every tabulated rate
    with pytest.raises(ConfigError,
                       match=f"receiver.{field} must be positive and finite"):
        ReceiverSpec(**{field: bad})


def test_receiver_rejects_fov_past_90_degrees():
    assert ReceiverSpec(fov_deg=90.0).fov_deg == 90.0
    with pytest.raises(ConfigError, match="receiver.fov_deg must be at most 90"):
        ReceiverSpec(fov_deg=90.5)


def test_sinr_db_round_trip():
    assert sinr_db(100.0) == pytest.approx(20.0)
    assert sinr_db(10 ** 1.4) == pytest.approx(14.0, abs=1e-12)
    assert sinr_db(0.0) == -math.inf
    with pytest.raises(ConfigError):
        sinr_db(-1.0)


# =====================================================================
# table plumbing
# =====================================================================

def _table(powers):
    """powers[u][a] = {wavelength: W} -> ChannelTable; every pair lists the
    same wavelengths, in canonical order."""
    wavelengths = list(powers[0][0])
    rx = np.array([[[per_w[w] for w in wavelengths] for per_w in per_ap]
                   for per_ap in powers])
    return ChannelTable(list(range(rx.shape[1])), wavelengths, rx,
                        np.full(rx.shape, 5e9))


def test_table_orders_aps_by_id():
    # a room may list its APs out of id order; the table's AP axis is by id
    aps = default_ap_grid(nx=3, ny=1)
    for ap, ap_id in zip(aps, (7, 3, 5)):
        ap.ap_id = ap_id
    rooms = [RoomConfig(element_edge_m=0.5, aps=order)
             for order in (aps, sorted(aps, key=lambda ap: ap.ap_id))]
    positions = [(1.0, 1.0), (6.0, 3.0)]
    listed, by_id = (compute_channel_records(room, ReceiverSpec(), positions)
                     for room in rooms)
    assert listed.ap_ids == [7, 3, 5] and by_id.ap_ids == [3, 5, 7]
    t = ChannelTable.from_records(listed)
    assert (t.ap_ids, t.wavelengths) == ([3, 5, 7], list(WAVELENGTHS))
    assert np.array_equal(t.rx_power_w, listed.rx_power_w[:, [1, 2, 0]])
    assert np.array_equal(t.rate_bps, listed.rate_bps[:, [1, 2, 0]])
    assert np.array_equal(t.rx_power_w, by_id.rx_power_w)
    assert np.array_equal(t.rate_bps, by_id.rate_bps)


# =====================================================================
# SINR accounting
# =====================================================================

def test_sinr_no_interferers_reduces_to_snr():
    # one user, two APs: the unassigned AP contributes shot noise only
    t = _table([[{"red": 1e-6}, {"red": 2e-6}]])
    receiver = ReceiverSpec()
    got = sinr({0: (0, "red")}, AllocationProblem.from_table(t, receiver))[0]
    want = SIGNAL_1UW / (shot_noise(2e-6, receiver) + preamp_noise(receiver))
    assert got.sinr == pytest.approx(want, rel=1e-12)
    assert got.interference_a2 == 0.0
    assert got.sinr_db == pytest.approx(10 * math.log10(want), rel=1e-12)


def test_sinr_single_interferer_modes_agree():
    # with exactly one interferer the two accounting modes coincide
    t = _table([
        [{"red": 1e-6}, {"red": 5e-7}],
        [{"red": 5e-7}, {"red": 1e-6}],
    ])
    asg = {0: (0, "red"), 1: (1, "red")}
    problem = AllocationProblem.from_table(t, ReceiverSpec())
    lin = sinr(asg, problem, "linearized")
    ex = sinr(asg, problem, "exact")
    for u in (0, 1):
        assert lin[u].sinr == pytest.approx(ex[u].sinr, rel=1e-12)
        assert lin[u].interference_a2 > 0.0


def test_sinr_two_equal_interferers_ratio_two():
    # (i + i)^2 = 4 i^2 vs i^2 + i^2 = 2 i^2: exact interference doubles
    t = _table([
        [{"red": 1e-6}, {"red": 4e-7}, {"red": 4e-7}],
        [{"red": 1e-7}, {"red": 1e-6}, {"red": 1e-7}],
        [{"red": 1e-7}, {"red": 1e-7}, {"red": 1e-6}],
    ])
    asg = {0: (0, "red"), 1: (1, "red"), 2: (2, "red")}
    problem = AllocationProblem.from_table(t, ReceiverSpec())
    lin = sinr(asg, problem, "linearized")[0]
    ex = sinr(asg, problem, "exact")[0]
    assert ex.interference_a2 == pytest.approx(2.0 * lin.interference_a2,
                                               rel=1e-12)
    assert ex.sinr < lin.sinr


def test_assigned_wavelength_swaps_shot_for_interference():
    receiver = ReceiverSpec()
    t = _table([
        [{"red": 1e-6, "blue": 1e-6}, {"red": 3e-7, "blue": 3e-7}],
        [{"red": 2e-7, "blue": 2e-7}, {"red": 8e-7, "blue": 8e-7}],
    ])
    # other user on a different colour: AP 1 is pure shot noise for user 0
    problem = AllocationProblem.from_table(t, receiver)
    quiet = sinr({0: (0, "red"), 1: (1, "blue")}, problem)[0]
    assert quiet.interference_a2 == 0.0
    assert quiet.shot_a2 == pytest.approx(shot_noise(3e-7, receiver), rel=1e-12)
    # same colour: the 3e-7 W from AP 1 becomes interference, shot term drops
    loud = sinr({0: (0, "red"), 1: (1, "red")}, problem)[0]
    assert loud.shot_a2 == 0.0
    assert loud.interference_a2 == pytest.approx(
        electrical_signal_power(3e-7, receiver.responsivity_a_per_w), rel=1e-12)
    assert loud.sinr < quiet.sinr


def test_out_of_fov_interferer_contributes_nothing():
    # zero received power from AP 1 (outside FOV): assigning it to another
    # user must not change user 0's SINR at all
    t = _table([
        [{"red": 1e-6}, {"red": 0.0}],
        [{"red": 1e-7}, {"red": 9e-7}],
    ])
    receiver = ReceiverSpec()
    problem = AllocationProblem.from_table(t, receiver)
    alone = sinr({0: (0, "red")}, problem)[0]
    crowded = sinr({0: (0, "red"), 1: (1, "red")}, problem)[0]
    assert crowded.sinr == pytest.approx(alone.sinr, rel=1e-12)


def test_sinr_matches_longhand_expansion():
    # fully written-out denominator for a 3-AP, 2-colour case
    receiver = ReceiverSpec(bandwidth_hz=4e9, preamp_a2_per_hz=3e-23,
                            responsivity_a_per_w=0.5)
    p = [
        [{"red": 9e-7, "blue": 6e-7}, {"red": 2e-7, "blue": 1e-7},
         {"red": 3e-7, "blue": 2e-7}],
        [{"red": 1e-7, "blue": 2e-7}, {"red": 8e-7, "blue": 7e-7},
         {"red": 2e-7, "blue": 3e-7}],
        [{"red": 2e-7, "blue": 1e-7}, {"red": 1e-7, "blue": 2e-7},
         {"red": 7e-7, "blue": 9e-7}],
    ]
    t = _table(p)
    asg = {0: (0, "red"), 1: (1, "red"), 2: (2, "blue")}
    got = sinr(asg, AllocationProblem.from_table(t, receiver), "linearized")
    R, B = 0.5, 4e9
    e = ELECTRON_CHARGE_C
    # user 0 on red: AP1 interferes (user 1 on red), AP2 is unmodulated red
    den0 = (R * 2e-7) ** 2 + 2 * e * R * 3e-7 * B + 3e-23 * B
    assert got[0].sinr == pytest.approx((R * 9e-7) ** 2 / den0, rel=1e-12)
    # user 2 on blue: nobody else uses blue, both other APs are shot sources
    den2 = 2 * e * R * (1e-7 + 2e-7) * B + 3e-23 * B
    assert got[2].sinr == pytest.approx((R * 9e-7) ** 2 / den2, rel=1e-12)


def test_sinr_rejects_double_booked_slot():
    t = _table([
        [{"red": 1e-6}, {"red": 1e-7}],
        [{"red": 1e-7}, {"red": 1e-6}],
    ])
    with pytest.raises(ConfigError):
        sinr({0: (0, "red"), 1: (0, "red")},
             AllocationProblem.from_table(t, ReceiverSpec()))


@given(st.lists(st.floats(min_value=0.0, max_value=1e-4),
                min_size=9, max_size=9))
@settings(max_examples=60)
def test_linearized_sinr_never_below_exact(vals):
    # sum of squares <= square of sums (non-negative currents), hence
    # linearized interference underestimates and its SINR dominates
    p = [
        [{"red": vals[0] + 1e-9}, {"red": vals[1]}, {"red": vals[2]}],
        [{"red": vals[3]}, {"red": vals[4] + 1e-9}, {"red": vals[5]}],
        [{"red": vals[6]}, {"red": vals[7]}, {"red": vals[8] + 1e-9}],
    ]
    t = _table(p)
    asg = {0: (0, "red"), 1: (1, "red"), 2: (2, "red")}
    problem = AllocationProblem.from_table(t, ReceiverSpec())
    lin = sinr(asg, problem, "linearized")
    ex = sinr(asg, problem, "exact")
    for u in (0, 1, 2):
        assert lin[u].sinr >= ex[u].sinr * (1 - 1e-12)
