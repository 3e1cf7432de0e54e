"""Channel simulation tests.

The ray tracer is checked against a deliberately naive, loop-based path
enumerator written directly from the Lambertian link geometry; the two share
no code beyond the public API.
"""

import hashlib
import math
import queue
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import owcfog.channel as channel_mod
from owcfog.channel import (
    AccessPoint,
    ImpulseResponse,
    ReceiverSpec,
    RoomConfig,
    SPEED_OF_LIGHT_M_S,
    WAVELENGTHS,
    bandwidth_3db,
    channel_rate,
    compute_channel_records,
    default_ap_grid,
    delay_spread,
    fec_rate,
    grid_positions,
    lambertian_order,
    los_gain,
    trace_impulse_response,
)
from owcfog.config import load_config, receiver_from_config, room_from_config
from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError

C = SPEED_OF_LIGHT_M_S

# Frozen expectations (independent arithmetic, computed by hand/REPL first):
#   -ln 2 / ln cos 30deg
M_30DEG = 4.81884167930642
#   (m+1) A / (2 pi d^2) with m=1, A=1e-4, d=2
LOS_BELOW_2M = 7.957747154594767e-06
#   rms spread of powers [1,2,1] spaced 1 ns apart
DS_THREE_BIN = 7.071067811865477e-10


# =====================================================================
# elementary gains
# =====================================================================

def test_lambertian_order_half_power_definition():
    # cos(phi_half)^m must equal exactly 1/2
    for ang in (15.0, 30.0, 45.0, 60.0, 80.0):
        m = lambertian_order(ang)
        assert math.cos(math.radians(ang)) ** m == pytest.approx(0.5, rel=1e-12)
    assert lambertian_order(60.0) == pytest.approx(1.0, rel=1e-12)
    assert lambertian_order(30.0) == pytest.approx(M_30DEG, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, 90.0, -5.0, 120.0])
def test_lambertian_order_rejects_out_of_range(bad):
    with pytest.raises(ConfigError):
        lambertian_order(bad)


@pytest.mark.parametrize("field, bad, match", [
    ("position_m", (math.nan, 1.0, 3.0), "position must be finite"),
    ("position_m", (1.0, math.inf, 3.0), "position must be finite"),
    ("tx_power_w", {"red": -1.0}, "non-negative and finite"),
    ("tx_power_w", {"red": math.nan}, "non-negative and finite"),
    ("tx_power_w", {"red": math.inf}, "non-negative and finite"),
    ("half_power_semiangle_deg", 0.0, "semiangle"),
    ("half_power_semiangle_deg", 90.0, "semiangle"),
    ("half_power_semiangle_deg", math.nan, "semiangle"),
])
def test_access_point_rejects_bad_fields(field, bad, match):
    # the tracer sees only unit-power copies of each AP, so a bad power
    # must be refused where the AP is built
    fields = {"ap_id": 0, "position_m": (1.0, 1.0, 3.0),
              "half_power_semiangle_deg": 60.0, "tx_power_w": {"red": 1.0}}
    with pytest.raises(ConfigError, match=match):
        AccessPoint(**{**fields, field: bad})


@pytest.mark.parametrize("nx, ny, key", [(0, 2, "room.ap_grid_nx"),
                                         (4, 0, "room.ap_grid_ny"),
                                         (-1, 2, "room.ap_grid_nx")])
def test_ap_grid_refuses_an_empty_grid(nx, ny, key):
    # an empty list would make RoomConfig fall back to the default 4 x 2 grid
    with pytest.raises(ConfigError, match=key):
        default_ap_grid(nx=nx, ny=ny)


def test_ap_grid_rejects_negative_power():
    powers = {wl: 1.8 for wl in WAVELENGTHS}
    powers["red"] = -1.0
    with pytest.raises(ConfigError, match="transmit power"):
        default_ap_grid(tx_power_w=powers)


def test_los_gain_directly_below():
    ap = AccessPoint(0, (0.0, 0.0, 2.0), 60.0, {"red": 1.0})
    rec = ReceiverSpec(area_m2=1e-4, fov_deg=40.0)
    assert los_gain(ap, rec, (0.0, 0.0, 0.0)) == pytest.approx(
        LOS_BELOW_2M, rel=1e-12)


def test_los_gain_fov_rejection():
    ap = AccessPoint(0, (0.0, 0.0, 2.0), 60.0, {"red": 1.0})
    rec = ReceiverSpec(fov_deg=40.0)
    # incidence angle 45 deg > 40 deg FOV -> hard zero
    assert los_gain(ap, rec, (2.0, 0.0, 0.0)) == 0.0
    # same geometry admitted by a wider FOV
    assert los_gain(ap, ReceiverSpec(fov_deg=50.0), (2.0, 0.0, 0.0)) > 0.0


def test_los_gain_degenerate_distance():
    ap = AccessPoint(0, (1.0, 1.0, 2.0), 60.0, {"red": 1.0})
    with pytest.raises(ConfigError):
        los_gain(ap, ReceiverSpec(), (1.0, 1.0, 2.0))


@given(st.floats(min_value=1.0, max_value=85.0),
       st.floats(min_value=1.5, max_value=89.0))
def test_lambertian_order_decreases_with_beamwidth(a, b):
    lo, hi = sorted((a, b))
    if hi - lo < 1e-6:
        return
    assert lambertian_order(lo) >= lambertian_order(hi)


# =====================================================================
# tracer vs naive path enumeration
# =====================================================================

def _cube_case(fov_deg=85.0, rxp=(0.7, 1.2, 0.5)):
    room = RoomConfig(
        length_m=2.0, width_m=2.0, height_m=2.0,
        element_edge_m=0.5, time_bin_s=1e-11, receiver_plane_m=0.5,
        aps=[AccessPoint(0, (1.0, 1.0, 2.0), 60.0, {"red": 1.0})])
    rec = ReceiverSpec(area_m2=1e-4, fov_deg=fov_deg)
    return room, rec, rxp


def _naive_cube_mesh(edge, dim, refl):
    """Hand-rolled mesh of a dim x dim x dim cube: centers/normals/areas/rho."""
    n = round(dim / edge)
    cells = [(i + 0.5) * edge for i in range(n)]
    elems = []
    for u in cells:
        for v in cells:
            elems.append(((u, v, 0.0), (0, 0, 1), refl["floor"]))
            elems.append(((u, v, dim), (0, 0, -1), refl["ceiling"]))
            elems.append(((u, 0.0, v), (0, 1, 0), refl["walls"]))
            elems.append(((u, dim, v), (0, -1, 0), refl["walls"]))
            elems.append(((0.0, u, v), (1, 0, 0), refl["walls"]))
            elems.append(((dim, u, v), (-1, 0, 0), refl["walls"]))
    return elems, edge * edge


def _naive_trace(room, ap, rec, rxp, max_order):
    """Plain-loop enumeration of LOS + 1st + 2nd order arrival list."""
    m = -math.log(2.0) / math.log(math.cos(math.radians(ap.half_power_semiangle_deg)))
    po = ap.tx_power_w["red"]
    cfov = math.cos(math.radians(rec.fov_deg))
    elems, cell_area = _naive_cube_mesh(room.element_edge_m, room.length_m,
                                        room.reflectivity_for("red"))

    def sub(p, q):
        return (p[0] - q[0], p[1] - q[1], p[2] - q[2])

    def dot(p, q):
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]

    arrivals = []
    v = sub(rxp, ap.position_m)
    d = math.sqrt(dot(v, v))
    if -v[2] / d > 0 and -v[2] / d >= cfov:
        g = (m + 1) * rec.area_m2 / (2 * math.pi * d * d) * (-v[2] / d) ** (m + 1)
        arrivals.append((d / C, po * g, 0))

    # stage tables: power landing on each element, and each element's
    # lambertian gain toward the receiver
    landing, t_in, toward, t_out = [], [], [], []
    for center, normal, rho in elems:
        v1 = sub(center, ap.position_m)
        d1 = math.sqrt(dot(v1, v1))
        ce = -v1[2] / d1
        ci = -dot(v1, normal) / d1
        landing.append(po * (m + 1) / (2 * math.pi * d1 * d1) * ce ** m * ci * cell_area
                       if ce > 0 and ci > 0 else 0.0)
        t_in.append(d1 / C)
        v2 = sub(rxp, center)
        d2 = math.sqrt(dot(v2, v2))
        ce2 = dot(v2, normal) / d2
        ci2 = (center[2] - rxp[2]) / d2
        toward.append(ce2 * ci2 * rec.area_m2 / (math.pi * d2 * d2)
                      if ce2 > 0 and ci2 >= cfov else 0.0)
        t_out.append(d2 / C)

    if max_order >= 1:
        for i, (center, normal, rho) in enumerate(elems):
            p = rho * landing[i] * toward[i]
            if p > 0:
                arrivals.append((t_in[i] + t_out[i], p, 1))
    if max_order >= 2:
        for i, (ci_c, ci_n, ci_r) in enumerate(elems):
            if landing[i] <= 0:
                continue
            emitted = ci_r * landing[i]
            for j, (cj_c, cj_n, cj_r) in enumerate(elems):
                if toward[j] <= 0:
                    continue
                vij = sub(cj_c, ci_c)
                dij = math.sqrt(dot(vij, vij))
                if dij <= 1e-12:
                    continue
                ce = dot(vij, ci_n) / dij
                ci = -dot(vij, cj_n) / dij
                if ce <= 0 or ci <= 0:
                    continue
                p = emitted * ce * ci * cell_area / (math.pi * dij * dij) \
                    * cj_r * toward[j]
                arrivals.append((t_in[i] + dij / C + t_out[j], p, 2))
    return arrivals


#: (field of view, receiver position) inputs of the naive-enumeration check:
#: a wide cone that sees nearly every element, and a narrow one beside a wall
#: that leaves most elements outside it, so dropping a visible second-bounce
#: sink shows.
NAIVE_CASES = [(85.0, (0.7, 1.2, 0.5)), (30.0, (0.15, 1.0, 0.5))]


def test_trace_matches_naive_enumeration():
    for fov_deg, rxp in NAIVE_CASES:
        room, rec, rxp = _cube_case(fov_deg, rxp)
        ir = trace_impulse_response(room, room.aps[0], rec, rxp, "red",
                                    max_order=2)
        arrivals = _naive_trace(room, room.aps[0], rec, rxp, 2)

        for order in (0, 1, 2):
            want = sum(p for _, p, o in arrivals if o == order)
            assert want > 0.0
            assert ir.order_powers_w[order] == pytest.approx(want, rel=1e-12)

        hist = np.zeros(ir.powers_w.size + 8)
        for t, p, _ in arrivals:
            hist[int(t / room.time_bin_s)] += p
        assert hist[ir.powers_w.size:].sum() == 0.0
        np.testing.assert_allclose(ir.powers_w, hist[:ir.powers_w.size],
                                   rtol=1e-12, atol=ir.total_power_w * 1e-15)


def test_trace_energy_grows_with_order():
    room, rec, rxp = _cube_case()
    totals = [trace_impulse_response(room, room.aps[0], rec, rxp, "red", k).total_power_w
              for k in (0, 1, 2)]
    assert totals[0] < totals[1] < totals[2]


def test_trace_gain_is_power_normalized():
    room, rec, rxp = _cube_case()
    unit = trace_impulse_response(room, room.aps[0], rec, rxp, "red", 2)
    ap = AccessPoint(0, (1.0, 1.0, 2.0), 60.0, {"red": 2.5})
    scaled = trace_impulse_response(room, ap, rec, rxp, "red", 2)
    # h = sum(bins)/PO is invariant under transmit power
    assert scaled.total_power_w / 2.5 == pytest.approx(unit.total_power_w, rel=1e-12)
    np.testing.assert_allclose(scaled.powers_w, 2.5 * unit.powers_w, rtol=1e-12)


def test_trace_element_cap():
    room, rec, rxp = _cube_case()
    room.max_elements = 10
    for _ in range(2):  # the mesh cache must not swallow the refusal
        with pytest.raises(ResourceLimitError):
            trace_impulse_response(room, room.aps[0], rec, rxp, "red", 1)


def _clear_tracer_caches():
    channel_mod._mesh.cache_clear()


def _room_mesh(room):
    return channel_mod._mesh(room.length_m, room.width_m, room.height_m,
                             room.element_edge_m, room.max_elements)


def test_clear_tracer_caches_drops_the_mesh():
    room, rec, rxp = _cube_case()
    trace_impulse_response(room, room.aps[0], rec, rxp, "red", 2)
    before = _room_mesh(room)
    assert before.ap_views and before.rx_view[0] and before.pairs[0]
    _clear_tracer_caches()
    assert channel_mod._mesh.cache_info().currsize == 0
    after = _room_mesh(room)
    assert after is not before
    assert not after.ap_views and after.rx_view[0] is None \
        and after.pairs[0] is None


def test_cached_views_equal_fresh_traces(monkeypatch):
    # The first AP hangs at 2 m, so it lights fewer elements than the
    # ceiling APs traced after it at each position, and the pair geometry
    # must be rebuilt for them; the second AP sends less green than red
    # power, so its views differ by wavelength. A per-wavelength map, a
    # second room and a 3 x 3 AP grid under four maps share one mesh at the
    # same positions. A green ceiling with zero reflectivity drops ceiling
    # sinks, so green pairs other elements than red; the third room's two
    # maps pair the same ones.
    flat = {"walls": 0.8, "ceiling": 0.8, "floor": 0.3}
    per_wl = {wl: dict(flat) for wl in WAVELENGTHS}
    per_wl["green"] = {"walls": 0.5, "ceiling": 0.0, "floor": 0.1}
    two_maps = {wl: dict(flat) for wl in WAVELENGTHS}
    two_maps["red"] = {"walls": 0.7, "ceiling": 0.6, "floor": 0.25}
    four_maps = {wl: {"walls": 0.8 - 0.1 * i, "ceiling": 0.7 - 0.1 * i,
                      "floor": 0.3 - 0.05 * i}
                 for i, wl in enumerate(WAVELENGTHS)}
    rooms = [RoomConfig(element_edge_m=0.5, reflectivity=refl,
                        grid_nx=4, grid_ny=2)
             for refl in (per_wl, {"walls": 0.6, "ceiling": 0.7, "floor": 0.2},
                          two_maps)]
    for room in rooms:
        room.aps[0].position_m = (1.0, 1.0, 2.0)
        room.aps[1].tx_power_w["green"] = 0.9
    nine_aps = RoomConfig(element_edge_m=0.5, reflectivity=four_maps,
                          grid_nx=4, grid_ny=4,
                          aps=default_ap_grid(8.0, 4.0, 3.0, nx=3, ny=3))
    rec = ReceiverSpec()
    links = [(room, ap, (x, y, room.receiver_plane_m), wl)
             for x, y in grid_positions(rooms[0])
             for room in rooms + [nine_aps]
             for ap in room.aps
             for wl in (WAVELENGTHS if room is nine_aps else ("red", "green"))]

    # count the views each trace looks up and the ones the mesh builds
    calls = {name: [] for name in ("lookups", "ap", "rx", "pairs")}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(1)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(channel_mod._Mesh, "ap",
                        counted("lookups", channel_mod._Mesh.ap))
    for name in ("ap", "rx"):
        monkeypatch.setattr(channel_mod, f"_{name}_transfer",
                            counted(name, getattr(channel_mod,
                                                  f"_{name}_transfer")))
    monkeypatch.setattr(channel_mod, "_pair_chunks",
                        counted("pairs", channel_mod._pair_chunks))

    def counts():
        got = {name: len(seen) for name, seen in calls.items()}
        for seen in calls.values():
            del seen[:]
        return got

    _clear_tracer_caches()
    warm = [trace_impulse_response(room, ap, rec, rxp, wl, 2)
            for room, ap, rxp, wl in links]
    # every room has the same geometry, so all links share one mesh: it
    # builds one AP view per (position, order, power) traced and one
    # receiver view per position, and pair sets are both built and reused
    mesh = _room_mesh(rooms[0])
    assert all(_room_mesh(room) is mesh for room in rooms + [nine_aps])
    assert set(mesh.ap_views) == {
        (tuple(ap.position_m), ap.lambertian_order, ap.tx_power_w[wl])
        for room, ap, _, wl in links}
    # the 7 default ceiling APs, the 2 m AP, the second AP at its green
    # power and the 9 grid APs
    assert len(mesh.ap_views) == 7 + 1 + 1 + 9
    assert mesh.rx_view[0] == (links[-1][2], rec.fov_deg, rec.area_m2)
    got = counts()
    assert got["lookups"] == len(links)
    assert got["ap"] == len(mesh.ap_views)
    assert got["rx"] == len(grid_positions(rooms[0]))
    assert 0 < got["pairs"] < len(links) // 2

    # the 3 x 3 grid under four maps and 16 positions: one view per AP
    _clear_tracer_caches()
    records = compute_channel_records(nine_aps, rec, grid_positions(nine_aps))
    assert records.h.shape == (16, 9, 4)
    assert len(_room_mesh(nine_aps).ap_views) == 9
    got = counts()
    assert (got["lookups"], got["ap"], got["rx"]) == (576, 9, 16)

    # the pair geometry does not depend on reflectivity: per position, only
    # the 2 m AP and the first ceiling AP build a pair set, and both maps
    # reuse each one
    _clear_tracer_caches()
    third = [link for link in links if link[0] is rooms[2]]
    for room, ap, rxp, wl in third:
        trace_impulse_response(room, ap, rec, rxp, wl, 2)
    builds = counts()["pairs"]
    assert len(third) - builds >= 7 * builds > 0

    for (room, ap, rxp, wl), ir in zip(links, warm):
        _clear_tracer_caches()
        fresh = trace_impulse_response(room, ap, rec, rxp, wl, 2)
        assert ir.powers_w.tobytes() == fresh.powers_w.tobytes()
        assert ir.order_powers_w == fresh.order_powers_w


def test_ap_views_stay_bounded_by_the_room_aps():
    # an AP moved through many positions is traced at each one, but the
    # mesh keeps no more views than the room's APs can use
    room = RoomConfig(element_edge_m=0.5)
    rec = ReceiverSpec()
    ap = AccessPoint(0, (1.0, 1.0, 3.0), 60.0, {"red": 1.0})
    keep = sum(len(a.tx_power_w) for a in room.aps)
    _clear_tracer_caches()
    for k in range(2 * keep + 1):
        ap.position_m = (0.5 + 0.1 * k, 1.0, 3.0)
        trace_impulse_response(room, ap, rec, (2.0, 2.0, 0.85), "red", 1)
    assert 0 < len(_room_mesh(room).ap_views) <= keep


def test_shared_views_are_read_only():
    room, rec, rxp = _cube_case()
    _clear_tracer_caches()
    trace_impulse_response(room, room.aps[0], rec, rxp, "red", 2)
    mesh = _room_mesh(room)
    arrays = [mesh.centers, mesh.normals, mesh.areas, *mesh.rx_view[1]]
    arrays += [arr for view in mesh.ap_views.values() for arr in view]
    # the sinks, transfer and delay of the kept pair set
    arrays += [*mesh.pairs[1:]]
    assert len(arrays) > 9
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[...] = arr


@pytest.fixture(scope="module")
def cold_grid():
    """The default room, its receiver, its 1,024 grid links and each
    link's response traced with an empty cache."""
    cfg = load_config()
    room, rec = room_from_config(cfg), receiver_from_config(cfg)
    z = room.receiver_plane_m
    links = [((x, y, z), ap) for x, y in grid_positions(room)
             for ap in room.aps]
    cold = []
    for rxp, ap in links:
        _clear_tracer_caches()
        cold.append(trace_impulse_response(room, ap, rec, rxp, "red"))
    return room, rec, links, cold


@pytest.mark.parametrize("order", ["row-major", "reversed", "shuffled"])
def test_pair_sets_built_from_the_last_equal_cold_traces(order, cold_grid,
                                                         monkeypatch):
    # Consecutive positions share most of their sinks, so the kept pair set
    # is updated in place: shared columns move and only the new ones are
    # computed. Whatever order the default grid's links are traced in, each
    # response has the bits of a trace taken with an empty cache.
    room, rec, links, cold = cold_grid
    order_of = {"row-major": list(range(len(links))),
                "reversed": list(range(len(links)))[::-1],
                "shuffled": np.random.default_rng(7).permutation(len(links))}
    # columns each pair set asks for, and columns computed for it
    asked, computed = [], []
    real_pairs, real_chunks = channel_mod._Mesh.pair_chunks, \
        channel_mod._pair_chunks

    def pair_chunks(mesh, src_idx, sinks):
        asked.append(sinks.size)
        return real_pairs(mesh, src_idx, sinks)

    def chunks(mesh, src_idx, sinks):
        computed.append(sinks.size)
        return real_chunks(mesh, src_idx, sinks)
    monkeypatch.setattr(channel_mod._Mesh, "pair_chunks", pair_chunks)
    monkeypatch.setattr(channel_mod, "_pair_chunks", chunks)
    _clear_tracer_caches()
    for i in order_of[order]:
        (rxp, ap), want = links[i], cold[i]
        got = trace_impulse_response(room, ap, rec, rxp, "red")
        assert got.powers_w.tobytes() == want.powers_w.tobytes()
        assert got.order_powers_w == want.order_powers_w
    assert len(asked) == len(links)
    # a set is built or updated at most once per change of position
    moves = sum(links[a][0] != links[b][0]
                for a, b in zip(order_of[order], order_of[order][1:]))
    assert 0 < len(computed) <= 1 + moves
    if order != "shuffled":
        # neighbours: most columns are moved, not computed
        assert sum(computed) < len(grid_positions(room)) * min(asked) / 2


@pytest.mark.slow
def test_second_order_power_converges_when_halving_elements():
    # halving the mesh edge onto the default (0.2 m -> 0.1 m) moves the total
    # second-order power by well under 5% in the reference room
    rec = ReceiverSpec()
    vals = []
    for edge in (0.2, 0.1):
        room = RoomConfig(element_edge_m=edge)
        ir = trace_impulse_response(room, room.aps[0], rec, (1.0, 1.0, 1.0),
                                    "red", 2)
        vals.append(ir.order_powers_w[2])
    assert abs(vals[1] - vals[0]) / vals[0] < 0.05


#: The 0.1 m trace above (first AP, receiver at (1, 1, 1), red): sha256 of
#: its binned powers and its exact per-order powers. Any change to the
#: tracer's arithmetic or to the order it sums in moves them.
FINE_TRACE_SHA256 = \
    "c35afeba9f4dbbc3236d5cb7d29dcf902f6c937ef91f86503667d86e8128a863"
FINE_TRACE_ORDER_POWERS = {0: 1.4323944878270581e-05,
                           1: 7.771085717083031e-07,
                           2: 9.740243439669658e-07}


@pytest.mark.slow
def test_fine_mesh_trace_pinned():
    room = RoomConfig(element_edge_m=0.1)
    ir = trace_impulse_response(room, room.aps[0], ReceiverSpec(),
                                (1.0, 1.0, 1.0), "red", 2)
    assert hashlib.sha256(ir.powers_w.tobytes()).hexdigest() == FINE_TRACE_SHA256
    assert ir.order_powers_w == FINE_TRACE_ORDER_POWERS


# =====================================================================
# metrics
# =====================================================================

def _ir(powers, bin_s=1e-11):
    p = np.asarray(powers, dtype=float)
    return ImpulseResponse(bin_s, p, {0: float(p.sum())})


def test_delay_spread_degenerate_cases():
    assert delay_spread(_ir([0.0])) == 0.0
    assert delay_spread(_ir([0, 0, 5e-6, 0])) == 0.0


def test_delay_spread_two_equal_bins():
    # equal powers separated by n bins -> spread is half the separation
    p = np.zeros(41)
    p[0] = p[40] = 1e-6
    assert delay_spread(_ir(p)) == pytest.approx(20e-11, rel=1e-12)


def test_delay_spread_three_bin_frozen():
    p = np.zeros(201)
    p[0], p[100], p[200] = 1.0, 2.0, 1.0  # 1 ns apart at 0.01 ns bins
    assert delay_spread(_ir(p)) == pytest.approx(DS_THREE_BIN, rel=1e-12)


def test_bandwidth_single_impulse_hits_nyquist():
    assert bandwidth_3db(_ir([0, 0, 3e-6])) == pytest.approx(50e9)


def test_bandwidth_two_equal_bins_quarter_rule():
    # |H(f)| = |cos(pi f dt)| crosses 1/sqrt(2) at exactly 1/(4 dt)
    for nsep in (20, 37, 64):
        p = np.zeros(nsep + 1)
        p[0] = p[nsep] = 1.0
        want = 1.0 / (4.0 * nsep * 1e-11)
        assert bandwidth_3db(_ir(p)) == pytest.approx(want, rel=1e-3)


def test_bandwidth_echo_never_raises_bandwidth():
    los = np.zeros(3)
    los[2] = 1e-5
    base = bandwidth_3db(_ir(los))
    echoed = np.zeros(500)
    echoed[2] = 1e-5
    echoed[450] = 2e-6
    assert bandwidth_3db(_ir(echoed)) <= base


def test_bandwidth_requires_power():
    with pytest.raises(InfeasibleError):
        bandwidth_3db(_ir([0.0, 0.0]))


def _bandwidth_3db_full(ir):
    """``bandwidth_3db`` written longhand over every bin of the spectrum, at
    the module's padding."""
    p = ir.powers_w
    n = max(channel_mod._MIN_FFT,
            1 << (p.size * channel_mod._PAD_FACTOR - 1).bit_length())
    mag = np.abs(np.fft.rfft(p, n=n))
    mag /= mag[0]
    freqs = np.fft.rfftfreq(n, d=ir.bin_width_s)
    target = 1.0 / math.sqrt(2.0)
    below = np.nonzero(mag < target)[0]
    nyquist = 1.0 / (2.0 * ir.bin_width_s)
    if below.size == 0:
        return nyquist, None
    k = int(below[0])
    m0, m1 = mag[k - 1], mag[k]
    f0, f1 = freqs[k - 1], freqs[k]
    if m1 == m0:
        return float(f1), k
    f_cross = f0 + (m0 - target) / (m0 - m1) * (f1 - f0)
    return float(min(f_cross, nyquist)), k


def _decay_crossing_at(k_want):
    """An exponential decay over 2,048 bins whose 3-dB crossing is bin k_want."""
    lo, hi = 0.5, 1000.0        # decay constants (bins) above / below k_want
    for _ in range(200):
        tau = math.sqrt(lo * hi)
        ir = _ir(np.exp(-np.arange(2048) / tau))
        k = _bandwidth_3db_full(ir)[1]
        if k == k_want:
            return ir
        lo, hi = (tau, hi) if k > k_want else (lo, tau)
    raise AssertionError(f"no decay crosses at bin {k_want}")


def test_bandwidth_crossing_matches_full_spectrum_on_synthetic_responses(
        monkeypatch):
    block = channel_mod._FFT_BLOCK
    cases = [(_decay_crossing_at(k), k)
             for k in (block - 1, block, block + 1, 2 * block, 3000)]
    cases.append((_ir([0, 0, 3e-6]), None))     # flat |H|: Nyquist
    for ir, k_want in cases:
        want, k = _bandwidth_3db_full(ir)
        assert k == k_want
        assert bandwidth_3db(ir) == want
    # a boxcar filling its transform is zero at every bin but the first
    monkeypatch.setattr(channel_mod, "_PAD_FACTOR", 1)
    monkeypatch.setattr(channel_mod, "_MIN_FFT", 1024)
    ir = _ir(np.ones(1024))
    want, k = _bandwidth_3db_full(ir)
    assert k == 1
    assert bandwidth_3db(ir) == want


def test_bandwidth_crossing_matches_full_spectrum_on_default_grid():
    cfg = load_config()
    room, rec = room_from_config(cfg), receiver_from_config(cfg)
    crossings = set()
    for x, y in grid_positions(room):
        for ap in room.aps:
            unit = AccessPoint(ap.ap_id, ap.position_m,
                               ap.half_power_semiangle_deg, {"red": 1.0})
            ir = trace_impulse_response(room, unit, rec,
                                        (x, y, room.receiver_plane_m), "red")
            want, k = _bandwidth_3db_full(ir)
            assert bandwidth_3db(ir) == want
            crossings.add(k)
    assert len(grid_positions(room)) * len(room.aps) == 1024
    assert None in crossings and len(crossings) > 2


def _count_rffts(monkeypatch):
    """Record (n, out) of every ``np.fft.rfft`` call."""
    calls = []
    real = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append((kwargs.get("n"), kwargs.get("out")))
        return real(*args, **kwargs)
    monkeypatch.setattr(np.fft, "rfft", counted)
    return calls


def test_bandwidth_workspace_shared_across_lengths_matches_fresh_calls():
    # decays of 2,048 bins take 16,384-point transforms, of 6,000 bins
    # 65,536-point ones; a single impulse in each length is flat (Nyquist)
    short = [_ir(np.exp(-np.arange(2048) / tau)) for tau in (3.0, 40.0, 400.0)]
    long = [_ir(np.exp(-np.arange(6000) / tau)) for tau in (5.0, 90.0, 2000.0)]
    short.append(_ir([0, 0, 3e-6]))
    long.append(_ir(np.r_[np.zeros(5999), 1e-6]))
    workspace = {}
    buffers = {}
    for a, b in zip(short, long):
        for ir in (a, b):
            got = bandwidth_3db(ir, workspace=workspace)
            assert got.hex() == bandwidth_3db(ir).hex()
            assert got == _bandwidth_3db_full(ir)[0]
            for n, buf in workspace.items():
                assert buffers.setdefault(n, buf) is buf
    assert sorted(workspace) == [16384, 65536]
    assert all(buf.shape == (n // 2 + 1,) for n, buf in workspace.items())


def test_records_share_one_workspace_per_thread_and_skip_flat_transforms(
        monkeypatch):
    # On the default grid 168 of the 1,024 traces are proven flat by their
    # direct ray, so they read the Nyquist limit without a transform. The
    # measuring thread and the calling thread, which measures the traces
    # that find the queue full, each write every spectrum into a buffer of
    # their own.
    cfg = load_config()
    room, rec = room_from_config(cfg), receiver_from_config(cfg)
    workspaces = []
    real = channel_mod.bandwidth_3db

    def spy(ir, *args, **kwargs):
        workspaces.append((threading.get_ident(), kwargs["workspace"]))
        return real(ir, *args, **kwargs)
    monkeypatch.setattr(channel_mod, "bandwidth_3db", spy)
    rffts = []
    real_rfft = np.fft.rfft

    def counted(*args, **kwargs):
        rffts.append((threading.get_ident(), kwargs.get("n"),
                      kwargs.get("out")))
        return real_rfft(*args, **kwargs)
    monkeypatch.setattr(np.fft, "rfft", counted)
    records = compute_channel_records(room, rec, grid_positions(room))
    assert len(workspaces) == 1024
    of_thread = dict(workspaces)
    assert 1 <= len(of_thread) <= 2
    assert all(ws is of_thread[thread] for thread, ws in workspaces)
    assert len({id(ws) for ws in of_thread.values()}) == len(of_thread)
    assert all(list(ws) in ([], [65536]) for ws in of_thread.values())
    assert len(rffts) == 856
    assert all(n == 65536 and out is of_thread[thread][65536]
               for thread, n, out in rffts)
    nyquist = 1.0 / (2.0 * room.time_bin_s)
    red = records.bw_3db_hz[..., WAVELENGTHS.index("red")]
    assert np.count_nonzero(red == nyquist) == 204


def test_flat_certificate_line_matches_full_spectrum(monkeypatch):
    # A direct ray of 1 and one echo R at 64 bins: min |H| / |H(0)| is
    # (1 - R) / (1 + R), reached at DFT bin 16384 / 128. R puts that ratio
    # at target * (1 + t * delta), from far below the test's line to far
    # above it; every t < 0 crosses, and only t >= 2 is certified.
    target = 1.0 / math.sqrt(2.0)
    delta = channel_mod._FLAT_MARGIN
    rffts = _count_rffts(monkeypatch)
    for t in (-1e6, -1e3, -2.0, 0.5, 2.0, 1e3, 1e6):
        ratio = target * (1.0 + t * delta)
        p = np.zeros(65)
        p[0], p[64] = 1.0, (1.0 - ratio) / (1.0 + ratio)
        ir = _ir(p)
        want, k = _bandwidth_3db_full(ir)
        assert (k is not None) == (t < 0)
        rffts.clear()
        assert bandwidth_3db(ir) == want
        assert len(rffts) == (0 if t >= 2 else 1)


def test_flat_certificate_needs_nonnegative_bins(monkeypatch):
    # 2 max p - sum p = 1 clears target * sum p = 0.707, but with the
    # negative bin |H| dips to 0.7 near a sixth of the sampling rate
    ir = _ir([1.0, -0.3, 0.3])
    rffts = _count_rffts(monkeypatch)
    want, k = _bandwidth_3db_full(ir)
    rffts.clear()
    assert k is not None
    assert bandwidth_3db(ir) == want
    assert len(rffts) == 1


def test_flat_certificate_covers_bounded_transforms(monkeypatch):
    rffts = _count_rffts(monkeypatch)
    ir = _ir([0, 0, 3e-6])
    longest = channel_mod._FLAT_MAX_FFT
    monkeypatch.setattr(channel_mod, "_MIN_FFT", longest)
    assert bandwidth_3db(ir) == 50e9
    assert rffts == []
    monkeypatch.setattr(channel_mod, "_MIN_FFT", 2 * longest)
    assert bandwidth_3db(ir) == 50e9
    assert [n for n, _ in rffts] == [2 * longest]


def test_delay_spread_has_the_bits_of_the_plain_expressions():
    # delay_spread works in place; the plain form allocates every step
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.random(int(rng.integers(1, 9000))) * 10.0 ** rng.uniform(-9, 0)
        p[rng.random(p.size) < 0.3] = 0.0
        ir = _ir(p)
        t = (np.arange(p.size) + 0.5) * ir.bin_width_s
        assert ir.bin_times_s().tobytes() == t.tobytes()
        total = p.sum()
        want = 0.0
        if total > 0.0 and np.count_nonzero(p) > 1:
            mean = float((p * t).sum() / total)
            want = math.sqrt(max(float((p * (t - mean) ** 2).sum() / total),
                                 0.0))
        assert delay_spread(ir).hex() == want.hex()


@given(st.floats(min_value=1e-9, max_value=1e3))
@settings(max_examples=25)
def test_delay_spread_scale_invariant(scale):
    p = np.zeros(90)
    p[3], p[40], p[87] = 2.0, 1.0, 0.5
    assert delay_spread(_ir(p * scale)) == pytest.approx(delay_spread(_ir(p)),
                                                         rel=1e-9)


# =====================================================================
# supported rate
# =====================================================================

def test_supported_rate_plain():
    assert channel_rate(5e9, 5e9) == pytest.approx(5e9)
    # channel narrower than the receiver
    assert channel_rate(3.2e9, 5e9) == pytest.approx(3.2e9)
    # receiver narrower than the channel
    assert channel_rate(50e9, 5e9) == pytest.approx(5e9)
    assert channel_rate(5e9, 5e9, rate_factor=0.5) == pytest.approx(2.5e9)
    assert fec_rate(5e9, 20.0) == 5e9


def test_supported_rate_fec_window():
    assert fec_rate(5e9, 14.5) == pytest.approx(4.5e9)
    assert fec_rate(5e9, 14.0) == pytest.approx(4.5e9)
    # the penalty ends exactly at 15.6 dB
    assert fec_rate(5e9, 15.6) == pytest.approx(5e9)
    assert fec_rate(5e9, 15.5999) == pytest.approx(4.5e9)
    # an admitted link a rounding tolerance below the 14 dB floor
    assert fec_rate(5e9, 13.999) == pytest.approx(4.5e9)


# =====================================================================
# records and grid behaviour
# =====================================================================

def _coarse_room():
    return RoomConfig(element_edge_m=0.5)


# values a field refuses besides NaN and infinity
_ROOM_OUT_OF_RANGE = {"receiver_plane_m": (5.0, -1.0), "grid_nx": (0,),
                      "grid_ny": (-2,), "max_elements": (0,)}


@pytest.mark.parametrize("field", ["length_m", "width_m", "height_m",
                                   "element_edge_m", "time_bin_s",
                                   *_ROOM_OUT_OF_RANGE])
def test_room_rejects_non_finite_sizes(field):
    # a NaN width would otherwise put every position outside the room
    for bad in (math.nan, math.inf, *_ROOM_OUT_OF_RANGE.get(field, ())):
        with pytest.raises(ConfigError, match="must be positive and finite"):
            RoomConfig(**{field: bad})


def test_room_refuses_an_empty_ap_list():
    # omitted APs are the default grid; an empty list is not
    assert len(RoomConfig(aps=None).aps) == 8
    with pytest.raises(ConfigError, match="at least one AP"):
        RoomConfig(aps=[])


def test_grid_positions_cover_room():
    room = _coarse_room()
    pts = grid_positions(room)
    assert len(pts) == 128
    xs = sorted({p[0] for p in pts})
    ys = sorted({p[1] for p in pts})
    assert xs[0] == pytest.approx(0.25) and xs[-1] == pytest.approx(7.75)
    assert ys[0] == pytest.approx(0.25) and ys[-1] == pytest.approx(3.75)


def test_records_rate_and_power_consistency():
    room = _coarse_room()
    rec = ReceiverSpec()
    records = compute_channel_records(room, rec, [(1.0, 1.0)])
    assert records.positions_m == [(1.0, 1.0)]
    assert records.ap_ids == [ap.ap_id for ap in room.aps]
    assert records.wavelengths == list(WAVELENGTHS)
    assert records.h.shape == (1, len(room.aps), len(WAVELENGTHS))
    np.testing.assert_allclose(records.rx_power_w, 1.8 * records.h,
                               rtol=1e-12)
    np.testing.assert_allclose(
        records.rate_bps,
        rec.rate_factor * np.minimum(records.bw_3db_hz, rec.bandwidth_hz),
        rtol=1e-12)
    # same reflectivity for red/blue -> identical geometry metrics
    red, blue = WAVELENGTHS.index("red"), WAVELENGTHS.index("blue")
    for metric in (records.h, records.bw_3db_hz):
        assert np.array_equal(metric[..., red], metric[..., blue])


def test_records_of_no_positions_are_empty_arrays():
    room = _coarse_room()
    records = compute_channel_records(room, ReceiverSpec(), [])
    assert records.positions_m == []
    assert records.ap_ids == list(range(8))
    for metric in (records.h, records.rx_power_w, records.delay_spread_s,
                   records.bw_3db_hz, records.rate_bps):
        assert metric.shape == (0, 8, 4)


def _count_metric_calls(monkeypatch):
    calls = {"delay_spread": 0, "bandwidth_3db": 0}
    for name in calls:
        def counted(ir, *args, _real=getattr(channel_mod, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(ir, *args, **kwargs)
        monkeypatch.setattr(channel_mod, name, counted)
    return calls


def _records_longhand(room, rec, positions, wl):
    """The fields of one wavelength's records, each link traced at unit power
    and measured on its own."""
    out = []
    for u, (x, y) in enumerate(positions):
        for ap in room.aps:
            unit = AccessPoint(ap.ap_id, ap.position_m,
                               ap.half_power_semiangle_deg, {wl: 1.0})
            ir = trace_impulse_response(room, unit, rec,
                                        (x, y, room.receiver_plane_m), wl)
            h, bw = ir.total_power_w, bandwidth_3db(ir)
            out.append({"user": u, "user_x": x, "user_y": y,
                        "ap_id": ap.ap_id, "wavelength": wl, "h": h,
                        "rx_power_w": ap.tx_power_w[wl] * h,
                        "delay_spread_s": delay_spread(ir), "bw_3db_hz": bw,
                        "rate_bps": channel_rate(bw, rec.bandwidth_hz,
                                                 rec.rate_factor)})
    return out


@pytest.mark.parametrize("red_differs", [False, True])
def test_records_measure_each_distinct_trace_once(monkeypatch, red_differs):
    flat = {"walls": 0.8, "ceiling": 0.8, "floor": 0.3}
    refl = flat
    if red_differs:
        refl = {wl: dict(flat) for wl in WAVELENGTHS}
        refl["red"] = {"walls": 0.5, "ceiling": 0.6, "floor": 0.1}
    room = RoomConfig(element_edge_m=0.5, reflectivity=refl)
    rec = ReceiverSpec()
    positions = [(1.0, 1.0), (6.0, 3.0)]
    alone = {wl: _records_longhand(room, rec, positions, wl)
             for wl in WAVELENGTHS}

    calls = _count_metric_calls(monkeypatch)
    records = compute_channel_records(room, rec, positions)
    links = len(positions) * len(room.aps)
    traces = 2 * links if red_differs else links
    assert calls == {"delay_spread": traces, "bandwidth_3db": traces}

    fields = ("h", "rx_power_w", "delay_spread_s", "bw_3db_hz", "rate_bps")
    by_wl = {wl: [{"user": u, "user_x": x, "user_y": y, "ap_id": ap_id,
                   "wavelength": wl,
                   **{f: getattr(records, f)[u, a, w] for f in fields}}
                  for u, (x, y) in enumerate(records.positions_m)
                  for a, ap_id in enumerate(records.ap_ids)]
             for w, wl in enumerate(records.wavelengths)}
    for wl in WAVELENGTHS:
        assert by_wl[wl] == alone[wl]

    def metrics(r):
        return r["h"], r["delay_spread_s"], r["bw_3db_hz"]

    bw_differs = False
    for red, yellow, green, blue in zip(*(by_wl[wl] for wl in WAVELENGTHS)):
        assert metrics(yellow) == metrics(green) == metrics(blue)
        if red_differs:
            assert red["h"] != yellow["h"]
            bw_differs |= red["bw_3db_hz"] != yellow["bw_3db_hz"]
        else:
            assert metrics(red) == metrics(yellow)
    # links under a strong LOS ray read the Nyquist limit on every map
    assert bw_differs == red_differs


def _assert_same_records(got, want):
    for f in ("h", "rx_power_w", "delay_spread_s", "bw_3db_hz", "rate_bps"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f


@pytest.mark.parametrize("name, error, where", [
    ("bandwidth_3db", RuntimeError("spectrum failed"), "fifth call"),
    ("trace_impulse_response", ConfigError("trace failed"), "fifth call"),
    ("bandwidth_3db", RuntimeError("spectrum failed"), "calling thread"),
])
def test_records_raise_a_failed_step_and_leave_no_thread(monkeypatch, name,
                                                         error, where):
    # A failure on either thread reaches the caller, the measuring thread
    # is joined, and the next call on the same room is clean. In the last
    # case the measuring thread is slowed until the queue fills, so the
    # calling thread measures traces itself, and every one of them fails.
    room, rec = _coarse_room(), ReceiverSpec()
    positions = [(1.0, 1.0), (6.0, 3.0)]
    clean = compute_channel_records(room, rec, positions)
    real = getattr(channel_mod, name)
    calls, failures = [], []

    def failing(*args, **kwargs):
        calls.append(None)
        if where == "calling thread":
            if threading.current_thread() is threading.main_thread():
                failures.append(None)
                raise error
            time.sleep(0.005)
        elif len(calls) == 5:
            failures.append(None)
            raise error
        return real(*args, **kwargs)
    monkeypatch.setattr(channel_mod, name, failing)
    threads = threading.active_count()
    with pytest.raises(type(error)) as raised:
        compute_channel_records(room, rec, positions)
    assert raised.value is error
    assert len(failures) == 1
    assert threading.active_count() == threads
    monkeypatch.setattr(channel_mod, name, real)
    _assert_same_records(compute_channel_records(room, rec, positions), clean)


def test_records_of_unlit_links_are_zero():
    # No surface reflects and the field of view is 10 deg, so a link
    # receives power only from an AP within 0.35 m of overhead. Position 1
    # sees neither AP; its links take the no-power path of the measuring
    # thread. Positions 0 and 2 see both.
    dark = {"walls": 0.0, "ceiling": 0.0, "floor": 0.0}
    aps = [AccessPoint(0, (1.0, 1.0, 3.0)), AccessPoint(1, (1.4, 1.0, 3.0))]
    room = RoomConfig(element_edge_m=0.5, reflectivity=dark, aps=aps)
    rec = ReceiverSpec(fov_deg=10.0)
    positions = [(1.2, 1.0), (6.0, 3.0), (1.25, 1.05)]
    records = compute_channel_records(room, rec, positions)
    for f in ("h", "rx_power_w", "bw_3db_hz", "rate_bps"):
        assert np.all(getattr(records, f)[1] == 0.0)
        assert np.all(getattr(records, f)[[0, 2]] > 0.0)
    fields = ("h", "rx_power_w", "delay_spread_s", "bw_3db_hz", "rate_bps")
    for w, wl in enumerate(WAVELENGTHS):
        alone = _records_longhand(room, rec, [positions[0], positions[2]], wl)
        got = [getattr(records, f)[u, a, w] for u in (0, 2)
               for a in range(len(aps)) for f in fields]
        assert got == [row[f] for row in alone for f in fields]


@pytest.mark.parametrize("interleaving", ["fast-switching",
                                          "slow-measuring-thread"])
def test_records_keep_their_bits_however_the_threads_interleave(
        interleaving, monkeypatch):
    # Switching threads every microsecond interleaves the tracer and the
    # measuring thread at many more points than a normal run. A measuring
    # thread that sleeps 10 ms a job keeps the queue full, so the calling
    # thread measures most traces, and the measuring thread measures the
    # queued tail after the last trace.
    room, rec = _coarse_room(), ReceiverSpec()
    positions = grid_positions(room)[::16]
    clean = compute_channel_records(room, rec, positions)
    traced, measured = [], []
    real_trace, real_bw = (channel_mod.trace_impulse_response,
                           channel_mod.bandwidth_3db)

    def counted_trace(*args, **kwargs):
        ir = real_trace(*args, **kwargs)
        traced.append(None)
        return ir

    def slow_bw(*args, **kwargs):
        on_caller = threading.current_thread() is threading.main_thread()
        measured.append((on_caller, len(traced)))
        if not on_caller:
            time.sleep(0.01)
        return real_bw(*args, **kwargs)
    interval = sys.getswitchinterval()
    if interleaving == "fast-switching":
        sys.setswitchinterval(1e-6)
    else:
        monkeypatch.setattr(channel_mod, "trace_impulse_response",
                            counted_trace)
        monkeypatch.setattr(channel_mod, "bandwidth_3db", slow_bw)
    threads = threading.active_count()
    try:
        got = compute_channel_records(room, rec, positions)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_records(got, clean)
    assert threading.active_count() == threads
    if interleaving == "slow-measuring-thread":
        links = len(positions) * len(room.aps)
        assert len(measured) == len(traced) == links
        assert any(on_caller for on_caller, _ in measured)
        assert (False, links) in measured


@pytest.mark.parametrize("measuring_thread", ["as-run", "slowed"])
def test_records_queue_no_more_than_the_byte_bound(measuring_thread,
                                                   monkeypatch):
    # A spy on the queue between the threads counts the bytes of the
    # responses waiting in it at every put and get. It adds a response
    # before the put and takes it off after the get, so it never reads
    # less than is queued. A measuring thread slowed by 2 ms a job keeps
    # the queue at its bound.
    cfg = load_config()
    room, rec = room_from_config(cfg), receiver_from_config(cfg)
    lock = threading.Lock()
    queued, peaks, on_caller = [0], [], []

    class Spy(queue.SimpleQueue):
        def put(self, job):
            with lock:
                if job is not None:
                    queued[0] += job[1].powers_w.nbytes
                    peaks.append(queued[0])
                super().put(job)

        def get(self):
            job = super().get()
            if job is not None:
                with lock:
                    queued[0] -= job[1].powers_w.nbytes
            return job
    real_bw = channel_mod.bandwidth_3db

    def measured(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            on_caller.append(None)
        elif measuring_thread == "slowed":
            time.sleep(0.002)
        return real_bw(*args, **kwargs)
    monkeypatch.setattr(queue, "SimpleQueue", Spy)
    monkeypatch.setattr(channel_mod, "bandwidth_3db", measured)
    compute_channel_records(room, rec, grid_positions(room))
    assert len(peaks) + len(on_caller) == 1024
    assert queued[0] == 0
    assert max(peaks) <= channel_mod._QUEUE_BYTES
    if measuring_thread == "slowed":
        # within one response of the bound, and the rest measured here
        assert max(peaks) > channel_mod._QUEUE_BYTES - 60_000
        assert len(on_caller) > 512


def test_trim_keeps_every_bin_through_the_last_nonzero_one():
    # the longhand is the np.nonzero form; the copy never shares the bins
    for bins in ([0.0] * 5, [0.0, 0.0, 3.0], [2.0, 0.0, 0.0], [7.0],
                 [0.0, 1e-300, 0.0, -0.0, 0.0], [math.nan, 0.0]):
        hist = np.array(bins)
        nz = np.nonzero(hist)[0]
        want = hist[:nz[-1] + 1] if nz.size else hist[:1]
        got = channel_mod._trim(hist)
        assert got.tobytes() == want.tobytes()
        assert not np.shares_memory(got, hist)


def test_records_reject_outside_room():
    room = _coarse_room()
    with pytest.raises(ConfigError):
        compute_channel_records(room, ReceiverSpec(), [(9.0, 1.0)])


def test_records_reject_bad_maps_where_the_link_loop_meets_them():
    flat = {"walls": 0.8, "ceiling": 0.8, "floor": 0.3}
    refl = {wl: dict(flat) for wl in ("red", "yellow", "green")}
    room = RoomConfig(element_edge_m=0.5, reflectivity=refl)
    with pytest.raises(ConfigError, match="no reflectivity entry for "
                                          "wavelength 'blue'"):
        compute_channel_records(room, ReceiverSpec(), [(1.0, 1.0)])
    # the first position is checked before any map
    with pytest.raises(ConfigError, match="outside the room"):
        compute_channel_records(room, ReceiverSpec(), [(9.0, 1.0)])
    refl["green"]["floor"] = 1.5
    with pytest.raises(ConfigError, match=r"reflectivity\[floor\] must be"):
        compute_channel_records(room, ReceiverSpec(), [(1.0, 1.0)])


def test_fov_narrowing_never_hurts_bandwidth_sampled():
    room = _coarse_room()
    pts = grid_positions(room)[::17]  # a spread of locations
    for (x, y) in pts:
        best = max(room.aps,
                   key=lambda ap: los_gain(ap, ReceiverSpec(fov_deg=60.0),
                                           (x, y, 1.0)))
        narrow = trace_impulse_response(room, best, ReceiverSpec(fov_deg=40.0),
                                        (x, y, 1.0), "red", 2)
        wide = trace_impulse_response(room, best, ReceiverSpec(fov_deg=60.0),
                                      (x, y, 1.0), "red", 2)
        assert delay_spread(narrow) <= delay_spread(wide) + 1e-15
        assert bandwidth_3db(narrow) >= bandwidth_3db(wide) - 1e-3
