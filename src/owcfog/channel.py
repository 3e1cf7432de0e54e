"""Indoor optical wireless channel simulation.

Ray-traces the impulse response between ceiling-mounted optical access points
and a photodetector on the user plane: the direct line-of-sight ray plus first-
and second-order diffuse reflections off discretized wall/ceiling/floor
elements. From the binned response it derives the channel metrics the rest of
the pipeline consumes: DC gain, RMS delay spread, 3-dB bandwidth, and the
OOK data rate the link can support. ``compute_channel_records`` hands them
over as one ``ChannelRecords``: a dense (user, AP, wavelength) array per
metric, which the signal model and the bundle tables read directly. The
room, its APs and the receiver it traces are described in :mod:`owcfog.room`.

The tracer does only work that can reach the receiver. The surface mesh
depends on the room alone, so every link shares one. The second bounce is
the element-pair sum of Barry et al. (JSAC 1993), and a pair adds to it only
when its second element is inside the receiver's field of view and faces it:
each source is paired with those visible sinks alone (29-37 of the 544
elements at the 0.5 m mesh). A trace's metrics are measured once and shared
by every wavelength that traced it.

Work that does not depend on the whole link is shared between links through
one cached ``_Mesh``, the mesh of the last room geometry traced, which lives
until a room of another geometry or element cap is traced. All the arrays it
hands out are read-only. Besides the element centers, normals and areas, it
holds the power landing on each element and its delay for each AP traced,
keyed on the AP's position, Lambertian order and power (no more views than
the traced room has APs times wavelengths; past that they are all dropped),
each element's gain and delay toward the last receiver position, and one
pair set: the element-pair transfer and delay of the last second-bounce
(sources, sinks) set, when it holds at most ``_CHUNK_TARGET`` pairs. On the
default room every AP lights the same 416 elements, so the set changes only
with the receiver position, and a neighbouring position shares most of its
sinks. A set with the last one's sources that fits the last one's arrays is
therefore written over them in place: the shared sink columns move, in
ascending element order, and only the others are computed. Any other set
gets arrays of its own width, and all its columns are computed. A pair's
values depend on its two elements alone, so a moved column has the bits of
a fresh one. None of these views depends on a reflectivity map: a trace
applies its map with the same products and masks a lone trace would use,
and the per-AP weighting, time index and ``bincount`` order of the second
bounce are unchanged, so every trace has the same bits as one taken with an
empty cache.

The 3-dB bandwidth scans the magnitude spectrum in growing blocks and stops
at the first crossing, which reads the same samples as a scan of the whole
spectrum. Two shortcuts leave every answer's bits unchanged:
    - a certificate: when the largest bin of a non-negative response
      outweighs the rest by enough that no spectral sample can fall below
      the 3-dB line, even after rounding, the Nyquist limit is returned
      without a transform (``_flat_to_nyquist``); on the default grid a
      strong direct ray proves it for 168 of the 1,024 traces;
    - a workspace: a dict of spectrum buffers, keyed by transform length,
      that a thread passes to every measurement it takes, so each of its
      transforms writes into the same 512 KB array instead of a fresh one.

``compute_channel_records`` takes those measurements on one measuring
thread while the calling thread traces the next link; numpy's FFT releases
the interpreter lock, so the two overlap. The queue between the threads is
bounded by the bytes of the responses waiting in it (``_QUEUE_BYTES``), and
a response that would pass the bound is measured by the calling thread
instead. Each thread has a workspace of its own, and both are dropped when
the call returns. Which thread measures a response varies from run to run,
but the same transform of the same response gives the same bits on any
thread, so every record is unchanged.

Conventions:
    - SI units throughout (metres, seconds, watts, hertz).
    - Access points point straight down, receivers straight up.
    - Surfaces re-emit as ideal (order 1) Lambertian sources scaled by a
      per-surface, per-wavelength reflectivity.
    - An impulse response holds received *optical* power per time bin; the
      sum of the bins divided by the transmit power is the DC gain h.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError
from owcfog.room import WAVELENGTHS, AccessPoint, ReceiverSpec, RoomConfig

SPEED_OF_LIGHT_M_S = 299_792_458.0

# OOK rate adjustment: links whose electrical SINR sits inside the coding
# window carry a 10% forward-error-correction overhead; below the window
# (the allocator's 14 dB ``DEFAULT_SINR_FLOOR``) the link cannot run at all.
FEC_FREE_SINR_DB = 15.6
FEC_RATE_FACTOR = 0.9

# Source rows per chunk of the second-order pass is this over the number of
# *all* surface elements, which bounds the transient (chunk x sinks)
# matrices. It is not sized on the visible sinks: chunk boundaries fix the
# order in which partial histograms add into the response, and a different
# order changes the last bits of fine-mesh traces.
_CHUNK_TARGET = 2_000_000

# Zero padding of the 3-dB transform: at least this many times the response
# length, rounded up to a power of two, and never under ``_MIN_FFT`` points.
_PAD_FACTOR = 8
_MIN_FFT = 16384

# Bins in the first block of the 3-dB crossing scan; each later block is as
# long as all the blocks before it.
_FFT_BLOCK = 512

# Relative margin of the flat-spectrum test in ``bandwidth_3db``, and the
# longest transform its rounding argument covers (see ``_flat_to_nyquist``).
_FLAT_MARGIN = 1e-9
_FLAT_MAX_FFT = 1 << 20

# Bytes of the responses that may wait for the measuring thread: about
# eight default responses (39-52 KB each). A transform the calling thread
# takes runs beside the measuring thread's at a fraction of the speed, and
# faults the 512 KB FFT scratch back into the main heap. A queue this deep
# absorbs the bursts in which tracing runs ahead, so the calling thread
# takes fewer transforms; twice the bound held 0.5 MB more for no gain.
_QUEUE_BYTES = 384 * 1024

# Time bins of one trace's histogram, at most: 8 MB of bins, and a 3-dB
# transform of at most 2^23 points. The default room at a 1e-13 s bin needs
# 944,053.
_MAX_BINS = 1 << 20


def grid_positions(room: RoomConfig) -> List[Tuple[float, float]]:
    """Cell-center user grid on the receiver plane (grid_nx x grid_ny points)."""
    out = []
    for j in range(room.grid_ny):
        for i in range(room.grid_nx):
            out.append(((i + 0.5) * room.length_m / room.grid_nx,
                        (j + 0.5) * room.width_m / room.grid_ny))
    return out


# =====================================================================
# Elementary link geometry
# =====================================================================

def los_gain(ap: AccessPoint, receiver: ReceiverSpec,
             position_m: Tuple[float, float, float]) -> float:
    """Line-of-sight channel DC gain from an AP to a receiver location.

    gain = (m+1) A / (2 pi d^2) * cos^m(phi) * cos(theta), zero whenever the
    incidence angle theta exceeds the receiver field of view or the geometry
    faces away.

    Raises:
        ConfigError: if the receiver sits exactly at the AP (degenerate d = 0).
    """
    ax, ay, az = ap.position_m
    rx, ry, rz = position_m
    dx, dy, dz = rx - ax, ry - ay, rz - az
    d2 = dx * dx + dy * dy + dz * dz
    if d2 <= 0.0:
        raise ConfigError("receiver coincides with AP; LOS distance is zero")
    d = math.sqrt(d2)
    # AP normal is (0,0,-1); receiver normal is (0,0,+1).
    cos_phi = -dz / d
    cos_theta = -dz / d
    if cos_phi <= 0.0 or cos_theta <= 0.0:
        return 0.0
    if cos_theta < math.cos(math.radians(receiver.fov_deg)):
        return 0.0
    m = ap.lambertian_order
    return (m + 1.0) * receiver.area_m2 / (2.0 * math.pi * d2) \
        * cos_phi ** m * cos_theta


# =====================================================================
# Surface discretization
# =====================================================================

def _face_grid(e, u_len, v_len, make_point, normal):
    """(centers, normals, areas) of one face meshed into <= e-sized cells."""
    nu = max(1, math.ceil(u_len / e))
    nv = max(1, math.ceil(v_len / e))
    du, dv = u_len / nu, v_len / nv
    us = (np.arange(nu) + 0.5) * du
    vs = (np.arange(nv) + 0.5) * dv
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    pts = make_point(uu.ravel(), vv.ravel())
    n = pts.shape[0]
    normals = np.tile(np.asarray(normal, dtype=float), (n, 1))
    areas = np.full(n, du * dv)
    return pts, normals, areas


def surface_elements(room: RoomConfig, wavelength: str):
    """Discretize the six room faces into Lambertian reflector elements.

    Rooms with equal geometry and element cap share one mesh, built on
    first use; its centers, normals and areas are read-only.

    Returns:
        (centers, normals, areas, rhos) numpy arrays of shape (N, 3)/(N,)/...

    Raises:
        ResourceLimitError: when the mesh would exceed ``room.max_elements``.
    """
    refl = room.reflectivity_for(wavelength)
    mesh = _mesh(room.length_m, room.width_m, room.height_m,
                 room.element_edge_m, room.max_elements)
    return mesh.centers, mesh.normals, mesh.areas, mesh.rhos(refl)


@functools.lru_cache(maxsize=1)
def _mesh(L, W, H, e, max_elements) -> _Mesh:
    """The elements of the six faces (floor, ceiling, then the four walls)
    of one room geometry, with the views traces of that room share."""
    faces = [_face_grid(e, *face) for face in (
        # Floor (z=0, normal up) and ceiling (z=H, normal down).
        (L, W, lambda u, v: np.column_stack([u, v, np.zeros_like(u)]),
         (0, 0, 1)),
        (L, W, lambda u, v: np.column_stack([u, v, np.full_like(u, H)]),
         (0, 0, -1)),
        # Four walls.
        (L, H, lambda u, v: np.column_stack([u, np.zeros_like(u), v]),
         (0, 1, 0)),
        (L, H, lambda u, v: np.column_stack([u, np.full_like(u, W), v]),
         (0, -1, 0)),
        (W, H, lambda u, v: np.column_stack([np.zeros_like(u), u, v]),
         (1, 0, 0)),
        (W, H, lambda u, v: np.column_stack([np.full_like(u, L), u, v]),
         (-1, 0, 0)))]

    centers = np.vstack([f[0] for f in faces])
    if centers.shape[0] > max_elements:
        raise ResourceLimitError(
            f"{centers.shape[0]} surface elements exceed cap {max_elements}; "
            f"raise max_elements or coarsen element_edge_m"
        )
    return _Mesh(centers, np.vstack([f[1] for f in faces]),
                 np.concatenate([f[2] for f in faces]),
                 tuple(f[2].size for f in faces))


class _Mesh:
    """Surface elements of one room geometry and the read-only views of
    them that traces share (see the module docstring). ``rhos`` turns a
    reflectivity map into per-element values."""

    def __init__(self, centers, normals, areas, counts):
        self.centers, self.normals, self.areas = _frozen(centers, normals,
                                                         areas)
        self.counts = counts
        #: source rows per chunk of the second-order pass
        self.chunk_rows = max(1, _CHUNK_TARGET // centers.shape[0])
        #: (AP position, Lambertian order, power) -> (p_elem, t_elem)
        self.ap_views: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        #: (receiver position, field of view, area), (g_rx, t_rx)
        self.rx_view: Tuple = (None, None)
        #: (source and sink index bytes), sinks, and the (source x sink)
        #: transfer and delay of the last pair set, in the first
        #: len(sinks) columns of arrays that may be wider
        self.pairs: Tuple = (None, None, None, None)

    def rhos(self, refl: Dict[str, float]) -> np.ndarray:
        """Each element's reflectivity under one map."""
        face_rhos = (refl["floor"], refl["ceiling"]) + (refl["walls"],) * 4
        return np.repeat(np.array(face_rhos, float), self.counts)

    def ap(self, room, ap, po):
        """The ``_ap_transfer`` view of ``ap`` sending ``po`` watts. Past
        one view per AP and wavelength of the room, all are dropped."""
        key = (tuple(ap.position_m), ap.lambertian_order, po)
        view = self.ap_views.get(key)
        if view is None:
            if len(self.ap_views) >= sum(len(a.tx_power_w) for a in room.aps):
                self.ap_views.clear()
            view = self.ap_views[key] = _frozen(*_ap_transfer(self, *key))
        return view

    def rx(self, rx_position_m, fov_deg, area_m2):
        """The ``_rx_transfer`` view of the last receiver traced."""
        key = (rx_position_m, fov_deg, area_m2)
        if self.rx_view[0] != key:
            self.rx_view = key, _frozen(*_rx_transfer(self, *key))
        return self.rx_view[1]

    def pair_chunks(self, src_idx, sinks):
        """The chunks of ``_pair_chunks``, as row slices of a pair set kept
        for the next trace when it holds at most ``_CHUNK_TARGET`` pairs:
        one 0.1 m trace pairs 10,400 sources with 898 sinks, and its two
        pair arrays would hold 150 MB."""
        if src_idx.size * sinks.size > _CHUNK_TARGET:
            return _pair_chunks(self, src_idx, sinks)
        key = (src_idx.tobytes(), sinks.tobytes())
        if self.pairs[0] != key:
            self._update_pairs(key, src_idx, sinks)
        _, _, trans, delay = self.pairs
        k, step = sinks.size, self.chunk_rows
        return [(src_idx[r:r + step], trans[r:r + step, :k],
                 delay[r:r + step, :k])
                for r in range(0, src_idx.size, step)]

    def _update_pairs(self, key, src_idx, sinks):
        """Make ``sinks`` the columns of the kept pair set.

        A set with the sources of the last one that fits the last one's
        arrays is written over them: the sinks it shares with the last set
        move into place and only the others are computed. Neighbouring
        receiver positions share most of their sinks. Any other set gets
        arrays of its own width once the last set is dropped, so the two
        are never held at once, and all of its columns are computed. Each
        pair's values depend on its two elements alone, so a moved column
        has the bits a fresh one would."""
        last_key, last_sinks, trans, delay = self.pairs
        self.pairs = None, None, None, None
        k = sinks.size
        missing = np.ones(k, dtype=bool)
        if last_key is not None and last_key[0] == key[0] \
                and k <= trans.shape[1]:
            # both sets are in ascending element order, so the shared sinks
            # come in the same order in each
            in_last = np.zeros(self.centers.shape[0], dtype=bool)
            in_last[last_sinks] = True
            in_new = np.zeros(self.centers.shape[0], dtype=bool)
            in_new[sinks] = True
            shared, kept = in_last[sinks], in_new[last_sinks]
            for arr in (trans, delay):
                arr.flags.writeable = True
                # the right-hand side is a copy, so the columns may overlap
                arr[:, :k][:, shared] = arr[:, :kept.size][:, kept]
            missing = ~shared
        else:
            del trans, delay
            trans, delay = np.empty((2, src_idx.size, k))
        r = 0
        for rows, t, d in _pair_chunks(self, src_idx, sinks[missing]):
            trans[r:r + rows.size, :k][:, missing] = t
            delay[r:r + rows.size, :k][:, missing] = d
            r += rows.size
        self.pairs = (key, *_frozen(sinks, trans, delay))


def _frozen(*arrays):
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _ap_transfer(mesh, ap_position_m, m, po):
    """AP -> element transfer: (p_elem, t_elem), the power landing on each
    element and its arrival time."""
    v1 = mesh.centers - np.asarray(ap_position_m, float)
    d1 = np.linalg.norm(v1, axis=1)
    d1 = np.where(d1 <= 0, np.inf, d1)
    cos_phi1 = -v1[:, 2] / d1  # AP normal is -z
    cos_inc1 = -np.einsum("ij,ij->i", v1, mesh.normals) / d1
    ok1 = (cos_phi1 > 0) & (cos_inc1 > 0)
    p_elem = np.zeros_like(d1)
    p_elem[ok1] = (po * (m + 1.0) / (2.0 * math.pi * d1[ok1] ** 2)
                   * cos_phi1[ok1] ** m * cos_inc1[ok1] * mesh.areas[ok1])
    return p_elem, d1 / SPEED_OF_LIGHT_M_S


def _rx_transfer(mesh, rx_position_m, fov_deg, area_m2):
    """Element -> receiver transfer: (g_rx, t_rx), the per-unit-power gain
    of each element acting as an order-1 Lambertian emitter, with the FOV
    cut applied, and its delay."""
    cos_fov = math.cos(math.radians(fov_deg))
    v2 = np.asarray(rx_position_m, float) - mesh.centers
    d2 = np.linalg.norm(v2, axis=1)
    d2 = np.where(d2 <= 0, np.inf, d2)
    cos_emit2 = np.einsum("ij,ij->i", v2, mesh.normals) / d2
    cos_inc2 = -v2[:, 2] / d2  # receiver normal is +z
    ok2 = (cos_emit2 > 0) & (cos_inc2 >= cos_fov)
    g_rx = np.zeros_like(d2)
    g_rx[ok2] = (cos_emit2[ok2] * cos_inc2[ok2] * area_m2
                 / (math.pi * d2[ok2] ** 2))
    return g_rx, d2 / SPEED_OF_LIGHT_M_S


# =====================================================================
# Impulse response
# =====================================================================

@dataclass
class ImpulseResponse:
    """Binned received optical power over time.

    Attributes:
        bin_width_s: time quantization of the histogram.
        powers_w: received power per bin (W); bin i covers
            [i*bin, (i+1)*bin) seconds after emission.
        order_powers_w: total received power split by reflection order
            {0: LOS, 1: first bounce, 2: second bounce}.
    """

    bin_width_s: float
    powers_w: np.ndarray
    order_powers_w: Dict[int, float]

    @property
    def total_power_w(self) -> float:
        return float(self.powers_w.sum())

    def bin_times_s(self) -> np.ndarray:
        """Bin-center arrival times."""
        # i + 0.5 is exact, so this is (arange(n) + 0.5) * bin width
        t = np.arange(0.5, self.powers_w.size)
        t *= self.bin_width_s
        return t


def trace_impulse_response(room: RoomConfig, ap: AccessPoint,
                           receiver: ReceiverSpec,
                           rx_position_m: Tuple[float, float, float],
                           wavelength: str,
                           max_order: int = 2) -> ImpulseResponse:
    """Trace the optical impulse response from one AP to one receiver spot.

    Direct ray plus up to ``max_order`` diffuse bounces over the discretized
    room surfaces. Each surface element collects power from the previous hop
    and re-emits it as an ideal Lambertian source scaled by its reflectivity.

    Args:
        room: geometry, reflectivities, element mesh, and time quantization.
        ap: transmitting access point.
        receiver: detector parameters (area and field of view matter here).
        rx_position_m: (x, y, z) of the detector, facing straight up.
        wavelength: one of WAVELENGTHS (chooses tx power and reflectivity).
        max_order: 0 (LOS only), 1, or 2.

    Returns:
        ImpulseResponse with absolute received power per time bin.

    Raises:
        ResourceLimitError: when the trace needs more than ``_MAX_BINS``
            time bins (checked before any is allocated), or its room more
            than ``room.max_elements`` surface elements.
    """
    if max_order not in (0, 1, 2):
        raise ConfigError(f"max_order must be 0, 1 or 2, got {max_order}")
    if wavelength not in ap.tx_power_w:
        raise ConfigError(f"AP {ap.ap_id} has no tx power for {wavelength!r}")
    po = float(ap.tx_power_w[wavelength])

    hist = _alloc_bins(room, max_order)
    order_powers = {k: 0.0 for k in range(max_order + 1)}

    # ---- direct ray -------------------------------------------------
    g = los_gain(ap, receiver, rx_position_m)
    if g > 0.0:
        d = math.dist(ap.position_m, rx_position_m)
        idx = int(d / SPEED_OF_LIGHT_M_S / room.time_bin_s)
        hist[idx] += po * g
        order_powers[0] = po * g

    if max_order >= 1 and po > 0.0:
        refl = room.reflectivity_for(wavelength)
        mesh = _mesh(room.length_m, room.width_m, room.height_m,
                     room.element_edge_m, room.max_elements)
        rhos = mesh.rhos(refl)
        p_elem, t_elem = mesh.ap(room, ap, po)
        g_rx, t_rx = mesh.rx(tuple(rx_position_m), receiver.fov_deg,
                             receiver.area_m2)
        src_power = rhos * p_elem

        # ---- first order --------------------------------------------
        contrib = src_power * g_rx
        live = contrib > 0
        if np.any(live):
            idx = ((t_elem[live] + t_rx[live]) / room.time_bin_s).astype(np.int64)
            np.add.at(hist, idx, contrib[live])
            order_powers[1] = float(contrib[live].sum())

        # ---- second order -------------------------------------------
        if max_order >= 2:
            sink_gain = rhos * g_rx
            sinks = np.nonzero(sink_gain > 0)[0]
            order_powers[2] = _second_order_pass(
                hist, room.time_bin_s, mesh, src_power, t_elem, sinks,
                sink_gain[sinks], t_rx[sinks])

    return ImpulseResponse(room.time_bin_s, _trim(hist), order_powers)


def _alloc_bins(room: RoomConfig, max_order: int):
    """Zeroed bins that hold the longest path of ``max_order`` bounces,
    refused past ``_MAX_BINS`` before any is allocated."""
    diag = math.sqrt(room.length_m ** 2 + room.width_m ** 2 + room.height_m ** 2)
    max_path = (max_order + 1) * diag
    # infinite for a subnormal bin width
    span = max_path / SPEED_OF_LIGHT_M_S / room.time_bin_s
    if not span < _MAX_BINS - 1:
        raise ResourceLimitError(
            f"a trace needs more than {_MAX_BINS} time bins at "
            f"room.time_bin_s={room.time_bin_s!r}; raise it or shrink the "
            f"room")
    return np.zeros(int(span) + 2)


def _trim(hist: np.ndarray) -> np.ndarray:
    # argmax stops at the first nonzero bin from the end
    nonzero = hist[::-1] != 0
    k = int(nonzero.argmax())
    if not nonzero[k]:
        return hist[:1].copy()
    return hist[:hist.size - k].copy()


def _second_order_pass(hist, bin_width_s, mesh, src_power, t_elem, sinks,
                       sink_gain, sink_t) -> float:
    """Accumulate AP->i->j->receiver contributions into ``hist``.

    Sources i are the elements that re-emit power from the AP
    (``src_power > 0``); sinks j are the elements with ``rhos * g_rx > 0``,
    inside the receiver's field of view and facing it. The filter is exact:
    any other j has ``contrib == 0`` for every i, so it never adds to the
    response, and dropping those columns keeps the live pairs in row-major
    order, so each ``bincount`` sees the same weights in the same order.
    Chunked over sources (see ``_CHUNK_TARGET`` and ``_Mesh.pair_chunks``).
    Returns the total second-order power added.
    """
    src_idx = np.nonzero(src_power > 0)[0]
    if src_idx.size == 0 or sinks.size == 0:
        return 0.0
    nbins = hist.size
    inv_bin = 1.0 / bin_width_s
    total = 0.0
    for rows, trans, delay in mesh.pair_chunks(src_idx, sinks):
        contrib = src_power[rows, None] * trans
        contrib *= sink_gain
        live = contrib > 0
        if not live.any():
            continue
        tt = t_elem[rows, None] + delay
        tt += sink_t
        tt *= inv_bin
        if live.all():
            tt, w = tt.ravel(), contrib.ravel()
        else:
            tt, w = tt[live], contrib[live]
        hist += np.bincount(tt.astype(np.int64), weights=w, minlength=nbins)
        total += float(w.sum())
    return total


def _pair_chunks(mesh, src_idx, sinks):
    """Yield (rows, trans, dij / c) per chunk of source rows: the
    element-to-element transfer and delay of every (source, sink) pair.
    Each step works in place but is the same operation, on the same
    operands, as the plain expression, so the bits are those of the plain
    expression; the fewer temporaries keep the main heap smaller."""
    centers, normals, areas = mesh.centers, mesh.normals, mesh.areas
    sink_centers, sink_normals = centers[sinks], normals[sinks]
    sink_areas = areas[sinks]
    chunk = mesh.chunk_rows
    for k0 in range(0, src_idx.size, chunk):
        rows = src_idx[k0:k0 + chunk]
        vij = sink_centers[None, :, :] - centers[rows, None, :]  # (c, s, 3)
        dij = np.einsum("csj,csj->cs", vij, vij)
        np.sqrt(dij, out=dij)
        np.maximum(dij, 1e-12, out=dij)
        cos_emit = np.einsum("csj,cj->cs", vij, normals[rows])
        cos_emit /= dij
        cos_inc = np.einsum("csj,sj->cs", vij, sink_normals)
        del vij
        np.negative(cos_inc, out=cos_inc)
        cos_inc /= dij
        # both ends must face each other; masking the product alone would
        # wrongly admit back-to-back pairs
        facing = (cos_emit > 0) & (cos_inc > 0)
        trans = cos_emit
        trans *= cos_inc
        trans[~facing] = 0.0
        # sink area / (pi dij^2), in the buffer cos_inc is done with
        spread = np.square(dij, out=cos_inc)
        spread *= math.pi
        trans *= np.divide(sink_areas, spread, out=spread)
        dij /= SPEED_OF_LIGHT_M_S
        yield rows, trans, dij


# =====================================================================
# Channel metrics
# =====================================================================

def delay_spread(ir: ImpulseResponse) -> float:
    """RMS delay spread of a binned impulse response, in seconds.

    Zero for an empty or single-impulse response.
    """
    p = ir.powers_w
    total = p.sum()
    if total <= 0.0 or np.count_nonzero(p) <= 1:
        return 0.0
    t = ir.bin_times_s()
    mean = float((p * t).sum() / total)
    # p * (t - mean) ** 2, each step in place
    t -= mean
    np.square(t, out=t)
    t *= p
    return math.sqrt(max(float(t.sum() / total), 0.0))


def bandwidth_3db(ir: ImpulseResponse,
                  workspace: Optional[Dict[int, np.ndarray]] = None) -> float:
    """3-dB (half-power-magnitude) bandwidth of the channel, in Hz.

    DFT of the zero-padded bin histogram (``_PAD_FACTOR``, ``_MIN_FFT``);
    the first frequency where |H(f)| / |H(0)| falls below 1/sqrt(2),
    linearly interpolated between DFT samples. A response that never
    crosses within the representable band (e.g. a single impulse: perfectly
    flat |H|) reports the Nyquist limit 1 / (2 * bin width). When the
    largest bin proves that no sample can cross (``_flat_to_nyquist``), the
    limit is returned without a transform.

    Args:
        workspace: optional dict, transform length -> spectrum buffer. The
            spectrum is written into the buffer for its length, made on
            first use, so callers measuring many responses allocate it once.

    Raises:
        InfeasibleError: for an all-zero response (no received power).
    """
    p = ir.powers_w
    total = p.sum()
    if total <= 0.0:
        raise InfeasibleError("no received power; 3-dB bandwidth undefined",
                              report={"kind": "empty_impulse_response"})
    n = max(_MIN_FFT, 1 << (p.size * _PAD_FACTOR - 1).bit_length())
    target = 1.0 / math.sqrt(2.0)
    nyquist = 1.0 / (2.0 * ir.bin_width_s)
    if _flat_to_nyquist(p, total, n, target):
        return nyquist
    if workspace is None:
        workspace = {}
    spec = workspace.get(n)
    if spec is None:
        spec = workspace[n] = np.empty(n // 2 + 1, dtype=complex)
    np.fft.rfft(p, n=n, out=spec)
    crossing = _first_bin_below(spec, target)
    if crossing is None:
        return nyquist
    # mag[0] is |H0| / |H0| = 1, so k >= 1, and m0 >= target > m1
    k, m0, m1 = crossing
    # linear interpolation of the crossing between samples k-1 and k;
    # val is rfftfreq's sample spacing, so f0 and f1 are its samples
    val = 1.0 / (n * ir.bin_width_s)
    f0, f1 = (k - 1) * val, k * val
    f_cross = f0 + (m0 - target) / (m0 - m1) * (f1 - f0)
    return float(min(f_cross, nyquist))


def _flat_to_nyquist(p, total, n, target) -> bool:
    """True when no sample of the n-point spectrum of ``p`` can fall below
    ``target`` times its DC value, so the 3-dB scan would find no crossing.

    For bins p_j >= 0 with exact sum S and largest bin M, every DFT sample
    has |H_k| >= M - (S - M) = 2M - S, and H_0 = S. The test is

        fl(2M - fl(S)) > fl(fl(target * (1 + delta)) * fl(S)),  delta = 1e-9.

    Rounding, with u the unit roundoff and gamma(k) = k u / (1 - k u)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002):
        - ``p.sum()`` adds at most n terms, so fl(S) = S (1 + s) with
          |s| <= gamma(n) =: sigma (3.1); 2M is exact;
        - the rFFT is within eps * S of the exact transform at every bin:
          Higham's Theorem 24.2 (radix 2; pocketfft's radix-4 and real-input
          passes have the same log2(n)-stage form) gives
          ||H^ - H||_2 <= log2(n) eta ||H||_2 to first order, with eta <= 7u
          for twiddles accurate to u, and ||H||_2 = sqrt(n) ||p||_2 <=
          sqrt(n) S, so eps <= sqrt(n) log2(n) 7u;
        - the test's own operations round 4 times, and the scan's two
          ``abs`` and its division at most 5u in all.
    A passing test gives 2M - S >= target S (1 + delta - 4u - 3 sigma), as
    1 / target < 1.5, so every scanned magnitude |H^_k| / |H^_0| is at least
    target (1 + delta - 9u - 3 sigma - 4 eps). Up to n = 2^20
    (``_FLAT_MAX_FFT``), sigma < 1.2e-10 and eps < 1.6e-11, so the slack is
    under 4.2e-10 < delta and no sample is below ``target``. At the tracer's
    n = 2^16 it is under 1.3e-11, about 75 times below delta. A negative bin
    breaks the first bound, and such a response always takes the transform.
    """
    if n > _FLAT_MAX_FFT or p.min() < 0.0:
        return False
    return 2.0 * p.max() - total > target * (1.0 + _FLAT_MARGIN) * total


def _first_bin_below(spec, target):
    """First k with |spec[k]| / |spec[0]| < target, as (k, mag[k-1], mag[k]).

    The magnitude is taken block by block, since the crossing usually sits
    in the first few hundred of the n / 2 + 1 bins; ``before`` carries the
    last magnitude of the previous block. None when no bin falls below.
    """
    dc = abs(spec[0])
    before = None
    start, stop = 0, _FFT_BLOCK
    while start < spec.size:
        mag = np.abs(spec[start:stop]) / dc
        below = np.nonzero(mag < target)[0]
        if below.size:
            j = int(below[0])
            return start + j, (mag[j - 1] if j else before), mag[j]
        before = mag[-1]
        start, stop = stop, 2 * stop
    return None


def channel_rate(bw_3db_hz, receiver_bandwidth_hz: float,
                 rate_factor: float = 1.0):
    """Raw rate a link's bandwidth allows, before FEC de-rating, in bit/s:
    rate_factor * min(channel 3-dB bandwidth, receiver bandwidth), for one
    link or elementwise over an array of them."""
    return rate_factor * np.minimum(bw_3db_hz, receiver_bandwidth_hz)


def fec_rate(rate_bps: float, sinr_db: float) -> float:
    """Rate left after forward error correction: 10% less below 15.6 dB.

    The de-rating covers every SINR under ``FEC_FREE_SINR_DB``, including an
    admitted link a rounding tolerance below the 14 dB floor.
    """
    if sinr_db < FEC_FREE_SINR_DB:
        return rate_bps * FEC_RATE_FACTOR
    return rate_bps


# =====================================================================
# Per-link records
# =====================================================================

@dataclass
class ChannelRecords:
    """Channel metrics of every (user position, AP, wavelength) link.

    Each metric is a dense (U, A, W) array: axis 0 follows ``positions_m``
    (as given), axis 1 ``ap_ids`` (the room's AP order) and axis 2
    ``wavelengths`` (canonical order).
    """

    positions_m: List[Tuple[float, float]]
    ap_ids: List[int]
    wavelengths: List[str]
    h: np.ndarray
    rx_power_w: np.ndarray
    delay_spread_s: np.ndarray
    bw_3db_hz: np.ndarray
    rate_bps: np.ndarray


def compute_channel_records(room: RoomConfig, receiver: ReceiverSpec,
                            positions: Sequence[Tuple[float, float]]
                            ) -> ChannelRecords:
    """Trace every (user, AP, wavelength) link and tabulate its metrics.

    Positions are (x, y) on the receiver plane, all checked before any map
    is resolved. Each link is traced once per distinct reflectivity map at
    unit transmit power (the response scales linearly with it), and that
    trace's gain, delay spread and 3-dB bandwidth are measured once and
    reused for every wavelength sharing the map. With the default flat map
    all four wavelengths share one trace; a per-wavelength map traces and
    measures each distinct map separately.

    The 3-dB bandwidths are measured on one measuring thread, the only
    consumer of a queue of responses, while this thread traces the next
    link and takes its delay spread; a trace that would take the queued
    responses past ``_QUEUE_BYTES`` is measured here. The measuring thread
    is joined before the call returns or raises, and the first exception
    either thread meets is raised here.

    The tabulated ``rate_bps`` is the raw channel-supported rate
    (``channel_rate``); FEC de-rating happens later once an assignment fixes
    each user's SINR.
    """
    for u, (x, y) in enumerate(positions):
        if not (0 <= x <= room.length_m and 0 <= y <= room.width_m):
            raise ConfigError(f"user {u} at ({x}, {y}) lies outside the room")
    # wavelength -> reflectivity-map key; each map is traced at its first
    # wavelength, by a unit-power copy of each AP
    map_keys = {wl: tuple(sorted(room.reflectivity_for(wl).items()))
                for wl in WAVELENGTHS}
    traced_at: Dict[Tuple, str] = {}
    for wl, key in map_keys.items():
        traced_at.setdefault(key, wl)
    unit_aps = [AccessPoint(
                    ap_id=ap.ap_id, position_m=ap.position_m,
                    half_power_semiangle_deg=ap.half_power_semiangle_deg,
                    tx_power_w=dict.fromkeys(traced_at.values(), 1.0))
                for ap in room.aps]
    z = room.receiver_plane_m
    links = (((x, y, z), wl, unit_ap) for x, y in positions
             for unit_ap in unit_aps for wl in traced_at.values())
    # (h, delay spread, 3-dB bandwidth) of each trace, in trace order
    traces = np.empty((3, len(positions) * len(room.aps) * len(traced_at)))
    # imported here, as the stages that never trace (place, sweep,
    # validate) would otherwise carry it in memory
    import queue
    jobs = queue.SimpleQueue()
    # bytes of the responses put on the queue, and of those the measuring
    # thread has taken off it; each count is written by one thread alone,
    # and a stale ``taken`` only overstates what is queued
    sent, taken = 0, [0]
    errors: List[BaseException] = []
    measurer = threading.Thread(target=_measure_bandwidths,
                                args=(jobs, taken, traces[2], errors),
                                daemon=True)
    measurer.start()
    # this thread's spectrum buffers, for the traces it measures itself
    workspace: Dict[int, np.ndarray] = {}
    try:
        for i, (rx_position_m, wl, unit_ap) in enumerate(links):
            if errors:
                break
            unit_ir = trace_impulse_response(room, unit_ap, receiver,
                                             rx_position_m, wl)
            size = unit_ir.powers_w.nbytes
            if sent + size - taken[0] <= _QUEUE_BYTES:
                sent += size
                jobs.put((i, unit_ir))
            else:
                # the measuring thread is too far behind: measure it here
                _measure(i, unit_ir, traces[2], errors, workspace)
            # unit transmit power: total power is the gain
            traces[:2, i] = unit_ir.total_power_w, delay_spread(unit_ir)
    finally:
        jobs.put(None)
        measurer.join()
    if errors:
        raise errors[0]

    # wavelength -> the trace of its map at each link
    trace_of = [list(traced_at).index(key) for key in map_keys.values()]
    h, ds, bw = traces.reshape(3, len(positions), len(room.aps),
                               len(traced_at))[:, :, :, trace_of]
    tx_power_w = np.array([[float(ap.tx_power_w.get(wl, 0.0))
                            for wl in WAVELENGTHS] for ap in room.aps])
    return ChannelRecords(
        list(positions), [ap.ap_id for ap in room.aps], list(WAVELENGTHS),
        h, tx_power_w * h, ds, bw,
        channel_rate(bw, receiver.bandwidth_hz, receiver.rate_factor))


def _measure_bandwidths(jobs, taken: List[int], bw: np.ndarray,
                        errors: List[BaseException]) -> None:
    """The measuring thread of ``compute_channel_records``: measures each
    ``(trace number, response)`` job of ``jobs`` until ``None`` with its own
    spectrum buffers, adding each response's bytes to ``taken[0]`` as it
    takes it. Once ``errors`` holds an exception, later jobs are taken
    unmeasured."""
    workspace: Dict[int, np.ndarray] = {}
    while (job := jobs.get()) is not None:
        taken[0] += job[1].powers_w.nbytes
        _measure(*job, bw, errors, workspace)
        # hold no response while waiting for the next
        del job


def _measure(i: int, ir: ImpulseResponse, bw: np.ndarray,
             errors: List[BaseException], workspace: Dict) -> None:
    """Write the 3-dB bandwidth of trace ``i``, response ``ir``, into
    ``bw[i]``, 0.0 when no power arrives. Another exception goes into
    ``errors`` for the caller to raise, and nothing is measured once it
    holds one."""
    if errors:
        return
    try:
        bw[i] = bandwidth_3db(ir, workspace=workspace)
    except InfeasibleError:
        bw[i] = 0.0
    except BaseException as exc:  # raised again by the caller
        errors.append(exc)
