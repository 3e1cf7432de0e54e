"""WDMA access allocation: assign each user one (AP, wavelength) slot.

The objective is the sum of user SINRs under the linearized interference
accounting (see :mod:`owcfog.signal_model`). Each slot serves at most one
user and each user exactly one slot; every assigned user must clear the SINR
floor, and the channel-supported rates of the users one AP serves cannot
exceed its backhaul (ONU) capacity. The big-M row form of this problem lives
in ``tests/oracles.py``.

Each user's SINR is fully determined once the assignment is fixed, so the
search is combinatorial over assignments. ``solve_branch_and_bound`` explores
users in index order. Its bound is a function of the free-slot mask alone,
recomputed at each node with no state carried between nodes: a busy foreign
slot charges its full signal to a user's denominator and a free one
min(signal, shot), since it may still go either way, so every assigned user
has an SINR ceiling that only falls as the search deepens. With every slot
free it is the root bound. Wavelengths whose signal and shot slices are
bitwise equal are interchangeable, and a member of such a class may be opened
only after every lower-indexed member is in use. The search and the
exhaustive oracle in ``tests/oracles.py`` share one tie rule: both visit leaves
in lexicographic slot order and keep a leaf only when it beats the incumbent
by more than tol. A skipped symmetric permutation scores bitwise like the
earlier leaf it mirrors, so it cannot beat that incumbent by more than tol,
and a bound cut drops only leaves scoring below the incumbent minus tol, so
both return the same assignment on the same instance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from owcfog.channel import fec_rate
from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError
from owcfog.room import ReceiverSpec
from owcfog.signal_model import (
    ELECTRON_CHARGE_C,
    ChannelTable,
    linearized_gammas,
    preamp_noise,
)
from owcfog.topology import ONU_CAPACITY_MBPS

#: Assigned slots must reach at least this linear SINR (10^1.4, i.e. 14 dB).
DEFAULT_SINR_FLOOR = 10.0 ** 1.4

#: Per-AP backhaul capacity, bit/s: the line rate of the ONU feeding the AP.
DEFAULT_ONU_CAPACITY_BPS = ONU_CAPACITY_MBPS * 1e6

#: The floor and the cap with a rounding margin; ``tests/oracles.py`` admits by
#: them too, so the search and its oracle admit the same leaves.
_FLOOR = DEFAULT_SINR_FLOOR * (1 - 1e-12)
_ONU_CAP = DEFAULT_ONU_CAPACITY_BPS * (1 + 1e-12)

_TIE_REL = 1e-9


# =====================================================================
# Problem container
# =====================================================================

@dataclass
class AllocationProblem:
    """Dense instance data for the assignment problem.

    Users are the rows 0..U-1 of ``signal_a2``; every user-indexed result
    (assignments, SINRs, reports) is keyed by that row.

    Attributes:
        ap_ids / wavelengths: labels of the AP and wavelength axes.
        signal_a2: (U, A, W) electrical signal power of each candidate slot.
        shot_a2: (U, A, W) shot-noise power each AP contributes when its
            wavelength is left unmodulated.
        rate_bps: (U, A) channel-supported data rate of each user-AP pair.
        preamp_a2: receiver noise floor.

    Every assigned slot must reach ``DEFAULT_SINR_FLOOR``, and every AP's
    backhaul carries at most ``DEFAULT_ONU_CAPACITY_BPS``.
    """

    ap_ids: List[int]
    wavelengths: List[str]
    signal_a2: np.ndarray
    shot_a2: np.ndarray
    rate_bps: np.ndarray
    preamp_a2: float

    def __post_init__(self):
        a, w = len(self.ap_ids), len(self.wavelengths)
        self.signal_a2 = np.asarray(self.signal_a2, dtype=float)
        self.shot_a2 = np.asarray(self.shot_a2, dtype=float)
        self.rate_bps = np.asarray(self.rate_bps, dtype=float)
        shape = self.signal_a2.shape[:1] + (a, w)     # U is signal's rows
        if self.signal_a2.shape != shape or self.shot_a2.shape != shape:
            raise ConfigError("signal/shot arrays must have shape (U, A, W)")
        if self.rate_bps.shape != shape[:2]:
            raise ConfigError("rate array must have shape (U, A)")
        if not 0 < self.preamp_a2 < math.inf:
            raise ConfigError("preamp noise must be positive and finite")
        for array in (self.signal_a2, self.shot_a2, self.rate_bps):
            if not ((0 <= array) & (array < math.inf)).all():
                raise ConfigError(
                    "powers and rates must be non-negative and finite")

    @classmethod
    def from_table(cls, table: ChannelTable, receiver: ReceiverSpec
                   ) -> "AllocationProblem":
        """Bake a channel table + the receiver's noise into instance arrays:
        signal (R P)^2 and shot noise 2 e (R P) B, in A^2, for each received
        power P. A negative P gives negative shot noise and is refused.

        Per-wavelength rates are collapsed to their minimum per (user, AP)
        pair, which is conservative for the backhaul constraint (they are
        identical whenever all wavelengths share a reflectivity map).
        """
        current = receiver.responsivity_a_per_w * table.rx_power_w
        shot = 2.0 * ELECTRON_CHARGE_C * current * receiver.bandwidth_hz
        return cls(list(table.ap_ids), list(table.wavelengths), current ** 2,
                   shot, table.rate_bps.min(axis=2),
                   preamp_a2=preamp_noise(receiver))

    def slot_label(self, slot: Tuple[int, int]) -> Tuple[int, str]:
        a, w = slot
        return self.ap_ids[a], self.wavelengths[w]


# =====================================================================
# Assignment evaluation
# =====================================================================

def _objective(gammas: Sequence[float]) -> float:
    """Left-to-right sum, the oracle's order (``sum`` compensates on 3.12+)."""
    total = 0.0
    for g in gammas:
        total += g
    return total


@dataclass
class AllocationSolution:
    """Solved assignment plus per-user link quality."""

    assignment: Dict[int, Tuple[int, str]]   # user -> (ap_id, wavelength)
    sinr: Dict[int, float]
    sinr_db: Dict[int, float]
    rate_bps: Dict[int, float]               # after FEC de-rating
    objective: float
    stats: Dict[str, object] = field(default_factory=dict)


def _solution_from_indices(problem: AllocationProblem,
                           assignment: Dict[int, Tuple[int, int]],
                           stats: Dict[str, object]) -> AllocationSolution:
    slots = [assignment[u] for u in range(len(problem.signal_a2))]
    gammas = linearized_gammas(problem.signal_a2, problem.shot_a2,
                               problem.preamp_a2, slots).tolist()
    named = {u: problem.slot_label(slot) for u, slot in enumerate(slots)}
    sinr_lin = dict(enumerate(gammas))
    sinr_dbs = {u: 10.0 * math.log10(g) if g > 0 else -math.inf
                for u, g in sinr_lin.items()}
    rates = {u: fec_rate(float(problem.rate_bps[u, a]), sinr_dbs[u])
             for u, (a, w) in enumerate(slots)}
    return AllocationSolution(
        assignment=named, sinr=sinr_lin, sinr_db=sinr_dbs,
        rate_bps=rates, objective=_objective(gammas), stats=stats,
    )


# =====================================================================
# Solvers
# =====================================================================

def _slot_list(problem: AllocationProblem) -> List[Tuple[int, int]]:
    return [(a, w) for a in range(len(problem.ap_ids))
            for w in range(len(problem.wavelengths))]


def _slot_bounds(problem: AllocationProblem,
                 free: Union[np.ndarray, bool] = True) -> np.ndarray:
    """SINR ceiling of every slot (u, a, w) given the (A, W) free-slot mask.

    Each foreign slot (b, w) charges a user on wavelength w its full signal
    once it is busy, and min(signal, shot) while it is free, since it may
    still go either way, so the ceiling only falls as slots are taken.  The
    default, every slot free, is the root bound, independent of any choice.
    """
    signal = problem.signal_a2
    charge = np.where(free, np.minimum(signal, problem.shot_a2), signal)
    return signal / (problem.preamp_a2
                     + (charge.sum(axis=1)[:, None, :] - charge))


def _tie_tolerance(problem: AllocationProblem) -> float:
    """Objective tolerance under which two assignments count as tied.

    Shared by both solvers so their tie handling is bit-identical.
    """
    ub = _slot_bounds(problem)
    if ub.size == 0:
        return _TIE_REL
    return _TIE_REL * max(1.0, float(ub.max(axis=(1, 2)).sum()))


def _symmetry_classes(problem: AllocationProblem) -> List[List[int]]:
    """Group wavelengths whose signal and shot slices are bitwise equal.

    Rates are per (user, AP) and do not depend on the wavelength, so any
    permutation inside a class maps every assignment to one with the same
    gammas, bit for bit. Classes are ordered by their lowest member.
    """
    groups: Dict[Tuple[bytes, bytes], List[int]] = {}
    for w in range(len(problem.wavelengths)):
        key = (np.ascontiguousarray(problem.signal_a2[..., w]).tobytes(),
               np.ascontiguousarray(problem.shot_a2[..., w]).tobytes())
        groups.setdefault(key, []).append(w)
    return list(groups.values())


def check_slot_count(n_users: int, n_slots: int) -> None:
    """Refuse more users than AP-wavelength slots: each slot serves at most
    one user. The count alone decides it, so it can run before any trace."""
    if n_users > n_slots:
        raise InfeasibleError(
            "more users than AP-wavelength slots",
            report={"constraint": "slot_once", "users": n_users,
                    "slots": n_slots})


def solve_branch_and_bound(problem: AllocationProblem,
                           time_limit_s: Optional[float] = None
                           ) -> AllocationSolution:
    """Exact depth-first branch and bound over user assignments.

    Users are branched in index order; children enumerate free slots in
    (AP, wavelength) order. Each node recomputes its bound from the
    free-slot mask alone (``_slot_bounds``): every foreign slot (b, w) is
    charged to the denominator of a user on wavelength w, its full signal
    once it is busy and min(signal, shot) while it is free, since it may
    still go either way. That gives every user an admissible SINR bound on
    the partial assignment, and backtracking restores it by freeing the
    slot. A node is cut when an assigned user's bound is below the
    floor, when an unassigned user has no free slot whose bound meets it,
    when the sum of those bounds cannot beat the incumbent, or when an AP's
    backhaul would be exceeded.

    Wavelengths whose signal and shot slices are bitwise equal form a
    symmetry class, and a class member may be opened only once every
    lower-indexed member is in use (Margot 2010). Leaves come in
    lexicographic slot order and replace the incumbent only when they beat
    it by more than tol. A skipped symmetric permutation scores bitwise like
    the earlier leaf it mirrors, so it never would, and a bound cut drops
    only leaves below incumbent - tol. The result is the oracle's assignment.

    The search is one loop over an explicit stack, with a frame per open
    depth: the iterator over the slots left to try for that user, and the
    load its chosen slot's AP carried before. A leaf or a cut node opens no
    frame; the loop then steps to the next slot of the deepest frame, first
    freeing the slot its last child took and restoring that AP's load, and
    pops a frame whose slots are spent. On a timeout it pops every open
    frame the same way, so each is undone as a returning call would be.

    Raises:
        InfeasibleError: the full search proves no assignment satisfies the
            floor and backhaul constraints (the report names the binding one).
        ResourceLimitError: time limit expired before any feasible leaf.
    """
    t0 = time.monotonic()
    n_users = len(problem.signal_a2)
    n_aps = len(problem.ap_ids)
    n_wl = len(problem.wavelengths)
    slots = _slot_list(problem)
    if n_users == 0:
        return _solution_from_indices(problem, {}, {
            "method": "branch_and_bound", "nodes": 1, "leaves": 1,
            "gap": 0.0, "complete": True, "elapsed_s": 0.0})
    check_slot_count(n_users, len(slots))

    ub = _slot_bounds(problem)                 # the root node's bound
    for u in range(n_users):
        if not (ub[u] >= _FLOOR).any():
            raise InfeasibleError(
                f"user {u} cannot reach the SINR floor on any slot",
                report={"constraint": "sinr_floor",
                        "user": u,
                        "floor": DEFAULT_SINR_FLOOR,
                        "best_possible_sinr": float(ub[u].max())})
    root_bound = sum(float(ub[u].max()) for u in range(n_users))
    tol = _tie_tolerance(problem)

    classes = _symmetry_classes(problem)
    previous = [-1] * n_wl                     # next-lower member of w's class
    for members in classes:
        for lower, w in zip(members, members[1:]):
            previous[w] = lower

    signal = problem.signal_a2
    shot = problem.shot_a2
    preamp = problem.preamp_a2
    rate = problem.rate_bps.tolist()

    best_obj: Optional[float] = None
    best_key: Optional[Tuple[Tuple[int, int], ...]] = None
    nodes = leaves = floor_rejects = onu_rejects = bound_prunes = 0
    deadline = None if time_limit_s is None else t0 + time_limit_s
    timed_out = False

    assignment: List[Tuple[int, int]] = []     # slot of user 0, 1, ...
    free = np.ones((n_aps, n_wl), dtype=bool)
    wl_busy = [0] * n_wl
    ap_load = [0.0] * n_aps
    # the open depths: children[d] iterates the slots left to try for user
    # d, and loads[d] is what its chosen slot's AP carried before it
    children: List[Iterator[int]] = []
    loads: List[float] = []

    depth = 0
    while True:
        # the node at depth; it opens a frame unless it is a leaf or cut
        nodes += 1
        if deadline is not None and nodes % 256 == 0 \
                and time.monotonic() > deadline:
            timed_out = True
        elif depth == n_users:
            leaves += 1
            gammas = linearized_gammas(signal, shot, preamp,
                                       assignment).tolist()
            if min(gammas) < _FLOOR:
                floor_rejects += 1
            else:
                obj = _objective(gammas)
                if best_obj is None or obj > best_obj + tol:
                    best_obj, best_key = obj, tuple(assignment)
        else:
            bound = _slot_bounds(problem, free)
            assigned = [bound[u, a, w] for u, (a, w) in enumerate(assignment)]
            if assigned and min(assigned) < _FLOOR:
                floor_rejects += 1
            else:
                rest = bound[depth:]
                best_free = np.where(free & (rest >= _FLOOR), rest, -1.0) \
                    .reshape(n_users - depth, -1).max(axis=1)
                if best_free.min() < 0:
                    floor_rejects += 1
                elif best_obj is not None \
                        and sum(assigned) + best_free.sum() < best_obj - tol:
                    bound_prunes += 1
                else:
                    open_slots = (free & (bound[depth] >= _FLOOR)).ravel()
                    children.append(iter(np.flatnonzero(open_slots).tolist()))
        # step to the next node in DFS order, undoing each closed child
        while children:
            u = len(children) - 1
            if depth > u:  # back from the child at depth u + 1
                a, w = assignment.pop()
                ap_load[a] = loads.pop()
                wl_busy[w] -= 1
                free[a, w] = True
                depth = u
            if not timed_out:
                for s in children[u]:
                    a, w = slots[s]
                    # open a wavelength only after the lower members of its
                    # class; members open in order, so the next-lower one
                    # stands for all
                    if not wl_busy[w] and previous[w] >= 0 \
                            and not wl_busy[previous[w]]:
                        continue
                    load = ap_load[a]
                    new_load = load + rate[u][a]
                    if new_load > _ONU_CAP:
                        onu_rejects += 1
                        continue
                    assignment.append((a, w))
                    free[a, w] = False
                    wl_busy[w] += 1
                    ap_load[a] = new_load
                    loads.append(load)
                    depth = u + 1
                    break
            if depth > u:  # entered that slot's child
                break
            children.pop()
        else:
            break
    elapsed = time.monotonic() - t0

    if best_key is None:
        if timed_out:
            raise ResourceLimitError(
                f"time limit {time_limit_s}s expired before any feasible "
                f"assignment was found")
        _raise_infeasible(problem, floor_rejects, onu_rejects)
    if timed_out:
        # conservative: measure the incumbent against the root relaxation
        gap = max(0.0, (root_bound - best_obj) / max(1.0, abs(best_obj)))
    else:
        gap = 0.0
    stats = {
        "method": "branch_and_bound",
        "nodes": nodes,
        "leaves": leaves,
        "bound_prunes": bound_prunes,
        "floor_rejects": floor_rejects,
        "onu_rejects": onu_rejects,
        "symmetry_classes": [[problem.wavelengths[w] for w in members]
                             for members in classes],
        "gap": gap,
        "complete": not timed_out,
        "elapsed_s": elapsed,
    }
    return _solution_from_indices(problem, dict(enumerate(best_key)), stats)


def _raise_infeasible(problem: AllocationProblem, floor_rejects: int,
                      onu_rejects: int):
    binding = "sinr_floor" if floor_rejects >= onu_rejects else "onu_capacity"
    ub = _slot_bounds(problem)
    per_user = {u: float(bounds.max()) for u, bounds in enumerate(ub)}
    raise InfeasibleError(
        f"no feasible assignment: binding constraint {binding}",
        report={
            "constraint": binding,
            "floor": DEFAULT_SINR_FLOOR,
            "floor_rejections": floor_rejects,
            "onu_rejections": onu_rejects,
            "best_possible_sinr_per_user": per_user,
        })

