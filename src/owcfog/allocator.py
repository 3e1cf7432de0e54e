"""WDMA access allocation: assign each user one (AP, wavelength) slot.

The objective is the sum of user SINRs under the linearized interference
accounting (see :mod:`owcfog.signal_model`). Each slot serves at most one
user and each user exactly one slot; every assigned user must clear the SINR
floor, and the channel-supported rates of the users one AP serves cannot
exceed its backhaul (ONU) capacity. The big-M row form of this problem lives
in :mod:`owcfog.audit`.

Each user's SINR is fully determined once the assignment is fixed, so the
search is combinatorial over assignments. ``solve_branch_and_bound`` explores
users in index order. Its bound works on the partial assignment: a busy
foreign slot charges its full signal to a user's denominator and a free one
min(signal, shot), since it may still go either way, so every assigned user
has an SINR ceiling that only falls as the search deepens. Wavelengths whose signal and shot slices are
bitwise equal are interchangeable, and a member of such a class may be opened
only after every lower-indexed member is in use. The exhaustive oracle in
:mod:`owcfog.audit` applies the same deterministic tie-break (first
incumbent in lexicographic slot order wins among objective ties), so both
return identical assignments on the same instance: permuting a class changes
no gamma and maps any assignment to a lexicographically smaller one, so the
winner is never skipped, and the bound cuts only leaves the tie-break would
reject.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from owcfog.channel import ReceiverSpec, fec_rate
from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError
from owcfog.signal_model import (
    ChannelTable,
    linearized_gammas,
    photocurrent_powers,
    preamp_noise,
)
from owcfog.topology import ONU_CAPACITY_MBPS

#: Assigned slots must reach at least this linear SINR (10^1.4, i.e. 14 dB).
DEFAULT_SINR_FLOOR = 10.0 ** 1.4

#: Per-AP backhaul capacity, bit/s: the line rate of the ONU feeding the AP.
DEFAULT_ONU_CAPACITY_BPS = ONU_CAPACITY_MBPS * 1e6

_TIE_REL = 1e-9


# =====================================================================
# Problem container
# =====================================================================

@dataclass
class AllocationProblem:
    """Dense instance data for the assignment problem.

    Attributes:
        users / ap_ids / wavelengths: axis labels.
        signal_a2: (U, A, W) electrical signal power of each candidate slot.
        shot_a2: (U, A, W) shot-noise power each AP contributes when its
            wavelength is left unmodulated.
        rate_bps: (U, A) channel-supported data rate of each user-AP pair.
        preamp_a2: receiver noise floor.
        sinr_floor: minimum linear SINR an assigned slot must reach.
        onu_capacity_bps: per-AP backhaul capacity.
    """

    users: List[int]
    ap_ids: List[int]
    wavelengths: List[str]
    signal_a2: np.ndarray
    shot_a2: np.ndarray
    rate_bps: np.ndarray
    preamp_a2: float
    sinr_floor: float = DEFAULT_SINR_FLOOR
    onu_capacity_bps: float = DEFAULT_ONU_CAPACITY_BPS

    def __post_init__(self):
        u, a, w = len(self.users), len(self.ap_ids), len(self.wavelengths)
        self.signal_a2 = np.asarray(self.signal_a2, dtype=float)
        self.shot_a2 = np.asarray(self.shot_a2, dtype=float)
        self.rate_bps = np.asarray(self.rate_bps, dtype=float)
        if self.signal_a2.shape != (u, a, w) or self.shot_a2.shape != (u, a, w):
            raise ConfigError("signal/shot arrays must have shape (U, A, W)")
        if self.rate_bps.shape != (u, a):
            raise ConfigError("rate array must have shape (U, A)")
        if self.preamp_a2 <= 0:
            raise ConfigError("preamp noise must be positive")
        if np.any(self.signal_a2 < 0) or np.any(self.shot_a2 < 0) \
                or np.any(self.rate_bps < 0):
            raise ConfigError("powers and rates must be non-negative")

    @classmethod
    def from_table(cls, table: ChannelTable, receiver: ReceiverSpec
                   ) -> "AllocationProblem":
        """Bake a channel table + the receiver's noise into instance arrays.

        Per-wavelength rates are collapsed to their minimum per (user, AP)
        pair, which is conservative for the backhaul constraint (they are
        identical whenever all wavelengths share a reflectivity map).
        """
        signal, shot = photocurrent_powers(table.rx_power_w, receiver)
        rate = table.rate_bps.min(axis=2)
        return cls(list(table.users), list(table.ap_ids),
                   list(table.wavelengths), signal, shot, rate,
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
    slots = [assignment[u] for u in range(len(problem.users))]
    gammas = linearized_gammas(problem.signal_a2, problem.shot_a2,
                               problem.preamp_a2, slots).tolist()
    named = {problem.users[u]: problem.slot_label(slot)
             for u, slot in enumerate(slots)}
    sinr_lin = {problem.users[u]: g for u, g in enumerate(gammas)}
    sinr_dbs = {u: 10.0 * math.log10(g) if g > 0 else -math.inf
                for u, g in sinr_lin.items()}
    rates = {problem.users[u]: fec_rate(float(problem.rate_bps[u, a]),
                                        sinr_dbs[problem.users[u]])
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


def _slot_bounds(signal: np.ndarray, preamp: float, contrib: np.ndarray,
                 total: np.ndarray) -> np.ndarray:
    """SINR ceiling of every slot when slot (b, w) charges contrib[u, b, w]
    to user u's denominator; ``total`` is contrib summed over b."""
    return signal / (preamp + (total[:, None, :] - contrib))


def _gamma_upper_bounds(problem: AllocationProblem) -> np.ndarray:
    """Admissible per-slot SINR bound, independent of everyone else's choice.

    Each foreign AP contributes at least min(interference, shot) to the
    denominator whichever way its wavelength ends up being used.
    """
    floor_contrib = np.minimum(problem.signal_a2, problem.shot_a2)
    return _slot_bounds(problem.signal_a2, problem.preamp_a2, floor_contrib,
                        floor_contrib.sum(axis=1))


def _tie_tolerance(problem: AllocationProblem) -> float:
    """Objective tolerance under which two assignments count as tied.

    Shared by both solvers so their tie handling is bit-identical.
    """
    ub = _gamma_upper_bounds(problem)
    if ub.size == 0:
        return _TIE_REL
    return _TIE_REL * max(1.0, float(ub.max(axis=(1, 2)).sum()))


def _better(obj, key, inc_obj, inc_key, tol):
    if inc_obj is None:
        return True
    if obj > inc_obj + tol:
        return True
    if obj >= inc_obj - tol and key < inc_key:
        return True
    return False


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


def solve_branch_and_bound(problem: AllocationProblem,
                           time_limit_s: Optional[float] = None
                           ) -> AllocationSolution:
    """Exact depth-first branch and bound over user assignments.

    Users are branched in index order; children enumerate free slots in
    (AP, wavelength) order. Each node charges every foreign slot (b, w) to
    the denominator of a user on wavelength w: its full signal once it is
    busy, min(signal, shot) while it is free, since it may still go either
    way. That gives every user an admissible SINR bound on the partial
    assignment. A node is cut when an assigned user's bound is below the
    floor, when an unassigned user has no free slot whose bound meets it,
    when the sum of those bounds cannot beat the incumbent, or when an AP's
    backhaul would be exceeded.

    Wavelengths whose signal and shot slices are bitwise equal form a
    symmetry class, and a class member may be opened only once every
    lower-indexed member is in use (Margot 2010). Permuting a class leaves
    every gamma bitwise unchanged and maps each assignment to a
    lexicographically smaller one, so the tie-break winner is never skipped;
    a bound cut drops only leaves scoring below incumbent - tol, which the
    tie-break would reject anyway. The result is the oracle's assignment.

    Raises:
        InfeasibleError: the full search proves no assignment satisfies the
            floor and backhaul constraints (the report names the binding one).
        ResourceLimitError: time limit expired before any feasible leaf.
    """
    t0 = time.monotonic()
    n_users = len(problem.users)
    n_aps = len(problem.ap_ids)
    n_wl = len(problem.wavelengths)
    slots = _slot_list(problem)
    if n_users == 0:
        return _solution_from_indices(problem, {}, {
            "method": "branch_and_bound", "nodes": 1, "leaves": 1,
            "gap": 0.0, "complete": True, "elapsed_s": 0.0})
    if n_users > len(slots):
        raise InfeasibleError(
            "more users than AP-wavelength slots",
            report={"constraint": "slot_once", "users": n_users,
                    "slots": len(slots)})

    floor = problem.sinr_floor * (1 - 1e-12)
    ub = _gamma_upper_bounds(problem)          # the root node's bound
    for u in range(n_users):
        if not (ub[u] >= floor).any():
            raise InfeasibleError(
                f"user {problem.users[u]} cannot reach the SINR floor on any "
                f"slot",
                report={"constraint": "sinr_floor",
                        "user": problem.users[u],
                        "floor": problem.sinr_floor,
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
    onu_cap = problem.onu_capacity_bps * (1 + 1e-12)
    # denominator charge of slot (b, w) to user u, and its sum over b
    contrib = np.minimum(signal, shot)
    total = contrib.sum(axis=1)                # (U, W)

    best: Dict[str, object] = {"obj": None, "key": None, "asg": None}
    counters = {"nodes": 0, "leaves": 0, "floor_rejects": 0,
                "onu_rejects": 0, "bound_prunes": 0}
    deadline = None if time_limit_s is None else t0 + time_limit_s
    timed_out = {"flag": False}

    assignment: Dict[int, Tuple[int, int]] = {}
    free = np.ones((n_aps, n_wl), dtype=bool)
    wl_busy = [0] * n_wl
    ap_load = [0.0] * n_aps

    def leaf():
        counters["leaves"] += 1
        key = tuple(assignment[u] for u in range(n_users))
        gammas = linearized_gammas(signal, shot, preamp, key).tolist()
        if min(gammas) < floor:
            counters["floor_rejects"] += 1
            return
        obj = _objective(gammas)
        if _better(obj, key, best["obj"], best["key"], tol):
            best["obj"] = obj
            best["key"] = key
            best["asg"] = dict(assignment)

    def descend(depth):
        counters["nodes"] += 1
        if deadline is not None and counters["nodes"] % 256 == 0 \
                and time.monotonic() > deadline:
            timed_out["flag"] = True
            return
        if depth == n_users:
            leaf()
            return
        bound = _slot_bounds(signal, preamp, contrib, total)
        assigned = [bound[u, a, w] for u, (a, w) in assignment.items()]
        if assigned and min(assigned) < floor:
            counters["floor_rejects"] += 1
            return
        rest = bound[depth:]
        best_free = np.where(free & (rest >= floor), rest, -1.0) \
            .reshape(n_users - depth, -1).max(axis=1)
        if best_free.min() < 0:
            counters["floor_rejects"] += 1
            return
        if best["obj"] is not None \
                and sum(assigned) + best_free.sum() < best["obj"] - tol:
            counters["bound_prunes"] += 1
            return
        u = depth
        open_slots = (free & (bound[u] >= floor)).ravel()
        for s in np.flatnonzero(open_slots).tolist():
            a, w = slots[s]
            # open a wavelength only after the lower members of its class;
            # members open in order, so the next-lower one stands for all
            if not wl_busy[w] and previous[w] >= 0 \
                    and not wl_busy[previous[w]]:
                continue
            load = ap_load[a]
            new_load = load + rate[u][a]
            if new_load > onu_cap:
                counters["onu_rejects"] += 1
                continue
            saved_contrib = contrib[:, a, w].copy()
            saved_total = total[:, w].copy()
            contrib[:, a, w] = signal[:, a, w]
            total[:, w] = contrib[:, :, w].sum(axis=1)
            assignment[u] = (a, w)
            free[a, w] = False
            wl_busy[w] += 1
            ap_load[a] = new_load
            descend(depth + 1)
            ap_load[a] = load
            wl_busy[w] -= 1
            free[a, w] = True
            del assignment[u]
            contrib[:, a, w] = saved_contrib
            total[:, w] = saved_total
            if timed_out["flag"]:
                break

    descend(0)
    elapsed = time.monotonic() - t0

    if best["asg"] is None:
        if timed_out["flag"]:
            raise ResourceLimitError(
                f"time limit {time_limit_s}s expired before any feasible "
                f"assignment was found")
        _raise_infeasible(problem, counters)
    if timed_out["flag"]:
        # conservative: measure the incumbent against the root relaxation
        gap = max(0.0, (root_bound - best["obj"]) / max(1.0, abs(best["obj"])))
    else:
        gap = 0.0
    stats = {
        "method": "branch_and_bound",
        "nodes": counters["nodes"],
        "leaves": counters["leaves"],
        "bound_prunes": counters["bound_prunes"],
        "floor_rejects": counters["floor_rejects"],
        "onu_rejects": counters["onu_rejects"],
        "symmetry_classes": [[problem.wavelengths[w] for w in members]
                             for members in classes],
        "gap": gap,
        "complete": not timed_out["flag"],
        "elapsed_s": elapsed,
    }
    return _solution_from_indices(problem, best["asg"], stats)


def _raise_infeasible(problem: AllocationProblem, counters: Dict[str, int]):
    binding = "sinr_floor" if counters["floor_rejects"] >= counters["onu_rejects"] \
        else "onu_capacity"
    ub = _gamma_upper_bounds(problem)
    per_user = {problem.users[u]: float(ub[u].max())
                for u in range(len(problem.users))}
    raise InfeasibleError(
        f"no feasible assignment: binding constraint {binding}",
        report={
            "constraint": binding,
            "floor": problem.sinr_floor,
            "floor_rejections": counters["floor_rejects"],
            "onu_rejections": counters["onu_rejects"],
            "best_possible_sinr_per_user": per_user,
        })

