"""WDMA access allocation: assign each user one (AP, wavelength) slot.

The objective is the sum of user SINRs under the linearized interference
accounting (see :mod:`owcfog.signal_model`). The optimization model is the
standard big-M linearization of the product gamma * S:

- binary S[u,a,w]: user u listens to AP a on wavelength w;
- each (a, w) slot serves at most one user; each user gets exactly one slot;
- continuous gamma[u,a,w] is pinned to the user's SINR by a balance equality,
  with products phi = gamma * S linearized through four big-M rows;
- every assigned slot must clear the SINR floor (conditional: gamma >=
  floor * S, so unassigned slots with gamma = 0 stay feasible);
- per-AP backhaul: the channel-supported rates of the users served by one AP
  cannot exceed the AP's backhaul (ONU) capacity.

Because gamma is fully determined once S is fixed, the search is combinatorial
over assignments. ``solve_branch_and_bound`` explores users in index order.
Its bound works on the partial assignment: a busy foreign slot charges its
full signal to a user's denominator and a free one min(signal, shot), since it
may still go either way, so every assigned user has an SINR ceiling that only
falls as the search deepens. Wavelengths whose signal and shot slices are
bitwise equal are interchangeable, and a member of such a class may be opened
only after every lower-indexed member is in use. ``solve_exhaustive`` is the
independent oracle. Both apply the same deterministic tie-break (first
incumbent in lexicographic slot order wins among objective ties), so they
return identical assignments on the same instance: permuting a class changes
no gamma and maps any assignment to a lexicographically smaller one, so the
winner is never skipped, and the bound cuts only leaves the tie-break would
reject.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from owcfog.channel import (
    FEC_FREE_SINR_DB,
    FEC_MIN_SINR_DB,
    FEC_RATE_FACTOR,
)
from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError
from owcfog.signal_model import (
    ChannelTable,
    NoiseParams,
    linearized_gammas,
    photocurrent_powers,
    preamp_noise,
)

#: Assigned slots must reach at least this linear SINR (10^1.4, i.e. 14 dB).
DEFAULT_SINR_FLOOR = 10.0 ** 1.4

#: Per-AP backhaul capacity, bit/s.
DEFAULT_ONU_CAPACITY_BPS = 10.0e9

#: Refuse exhaustive enumerations larger than this many assignments.
DEFAULT_ENUMERATION_CAP = 10 ** 8

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
    def from_table(cls, table: ChannelTable, noise: NoiseParams,
                   sinr_floor: float = DEFAULT_SINR_FLOOR,
                   onu_capacity_bps: float = DEFAULT_ONU_CAPACITY_BPS
                   ) -> "AllocationProblem":
        """Bake a channel table + noise model into instance arrays.

        Per-wavelength rates are collapsed to their minimum per (user, AP)
        pair, which is conservative for the backhaul constraint (they are
        identical whenever all wavelengths share a reflectivity map).
        """
        signal, shot = photocurrent_powers(table.rx_power_w, noise)
        rate = table.rate_bps.min(axis=2)
        return cls(list(table.users), list(table.ap_ids),
                   list(table.wavelengths), signal, shot, rate,
                   preamp_a2=preamp_noise(noise),
                   sinr_floor=sinr_floor, onu_capacity_bps=onu_capacity_bps)

    def slot_label(self, slot: Tuple[int, int]) -> Tuple[int, str]:
        a, w = slot
        return self.ap_ids[a], self.wavelengths[w]


def default_beta(problem: AllocationProblem) -> float:
    """Big-M for the phi linearization: 10x the best noise-only SINR.

    Any feasible gamma is at most max(P) / preamp floor, so this beta strictly
    dominates every gamma the model can produce.
    """
    top = float(problem.signal_a2.max()) / problem.preamp_a2
    if top <= 0:
        return 10.0
    return 10.0 * top


# =====================================================================
# Materialized MILP (for audits and property tests)
# =====================================================================

@dataclass
class ConstraintRow:
    """One linear row: sum(coef * var) sense rhs."""

    name: str
    family: str
    terms: List[Tuple[Tuple, float]]
    sense: str  # "<=", ">=", "=="
    rhs: float

    def evaluate(self, point: Dict[Tuple, float]) -> float:
        return sum(c * point.get(v, 0.0) for v, c in self.terms)

    def satisfied(self, point: Dict[Tuple, float], tol: float = 1e-6) -> bool:
        lhs = self.evaluate(point)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


class LinearizedModel:
    """Explicit variable/constraint form of the assignment MILP.

    Variable keys:
        ("S", u, a, w), ("gamma", u, a, w), and
        ("phi", m, w, u, a, b) for m != u, b != a (phi stands for the product
        gamma[u,a,w] * S[m,b,w]).

    The solvers do not consume this object; it exists so the algebra of the
    model can be audited row by row.
    """

    def __init__(self, problem: AllocationProblem, beta: Optional[float] = None):
        self.problem = problem
        self.beta = default_beta(problem) if beta is None else float(beta)
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        self.rows: List[ConstraintRow] = []
        self._build()

    # -- variables ----------------------------------------------------

    def variables(self) -> List[Tuple]:
        p = self.problem
        U, A, W = range(len(p.users)), range(len(p.ap_ids)), range(len(p.wavelengths))
        out: List[Tuple] = []
        out += [("S", u, a, w) for u in U for a in A for w in W]
        out += [("gamma", u, a, w) for u in U for a in A for w in W]
        out += [("phi", m, w, u, a, b)
                for u in U for m in U if m != u
                for a in A for b in A if b != a
                for w in W]
        return out

    # -- construction ---------------------------------------------------

    def _build(self):
        p = self.problem
        U = range(len(p.users))
        A = range(len(p.ap_ids))
        W = range(len(p.wavelengths))
        beta = self.beta

        for a in A:
            for w in W:
                self.rows.append(ConstraintRow(
                    f"slot_once[a{a},w{w}]", "eq8",
                    [(("S", u, a, w), 1.0) for u in U], "<=", 1.0))
        for u in U:
            self.rows.append(ConstraintRow(
                f"user_once[u{u}]", "eq9_10",
                [(("S", u, a, w), 1.0) for a in A for w in W], "==", 1.0))

        for u in U:
            for m in U:
                if m == u:
                    continue
                for a in A:
                    for b in A:
                        if b == a:
                            continue
                        for w in W:
                            phi = ("phi", m, w, u, a, b)
                            s_mbw = ("S", m, b, w)
                            gam = ("gamma", u, a, w)
                            tag = f"[m{m},w{w},u{u},a{a},b{b}]"
                            self.rows.append(ConstraintRow(
                                "phi_nonneg" + tag, "eq11",
                                [(phi, 1.0)], ">=", 0.0))
                            self.rows.append(ConstraintRow(
                                "phi_le_betaS" + tag, "eq12",
                                [(phi, 1.0), (s_mbw, -beta)], "<=", 0.0))
                            self.rows.append(ConstraintRow(
                                "phi_le_gamma" + tag, "eq13",
                                [(phi, 1.0), (gam, -1.0)], "<=", 0.0))
                            self.rows.append(ConstraintRow(
                                "phi_ge_link" + tag, "eq14",
                                [(phi, 1.0), (s_mbw, -beta), (gam, -1.0)],
                                ">=", -beta))

        for u in U:
            for a in A:
                for w in W:
                    terms: List[Tuple[Tuple, float]] = []
                    shot_sum = 0.0
                    for b in A:
                        if b == a:
                            continue
                        shot_sum += p.shot_a2[u, b, w]
                        for m in U:
                            if m == u:
                                continue
                            coef = p.signal_a2[u, b, w] - p.shot_a2[u, b, w]
                            terms.append((("phi", m, w, u, a, b), coef))
                    terms.append((("gamma", u, a, w), shot_sum + p.preamp_a2))
                    terms.append((("S", u, a, w), -p.signal_a2[u, a, w]))
                    self.rows.append(ConstraintRow(
                        f"sinr_balance[u{u},a{a},w{w}]", "eq15", terms,
                        "==", 0.0))
                    self.rows.append(ConstraintRow(
                        f"sinr_floor[u{u},a{a},w{w}]", "eq16",
                        [(("gamma", u, a, w), 1.0),
                         (("S", u, a, w), -p.sinr_floor)], ">=", 0.0))

        for a in A:
            self.rows.append(ConstraintRow(
                f"onu_cap[a{a}]", "eq17",
                [(("S", u, a, w), float(p.rate_bps[u, a]))
                 for u in U for w in W], "<=", float(p.onu_capacity_bps)))

    def rows_in_family(self, family: str) -> List[ConstraintRow]:
        return [r for r in self.rows if r.family == family]

    # -- integer points -------------------------------------------------

    def point_from_assignment(self, assignment: Dict[int, Tuple[int, int]]
                              ) -> Dict[Tuple, float]:
        """Full variable vector implied by an integer assignment.

        ``assignment`` maps user index -> (ap index, wavelength index).
        gamma follows from the SINR balance; phi is the literal product.
        """
        p = self.problem
        users = list(assignment)
        gammas = dict(zip(users, linearized_gammas(
            p.signal_a2[users], p.shot_a2[users], p.preamp_a2,
            list(assignment.values())).tolist()))
        point: Dict[Tuple, float] = {}
        for u in range(len(p.users)):
            for a in range(len(p.ap_ids)):
                for w in range(len(p.wavelengths)):
                    s = 1.0 if assignment.get(u) == (a, w) else 0.0
                    point[("S", u, a, w)] = s
                    point[("gamma", u, a, w)] = gammas[u] if s else 0.0
        for var in self.variables():
            if var[0] == "phi":
                _, m, w, u, a, b = var
                point[var] = point[("gamma", u, a, w)] * point[("S", m, b, w)]
        return point

    def phi_interval(self, point: Dict[Tuple, float],
                     m: int, w: int, u: int, a: int, b: int
                     ) -> Tuple[float, float]:
        """Feasible interval rows eq11-eq14 leave for one phi variable.

        S is binary, so the big-M algebra simplifies exactly: S = 1 pins phi
        to gamma, S = 0 pins it to zero (beta >= every feasible gamma).
        """
        s = point[("S", m, b, w)]
        gam = point[("gamma", u, a, w)]
        if s == 1.0:
            return (gam, min(self.beta, gam))
        return (max(0.0, gam - self.beta), 0.0)

    def check_point(self, point: Dict[Tuple, float], tol: float = 1e-6
                    ) -> List[str]:
        """Names of all constraint rows the point violates."""
        return [r.name for r in self.rows if not r.satisfied(point, tol)]


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
    rates = {}
    for u, (a, w) in enumerate(slots):
        base = float(problem.rate_bps[u, a])
        db = sinr_dbs[problem.users[u]]
        if FEC_MIN_SINR_DB <= db < FEC_FREE_SINR_DB:
            base *= FEC_RATE_FACTOR
        rates[problem.users[u]] = base
    return AllocationSolution(
        assignment=named, sinr=sinr_lin, sinr_db=sinr_dbs,
        rate_bps=rates, objective=_objective(gammas), stats=stats,
    )


# =====================================================================
# Feasibility audit
# =====================================================================

def check_feasibility(problem: AllocationProblem,
                      assignment: Dict[int, Tuple[int, int]]) -> Dict:
    """Audit an integer assignment against every model constraint family.

    Returns a machine-readable report:
        {"feasible": bool, "violations": [{"constraint": ..., ...}, ...]}
    """
    violations: List[Dict] = []
    slots = list(assignment.values())
    if len(set(slots)) != len(slots):
        dup = [s for s in set(slots) if slots.count(s) > 1]
        violations.append({"constraint": "slot_once",
                           "slots": [problem.slot_label(s) for s in dup]})
    missing = [problem.users[u] for u in range(len(problem.users))
               if u not in assignment]
    if missing:
        violations.append({"constraint": "user_once", "users": missing})
    extra = [u for u in assignment if not 0 <= u < len(problem.users)]
    if extra:
        violations.append({"constraint": "user_once", "unknown_users": extra})
    if not violations:
        slots = [assignment[u] for u in range(len(problem.users))]
        gammas = linearized_gammas(problem.signal_a2, problem.shot_a2,
                                   problem.preamp_a2, slots).tolist()
        for u, g in enumerate(gammas):
            if g < problem.sinr_floor * (1 - 1e-12):
                violations.append({
                    "constraint": "sinr_floor", "user": problem.users[u],
                    "sinr": g, "floor": problem.sinr_floor})
        for a in range(len(problem.ap_ids)):
            load = sum(float(problem.rate_bps[u, a])
                       for u, (ai, _) in assignment.items() if ai == a)
            if load > problem.onu_capacity_bps * (1 + 1e-12):
                violations.append({
                    "constraint": "onu_capacity", "ap_id": problem.ap_ids[a],
                    "rate_sum_bps": load,
                    "capacity_bps": problem.onu_capacity_bps})
    return {"feasible": not violations, "violations": violations}


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


def solve_exhaustive(problem: AllocationProblem,
                     enumeration_cap: int = DEFAULT_ENUMERATION_CAP
                     ) -> AllocationSolution:
    """Enumerate every complete assignment; the ground-truth oracle.

    The SINR at each leaf is recomputed with its own longhand accumulation,
    independent of :func:`owcfog.signal_model.linearized_gammas`.

    Raises:
        ResourceLimitError: when the enumeration would exceed the cap.
        InfeasibleError: when no assignment is feasible.
    """
    n_users = len(problem.users)
    slots = _slot_list(problem)
    size = 1
    for i in range(n_users):
        size *= max(len(slots) - i, 0)
    if size > enumeration_cap:
        raise ResourceLimitError(
            f"{size} assignments exceed enumeration cap {enumeration_cap}")
    if n_users > len(slots):
        raise InfeasibleError(
            "more users than AP-wavelength slots",
            report={"constraint": "slot_once", "users": n_users,
                    "slots": len(slots)})

    sig = problem.signal_a2
    shot = problem.shot_a2
    floor = problem.sinr_floor * (1 - 1e-12)
    onu = problem.onu_capacity_bps * (1 + 1e-12)
    n_aps = len(problem.ap_ids)

    best_obj = None
    best_key = None
    best_asg = None
    tol = _tie_tolerance(problem)
    counters = {"leaves": 0, "floor_rejects": 0, "onu_rejects": 0}

    for combo in itertools.permutations(range(len(slots)), n_users):
        counters["leaves"] += 1
        chosen = [slots[s] for s in combo]
        # backhaul audit
        load: Dict[int, float] = {}
        ok = True
        for u, (a, _) in enumerate(chosen):
            load[a] = load.get(a, 0.0) + float(problem.rate_bps[u, a])
            if load[a] > onu:
                ok = False
                break
        if not ok:
            counters["onu_rejects"] += 1
            continue
        active = {}
        for u, (a, w) in enumerate(chosen):
            active.setdefault(w, set()).add(a)
        obj = 0.0
        for u, (a, w) in enumerate(chosen):
            denom = problem.preamp_a2
            busy = active.get(w, set())
            for b in range(n_aps):
                if b == a:
                    continue
                denom += sig[u, b, w] if b in busy else shot[u, b, w]
            g = sig[u, a, w] / denom
            if g < floor:
                ok = False
                break
            obj += g
        if not ok:
            counters["floor_rejects"] += 1
            continue
        key = tuple(chosen)
        if _better(obj, key, best_obj, best_key, tol):
            best_obj, best_key = obj, key
            best_asg = {u: chosen[u] for u in range(n_users)}

    if best_asg is None:
        _raise_infeasible(problem, {"floor_rejects": counters["floor_rejects"],
                                    "onu_rejects": counters["onu_rejects"]})
    stats = {"method": "exhaustive", "nodes": counters["leaves"],
             "leaves": counters["leaves"], "gap": 0.0, "complete": True,
             "elapsed_s": None}
    return _solution_from_indices(problem, best_asg, stats)
