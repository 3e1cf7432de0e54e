"""Explicit MILP models, exhaustive oracles and reference SINR arithmetic.

The test-side oracles: the tests and acceptance checks import this module
to audit the solvers in :mod:`owcfog.allocator` and :mod:`owcfog.placement`
against independent arithmetic. It is not part of the installed package.

The WDMA allocation is the standard big-M linearization of the product
gamma * S (:class:`LinearizedModel`):

- binary S[u,a,w]: user u listens to AP a on wavelength w;
- each (a, w) slot serves at most one user; each user gets exactly one slot;
- continuous gamma[u,a,w] is pinned to the user's SINR by a balance equality,
  with products phi = gamma * S linearized through four big-M rows;
- every assigned slot must clear the SINR floor (conditional: gamma >=
  floor * S, so unassigned slots with gamma = 0 stay feasible);
- per-AP backhaul: the channel-supported rates of the users served by one AP
  cannot exceed the AP's backhaul (ONU) capacity.

The placement (:class:`PlacementModel`) links the binary choice delta[k,n]
to the placed workload X[k,n] through two big-M rows, gives each task one
node, caps node MIPS and every hop of each route, and carries each task's
flow from the OLT to its node by conservation rows.

The big-M constants are model parameters, not solver ones: ``beta`` must
dominate every feasible gamma and ``alpha`` every workload. Both models
share one row format (:class:`ConstraintRow`) and one audit interface.

:func:`solve_exhaustive` enumerates either problem with its own longhand
arithmetic. It borrows only each solver's tie tolerance and tie rule, and the
allocator's admission thresholds, so it returns the solver's assignment. The
allocation rule visits leaves in lexicographic slot order and keeps a leaf
only when it beats the incumbent by more than tol.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from owcfog.allocator import (
    DEFAULT_ONU_CAPACITY_BPS,
    DEFAULT_SINR_FLOOR,
    _FLOOR,
    _ONU_CAP,
    AllocationProblem,
    AllocationSolution,
    _raise_infeasible,
    _slot_list,
    _solution_from_indices,
)
from owcfog.allocator import _tie_tolerance as _allocation_tie_tolerance
from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError
from owcfog.placement import (
    PlacementProblem,
    PlacementSolution,
    TaskDemand,
    _finish,
    _prepare,
)
from owcfog.placement import _tie_tolerance as _placement_tie_tolerance
from owcfog.room import ReceiverSpec
from owcfog.signal_model import ELECTRON_CHARGE_C, linearized_gammas

#: Refuse exhaustive enumerations larger than this many assignments.
DEFAULT_ENUMERATION_CAP = 10 ** 8


# =====================================================================
# Row models
# =====================================================================

@dataclass
class ConstraintRow:
    """One linear row: sum(coef * var) sense rhs."""

    name: str
    family: str
    terms: List[Tuple[Tuple, float]]
    sense: str  # "<=", ">=", "=="
    rhs: float

    def evaluate(self, point: Mapping[Tuple, float]) -> float:
        return sum(c * point.get(v, 0.0) for v, c in self.terms)

    def satisfied(self, point: Mapping[Tuple, float], tol: float = 1e-6) -> bool:
        lhs = self.evaluate(point)
        if self.sense == "<=":
            return lhs <= self.rhs + tol
        if self.sense == ">=":
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


class _RowModel:
    """A list of constraint rows, audited by family or at one point."""

    rows: List[ConstraintRow]

    def rows_in_family(self, family: str) -> List[ConstraintRow]:
        return [r for r in self.rows if r.family == family]

    def variables(self) -> List[Tuple]:
        """Every variable key, in order of first appearance in the rows."""
        seen: Dict[Tuple, None] = {}
        for r in self.rows:
            for v, _ in r.terms:
                seen.setdefault(v)
        return list(seen)

    def check_point(self, point: Mapping[Tuple, float], tol: float = 1e-6
                    ) -> List[str]:
        """Names of all constraint rows the point violates."""
        return [r.name for r in self.rows if not r.satisfied(point, tol)]


class LinearizedModel(_RowModel):
    """Explicit variable/constraint form of the assignment MILP.

    Variable keys:
        ("S", u, a, w), ("gamma", u, a, w), and
        ("phi", m, w, u, a, b) for m != u, b != a (phi stands for the product
        gamma[u,a,w] * S[m,b,w]).

    ``beta`` is the big-M of the phi rows. It defaults to 10x the best
    noise-only SINR: any feasible gamma is at most max(P) / preamp floor, so
    the default strictly dominates every gamma the model can produce.
    """

    def __init__(self, problem: AllocationProblem, beta: Optional[float] = None):
        self.problem = problem
        if beta is None:
            top = float(problem.signal_a2.max()) / problem.preamp_a2
            beta = 10.0 * top if top > 0 else 10.0
        self.beta = float(beta)
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        self.rows: List[ConstraintRow] = []
        self._build()

    def _build(self):
        p = self.problem
        U = range(len(p.signal_a2))
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
                         (("S", u, a, w), -DEFAULT_SINR_FLOOR)], ">=", 0.0))

        for a in A:
            self.rows.append(ConstraintRow(
                f"onu_cap[a{a}]", "eq17",
                [(("S", u, a, w), float(p.rate_bps[u, a]))
                 for u in U for w in W], "<=", DEFAULT_ONU_CAPACITY_BPS))

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
        for u in range(len(p.signal_a2)):
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


class PlacementModel(_RowModel):
    """Explicit row/variable form of the placement MILP.

    Variable keys: ("delta", k, n), ("X", k, n), ("L", k, n) and
    ("lam", k, n, hop) where hop walks the route to n (the OLT first).
    ``alpha`` is the big-M linking delta to X; it defaults to 10x the
    largest workload and must exceed every workload.
    """

    def __init__(self, problem: PlacementProblem,
                 alpha: Optional[float] = None):
        max_w = max(t.workload_mips for t in problem.tasks)
        self.alpha = 10.0 * max_w if alpha is None else float(alpha)
        if not self.alpha > max_w:
            raise ConfigError(
                f"alpha {self.alpha} must exceed the largest workload "
                f"{max_w}")
        self.problem = problem
        self.topology = problem.topology
        self.node_ids = [n.node_id for n in self.topology.nodes]
        self.rows: List[ConstraintRow] = []
        self._hops: Dict[str, List[Tuple[str, str]]] = {}
        for node in self.topology.nodes:
            stations = ["olt", *node.route.devices, node.node_id]
            self._hops[node.node_id] = list(zip(stations[:-1], stations[1:]))
        self._build()

    def _build(self) -> None:
        p = self.problem
        alpha = self.alpha
        for t in p.tasks:
            k = t.task_id
            for n in self.node_ids:
                self.rows.append(ConstraintRow(
                    f"link_lo[k{k},{n}]", "eq21",
                    [(("X", k, n), alpha), (("delta", k, n), -1.0)],
                    ">=", 0.0))
                self.rows.append(ConstraintRow(
                    f"link_hi[k{k},{n}]", "eq22",
                    [(("X", k, n), 1.0), (("delta", k, n), -alpha)],
                    "<=", 0.0))
            self.rows.append(ConstraintRow(
                f"one_node[k{k}]", "eq23",
                [(("delta", k, n), 1.0) for n in self.node_ids], "==", 1.0))
        for node in self.topology.nodes:
            n = node.node_id
            self.rows.append(ConstraintRow(
                f"node_cap[{n}]", "eq24",
                [(("X", t.task_id, n), 1.0) for t in p.tasks], "<=",
                node.capacity_mips))
            link = node.route.capacity_mbps
            for h, hop in enumerate(self._hops[n]):
                self.rows.append(ConstraintRow(
                    f"link_cap[{n},{hop[0]}->{hop[1]}]", "eq25",
                    [(("lam", t.task_id, n, h), 1.0) for t in p.tasks],
                    "<=", link))
        for t in p.tasks:
            k = t.task_id
            for n in self.node_ids:
                hops = self._hops[n]
                # conservation at the OLT, each intermediate, and the node
                self.rows.append(ConstraintRow(
                    f"flow_src[k{k},{n}]", "eq26",
                    [(("lam", k, n, 0), 1.0), (("L", k, n), -1.0)],
                    "==", 0.0))
                for h in range(1, len(hops)):
                    self.rows.append(ConstraintRow(
                        f"flow_mid[k{k},{n},{h}]", "eq26",
                        [(("lam", k, n, h - 1), 1.0),
                         (("lam", k, n, h), -1.0)], "==", 0.0))
                self.rows.append(ConstraintRow(
                    f"flow_dst[k{k},{n}]", "eq26",
                    [(("lam", k, n, len(hops) - 1), 1.0),
                     (("L", k, n), -1.0)], "==", 0.0))
                self.rows.append(ConstraintRow(
                    f"flow_demand[k{k},{n}]", "eq27",
                    [(("L", k, n), 1.0),
                     (("delta", k, n), -t.flow_mbps)], "==", 0.0))
            self.rows.append(ConstraintRow(
                f"no_self[k{k}]", "no_self",
                [(("delta", k, t.source), 1.0)], "==", 0.0))

    def point_from_assignment(self, assignment: Mapping[int, str],
                              ) -> Dict[Tuple, float]:
        point: Dict[Tuple, float] = {}
        for t in self.problem.tasks:
            k = t.task_id
            chosen = assignment[k]
            for n in self.node_ids:
                on = 1.0 if n == chosen else 0.0
                point[("delta", k, n)] = on
                point[("X", k, n)] = t.workload_mips * on
                point[("L", k, n)] = t.flow_mbps * on
                for h in range(len(self._hops[n])):
                    point[("lam", k, n, h)] = t.flow_mbps * on
        return point

    def objective(self, point: Mapping[Tuple, float]) -> float:
        total = 0.0
        for t in self.problem.tasks:
            for node in self.topology.nodes:
                n = node.node_id
                total += (point.get(("X", t.task_id, n), 0.0)
                          * node.efficiency_w_per_mips)
                total += (point.get(("delta", t.task_id, n), 0.0)
                          * t.flow_mbps * node.route.efficiency_w_per_mbps)
        return total


# =====================================================================
# Allocation feasibility audit
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
    n_users = len(problem.signal_a2)
    missing = [u for u in range(n_users) if u not in assignment]
    if missing:
        violations.append({"constraint": "user_once", "users": missing})
    extra = [u for u in assignment if not 0 <= u < n_users]
    if extra:
        violations.append({"constraint": "user_once", "unknown_users": extra})
    if not violations:
        slots = [assignment[u] for u in range(n_users)]
        gammas = linearized_gammas(problem.signal_a2, problem.shot_a2,
                                   problem.preamp_a2, slots).tolist()
        for u, g in enumerate(gammas):
            if g < _FLOOR:
                violations.append({
                    "constraint": "sinr_floor", "user": u,
                    "sinr": g, "floor": DEFAULT_SINR_FLOOR})
        for a in range(len(problem.ap_ids)):
            load = sum(float(problem.rate_bps[u, a])
                       for u, (ai, _) in assignment.items() if ai == a)
            if load > _ONU_CAP:
                violations.append({
                    "constraint": "onu_capacity", "ap_id": problem.ap_ids[a],
                    "rate_sum_bps": load,
                    "capacity_bps": DEFAULT_ONU_CAPACITY_BPS})
    return {"feasible": not violations, "violations": violations}


# =====================================================================
# Exhaustive oracles
# =====================================================================

@functools.singledispatch
def solve_exhaustive(problem, enumeration_cap: int = DEFAULT_ENUMERATION_CAP):
    """Enumerate every solution of an allocation or placement problem.

    The ground-truth oracle for both branch-and-bound solvers; it shares
    only their tie tolerance and tie rule (and the allocator's admission
    thresholds), so it returns their assignment.

    Raises:
        ResourceLimitError: when the enumeration would exceed the cap.
        InfeasibleError: when no solution is feasible.
    """
    raise TypeError(f"no exhaustive oracle for {type(problem).__name__}")


@solve_exhaustive.register(AllocationProblem)
def _enumerate_allocations(problem: AllocationProblem,
                           enumeration_cap: int = DEFAULT_ENUMERATION_CAP
                           ) -> AllocationSolution:
    """Every complete assignment, each leaf's SINR accumulated longhand,
    independent of :func:`owcfog.signal_model.linearized_gammas`."""
    n_users = len(problem.signal_a2)
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
    n_aps = len(problem.ap_ids)

    best_obj = None
    best_asg = None
    tol = _allocation_tie_tolerance(problem)
    counters = {"leaves": 0, "floor_rejects": 0, "onu_rejects": 0}

    for combo in itertools.permutations(range(len(slots)), n_users):
        counters["leaves"] += 1
        chosen = [slots[s] for s in combo]
        # backhaul audit
        load: Dict[int, float] = {}
        ok = True
        for u, (a, _) in enumerate(chosen):
            load[a] = load.get(a, 0.0) + float(problem.rate_bps[u, a])
            if load[a] > _ONU_CAP:
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
            if g < _FLOOR:
                ok = False
                break
            obj += g
        if not ok:
            counters["floor_rejects"] += 1
            continue
        if best_obj is None or obj > best_obj + tol:
            best_obj = obj
            best_asg = {u: chosen[u] for u in range(n_users)}

    if best_asg is None:
        _raise_infeasible(problem, counters["floor_rejects"],
                          counters["onu_rejects"])
    stats = {"method": "exhaustive", "nodes": counters["leaves"],
             "leaves": counters["leaves"], "gap": 0.0, "complete": True,
             "elapsed_s": None}
    return _solution_from_indices(problem, best_asg, stats)


@solve_exhaustive.register(PlacementProblem)
def _enumerate_placements(problem: PlacementProblem,
                          enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
                          ) -> PlacementSolution:
    """Every placement, each leaf's cost accounted longhand.

    When no capacity can possibly bind (total workload below every node
    capacity and total flow below every route), tasks decompose and the
    per-task minimum is exact without enumeration.
    """
    t0 = time.monotonic()
    prep = _prepare(problem)
    topo = problem.topology
    n = len(problem.tasks)
    tol = _placement_tie_tolerance(prep)
    tasks = list(problem.tasks)

    # longhand per-(task, node) cost straight from the topology tables
    def longhand(task: TaskDemand, node_id: str) -> float:
        node = topo.node(node_id)
        return (task.workload_mips * node.efficiency_w_per_mips
                + task.flow_mbps * node.route.efficiency_w_per_mbps)

    options: List[List[int]] = []
    for i, t in enumerate(tasks):
        opts = []
        for j, n_id in enumerate(prep.node_ids):
            node = topo.node(n_id)
            if t.workload_mips > node.capacity_mips:
                continue
            if t.flow_mbps > node.route.capacity_mbps:
                continue
            if n_id == t.source:
                continue
            opts.append(j)
        options.append(opts)

    total_w = sum(t.workload_mips for t in tasks)
    total_f = sum(t.flow_mbps for t in tasks)
    decomposes = all(total_w <= c for c in prep.node_cap_mips) \
        and all(total_f <= c for c in prep.route_cap_mbps)

    best_obj: Optional[float] = None
    best_asg: Optional[List[int]] = None
    leaves = 0

    if decomposes:
        # tasks are independent; first option within tol of the per-task
        # minimum wins (options are in preference order)
        best_asg = []
        best_obj = 0.0
        for i, t in enumerate(tasks):
            costs = [(longhand(t, prep.node_ids[j]), j) for j in options[i]]
            floor_c = min(cc for cc, _ in costs)
            for cc, jj in costs:
                if cc <= floor_c + tol:
                    best_asg.append(jj)
                    best_obj += cc
                    break
            leaves += len(costs)
    else:
        size = 1
        for opts in options:
            size *= len(opts)
            if size > enumeration_cap:
                raise ResourceLimitError(
                    f"exhaustive placement would enumerate > "
                    f"{enumeration_cap} assignments")
        for combo in itertools.product(*options):
            leaves += 1
            used_m = [0.0] * len(prep.node_ids)
            used_f = [0.0] * len(prep.node_ids)
            obj = 0.0
            ok = True
            for i, j in enumerate(combo):
                used_m[j] += tasks[i].workload_mips
                used_f[j] += tasks[i].flow_mbps
                if used_m[j] > prep.node_cap_mips[j] + 1e-9 \
                        or used_f[j] > prep.route_cap_mbps[j] + 1e-9:
                    ok = False
                    break
                obj += longhand(tasks[i], prep.node_ids[j])
            if not ok:
                continue
            if best_obj is None or obj < best_obj - tol:
                best_obj = obj
                best_asg = list(combo)

    if best_asg is None:
        raise InfeasibleError(
            "no placement satisfies the node and route capacities together",
            report={"constraint": "capacity_packing", "tasks": n,
                    "nodes": len(prep.node_ids)})
    stats = {
        "method": "exhaustive",
        "leaves": leaves,
        "decomposed": decomposes,
        "elapsed_s": time.monotonic() - t0,
    }
    return _finish(problem, prep, best_asg, stats)


# =====================================================================
# Reference SINR arithmetic
# =====================================================================

def electrical_signal_power(rx_power_w: float, responsivity_a_per_w: float) -> float:
    """Signal power (R * P_rx)^2 in A^2 for a received optical power."""
    if rx_power_w < 0:
        raise ConfigError("received power must be non-negative")
    i = responsivity_a_per_w * rx_power_w
    return i * i


def shot_noise(rx_power_w: float, receiver: ReceiverSpec) -> float:
    """Shot noise 2 e (R * P_rx) B contributed by one optical source, A^2."""
    if rx_power_w < 0:
        raise ConfigError("received power must be non-negative")
    return 2.0 * ELECTRON_CHARGE_C * receiver.responsivity_a_per_w \
        * rx_power_w * receiver.bandwidth_hz


def sinr_db(sinr_linear: float) -> float:
    """10 log10 of a linear SINR; -inf for zero."""
    if sinr_linear < 0:
        raise ConfigError("SINR cannot be negative")
    if sinr_linear == 0.0:
        return -math.inf
    return 10.0 * math.log10(sinr_linear)


_MODES = ("linearized", "exact")

Assignment = Mapping[int, Tuple[int, str]]
"""user -> (ap_id, wavelength)."""


def _validate_assignment(assignment: Assignment, problem: AllocationProblem):
    for u, (a, w) in assignment.items():
        if u not in range(len(problem.signal_a2)):
            raise ConfigError(f"assignment names unknown user {u}")
        if a not in problem.ap_ids:
            raise ConfigError(f"assignment names unknown AP {a}")
        if w not in problem.wavelengths:
            raise ConfigError(f"assignment names unknown wavelength {w!r}")


@dataclass
class SINRBreakdown:
    """Per-user SINR decomposition, all powers in A^2."""

    signal_a2: float
    interference_a2: float
    shot_a2: float
    preamp_a2: float
    sinr: float
    sinr_db: float


def sinr(assignment: Assignment, problem: AllocationProblem,
         mode: str = "linearized") -> Dict[int, SINRBreakdown]:
    """SINR of every assigned user under a WDMA assignment.

    The two interference accounting modes must never be merged: the
    linearized one is what the allocator optimizes, the exact one is the
    physics it approximates, and it never reports a higher SINR.

    Args:
        assignment: user row -> (ap_id, wavelength), for any subset of the
            problem's users; at most one user per slot.
        problem: the instance whose signal, shot and preamplifier noise
            apply (assigned-but-out-of-FOV links simply carry zero signal
            and contribute nothing).
        mode: "linearized" (sum of squared interferer currents) or "exact"
            (square of summed currents).

    Returns:
        dict user -> SINRBreakdown.

    Raises:
        ConfigError: an unknown user, AP, wavelength or mode, or two users
            on one slot.
    """
    if mode not in _MODES:
        raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
    _validate_assignment(assignment, problem)
    rows = list(assignment)
    slots = [(problem.ap_ids.index(a), problem.wavelengths.index(w))
             for a, w in assignment.values()]
    signal, shot = problem.signal_a2[rows], problem.shot_a2[rows]
    preamp = problem.preamp_a2
    if len(set(slots)) != len(slots):
        raise ConfigError("a slot is assigned to more than one user")
    active: Dict[int, set] = {}
    for a, w in slots:
        active.setdefault(w, set()).add(a)
    n_aps = len(problem.ap_ids)
    busy = np.array([[b != a and b in active[w] for b in range(n_aps)]
                     for a, w in slots], dtype=bool).reshape(len(rows), n_aps)
    aps, wls = np.array(slots, dtype=np.intp).reshape(len(rows), 2).T
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
