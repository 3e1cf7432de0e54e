"""Power-minimizing task placement over the cloud/fog hierarchy.

Every task is pinned to exactly one processing node; its data travels the
single route from the OLT to that node.  The placement cost of a task is
therefore separable:

    cost(task, node) = workload * E_node  +  flow * Psi_route(node)

(W/MIPS processing term plus W/Mbps networking term), and the problem is a
generalized assignment: node MIPS capacities and route Mbps capacities are
the only coupling between tasks.  A task's own mobile unit is never its
destination: the mobile fog serves other users' offloaded work.

``solve_branch_and_bound`` solves it exactly.  The exhaustive oracle and the
big-M row form live in ``tests/oracles.py``; the oracle breaks objective ties
identically (first leaf in preference-ordered enumeration), so both return
the same assignment on the same instance.

The solver's cost and eligibility tables are built once per demand class,
not once per task: a sweep cell's 50 identical tasks share one cost row and
one eligibility row per source.  Each entry is ``PlacementProblem.cost``'s
expression, and the sums over tasks still add one term per task in task
order, so costs, bounds, tie tolerances and the oracle's comparisons are
bitwise those of a per-task build, and the chosen assignment with them.

The module returns solutions only: ``sweep`` gives each cell's
``PlacementSolution`` or ``InfeasibleError``, and ``owcfog.scenarios``
builds the placement and utilization tables from them.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import ConfigError, InfeasibleError, ResourceLimitError
from .topology import (
    MOBILE_KIND,
    ProcessingNode,
    TopologyConfig,
    build_reference_topology,
)

_TIE_REL = 1e-9

# DFS preference when costs tie: room server, then mobiles (best route
# first), then outward through the hierarchy.
_KIND_PREFERENCE = {"RoomFog": 0, MOBILE_KIND: 1, "BuildFog": 2,
                    "CampFog": 3, "MetroFog": 4, "CCloud": 5}


# =====================================================================
# demands
# =====================================================================

@dataclass(frozen=True)
class TaskDemand:
    """One offloaded task: a workload and the flow that must carry it."""

    task_id: int
    source: str
    workload_mips: float
    flow_mbps: float

    def __post_init__(self) -> None:
        if not 0 < self.workload_mips < math.inf:
            raise ConfigError(
                f"task {self.task_id}: workload must be finite and > 0")
        if not 0 <= self.flow_mbps < math.inf:
            raise ConfigError(
                f"task {self.task_id}: flow must be finite and >= 0")


def check_task_count(count: int) -> None:
    """Refuse a task count that is not a positive ``int``: a float would
    fail in ``range``, and ``True`` would count as one task."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError(
            f"sweep.tasks must be a positive integer, got {count!r}")


def demands_from_drr(workload_mips: float, drr: float, count: int,
                     sources: Optional[Sequence[str]] = None,
                     ) -> List[TaskDemand]:
    """``count`` identical tasks with flow = drr * workload, drr in (0, 1).

    Sources are assigned round-robin (defaults to the eight reference
    mobiles).  The flow unit is Mbit/s: a 400 MIPS task at ratio 0.6 carries
    240 Mbit/s.  The paper studies workloads of 100 to 1500 MIPS; any
    finite positive workload is accepted, and one no node can hold ends in
    an infeasibility report.
    """
    if sources is None:
        sources = [f"mobile_{i}" for i in range(8)]
    if not sources:
        raise ConfigError("no mobile unit to source the tasks")
    check_task_count(count)
    if not 0 < drr < 1:
        raise ConfigError(f"sweep.drr entries must be in (0, 1), positive "
                          f"and below 1.0, got {drr!r}")
    flow = drr * workload_mips
    return [TaskDemand(k, sources[k % len(sources)], workload_mips, flow)
            for k in range(count)]


# =====================================================================
# problem
# =====================================================================

@dataclass
class PlacementProblem:
    """Topology + the demands to place on it."""

    topology: TopologyConfig
    tasks: Sequence[TaskDemand]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigError("no tasks to place")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate task ids")
        checked = set()
        for t in self.tasks:
            if t.source in checked:
                continue
            checked.add(t.source)
            src = self.topology.node(t.source)  # raises if unknown
            if not src.is_mobile:
                raise ConfigError(
                    f"task {t.task_id}: source {t.source} is not a mobile "
                    f"unit")

    def cost(self, task: TaskDemand, node_id: str) -> float:
        node = self.topology.node(node_id)
        return (task.workload_mips * node.efficiency_w_per_mips
                + task.flow_mbps * node.route.efficiency_w_per_mbps)


def _preference_order(topology: TopologyConfig) -> List[ProcessingNode]:
    def key(n: ProcessingNode):
        return (_KIND_PREFERENCE[n.kind], n.route.efficiency_w_per_mbps,
                n.node_id)
    return sorted(topology.nodes, key=key)


@dataclass
class _Prepared:
    """Solver-facing view: preference-ordered nodes, costs, eligibility.

    Rows are per demand class, not per task.  Tasks with one (workload,
    flow) share one cost row, and tasks that also share a source share one
    eligibility row with its cheapest and dearest eligible cost; each
    task's entry points at its class's row, a read-only tuple.  Sums over
    tasks (``worst_w``, the cheapest suffix) still add one term per task in
    task order: the tie tolerance and rounding slack scale with ``worst_w``
    and the cutoff probe compares against bound sums to the ulp, so a
    regrouped sum could change which near-tie leaf is kept.
    """

    nodes: List[ProcessingNode]
    node_ids: List[str]
    node_cap_mips: List[float]
    route_cap_mbps: List[float]
    cost: List[Tuple[float, ...]]      # [task] -> its class's [node] row
    eligible: List[Tuple[bool, ...]]   # [task] -> its class's [node] row
    cheapest: List[float]              # [task] cheapest eligible cost
    group_prev: List[Optional[int]]  # index of previous identical task
    task_w: List[float]
    task_f: List[float]
    # M: every task on its dearest eligible node, and at least 1 W; no
    # placement costs more, so M scales the tie tolerance and rounding slack
    worst_w: float


def _prepare(problem: PlacementProblem) -> _Prepared:
    nodes = _preference_order(problem.topology)
    node_ids = [node.node_id for node in nodes]
    caps = [node.capacity_mips for node in nodes]
    links = [node.route.capacity_mbps for node in nodes]
    effs = [node.efficiency_w_per_mips for node in nodes]
    psis = [node.route.efficiency_w_per_mbps for node in nodes]
    tasks = list(problem.tasks)
    cost_rows: Dict[Tuple[float, float], Tuple[float, ...]] = {}
    # identical tasks (same workload, flow and source) are interchangeable:
    # they share an eligibility row with its cheapest and dearest eligible
    # cost, and each remembers its predecessor for symmetry breaking
    fit_rows: Dict[Tuple[float, float, str],
                   Tuple[Tuple[bool, ...], float, float]] = {}
    last_of_group: Dict[Tuple[float, float, str], int] = {}
    cost: List[Tuple[float, ...]] = []
    eligible: List[Tuple[bool, ...]] = []
    cheapest: List[float] = []
    dearest: List[float] = []
    group_prev: List[Optional[int]] = []
    for i, t in enumerate(tasks):
        w, f = t.workload_mips, t.flow_mbps
        row = cost_rows.get((w, f))
        if row is None:
            # the expression of PlacementProblem.cost: bitwise equal entries
            row = cost_rows[w, f] = tuple(
                w * e + f * psi for e, psi in zip(effs, psis))
        sig = (w, f, t.source)
        fit_row = fit_rows.get(sig)
        if fit_row is None:
            ok = tuple(w <= caps[j] and f <= links[j] and n != t.source
                       for j, n in enumerate(node_ids))
            if not any(ok):
                raise InfeasibleError(
                    f"task {t.task_id} fits no processing node "
                    f"(workload {w} MIPS, flow {f} Mbit/s)",
                    report={"constraint": "per_task_fit",
                            "task_id": t.task_id,
                            "workload_mips": w,
                            "flow_mbps": f})
            fits = [c for c, fit in zip(row, ok) if fit]
            fit_row = fit_rows[sig] = (ok, min(fits), max(fits))
        cost.append(row)
        eligible.append(fit_row[0])
        cheapest.append(fit_row[1])
        dearest.append(fit_row[2])
        group_prev.append(last_of_group.get(sig))
        last_of_group[sig] = i
    total_w = sum(t.workload_mips for t in tasks)
    if total_w > sum(caps) + 1e-9:
        raise InfeasibleError(
            f"total workload {total_w} MIPS exceeds total capacity "
            f"{sum(caps)} MIPS",
            report={"constraint": "total_capacity",
                    "total_workload_mips": total_w,
                    "total_capacity_mips": sum(caps)})
    worst = sum(dearest)
    return _Prepared(nodes, node_ids, caps, links, cost, eligible, cheapest,
                     group_prev, [t.workload_mips for t in tasks],
                     [t.flow_mbps for t in tasks], max(1.0, worst))


def _tie_tolerance(prep: _Prepared) -> float:
    return _TIE_REL * prep.worst_w


def _rounding_slack(prep: _Prepared) -> float:
    """s: the most a computed fill bound may exceed a computed leaf below it.

    Costs are >= 0, so a float sum of k of them is within gamma(k - 1) of
    its exact value, gamma(k) = k*u / (1 - k*u) with u the unit roundoff
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 4.2).
    A leaf sums n costs; a bound ``cost_so_far + tail`` gives each of its
    terms at most n roundings (a fill term is also rounded as ``take * c``).
    The exact bound is at most the exact leaf, and both are at most the
    exact worst placement cost, itself at most M * (1 + gamma(n)) for its
    rounded sum M = ``worst_w``.  So

        bound - leaf <= (gamma(n) + gamma(n - 1)) * M * (1 + gamma(n))
                     <= 2 * gamma(2n) * M.

    ``s = 2 * gamma(2n + 2) * M`` adds at least 4u * M on top: room for the
    three roundings of threshold sums (each under 1.01u * M) that the
    cutoff argument in ``solve_branch_and_bound`` also needs.
    """
    k = (2 * len(prep.cost) + 2) * (sys.float_info.epsilon / 2)
    return 2 * k / (1 - k) * prep.worst_w


# =====================================================================
# solution
# =====================================================================

@dataclass
class PlacementSolution:
    """A feasible placement with its power accounting."""

    problem: PlacementProblem
    assignment: Dict[int, str]            # task_id -> node_id
    objective_w: float
    processing_power_w: Dict[str, float]  # per node
    networking_power_w: Dict[str, float]  # per node
    workload_mips: Dict[str, float]       # per node
    stats: Dict[str, object]

    @property
    def total_processing_w(self) -> float:
        return sum(self.processing_power_w.values())

    @property
    def total_networking_w(self) -> float:
        return sum(self.networking_power_w.values())


def _finish(problem: PlacementProblem, prep: _Prepared,
            assignment_idx: Sequence[int], stats: Dict[str, object],
            ) -> PlacementSolution:
    topo = problem.topology
    proc = {n.node_id: 0.0 for n in topo.nodes}
    net = {n.node_id: 0.0 for n in topo.nodes}
    mips = {n.node_id: 0.0 for n in topo.nodes}
    named: Dict[int, str] = {}
    total = 0.0
    for i, t in enumerate(problem.tasks):
        node = prep.nodes[assignment_idx[i]]
        n_id = node.node_id
        named[t.task_id] = n_id
        proc[n_id] += t.workload_mips * node.efficiency_w_per_mips
        net[n_id] += t.flow_mbps * node.route.efficiency_w_per_mbps
        mips[n_id] += t.workload_mips
        total += prep.cost[i][assignment_idx[i]]
    return PlacementSolution(problem, named, total, proc, net, mips, stats)


# =====================================================================
# bounds
# =====================================================================

def _fill_order(prep: _Prepared, first: int) -> List[Tuple[float, int]]:
    """(cost, node) pairs the fill bound visits for tasks first..end.

    Only called at the first depth of the uniform suffix: every task from
    there on has the same (workload, flow), hence the same cost row and the
    same capacity filter, so one order serves the whole solve.
    """
    w, f = prep.task_w[first], prep.task_f[first]
    return sorted((prep.cost[first][j], j)
                  for j in range(len(prep.node_ids))
                  if w <= prep.node_cap_mips[j]
                  and f <= prep.route_cap_mbps[j])


def _cheapest_suffix(prep: _Prepared) -> List[float]:
    """cheapest_suffix[d] = capacity-ignoring bound for tasks d..end."""
    n = len(prep.cheapest)
    out = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        out[i] = out[i + 1] + prep.cheapest[i]
    return out


def _uniform_suffix(prep: _Prepared) -> List[bool]:
    """uniform[d]: do tasks d..end all share one (workload, flow)?"""
    n = len(prep.task_w)
    out = [True] * (n + 1)
    for i in range(n - 2, -1, -1):
        out[i] = out[i + 1] and prep.task_w[i] == prep.task_w[i + 1] \
            and prep.task_f[i] == prep.task_f[i + 1]
    return out


# =====================================================================
# branch and bound
# =====================================================================

def solve_branch_and_bound(problem: PlacementProblem,
                           time_limit_s: Optional[float] = None,
                           ) -> PlacementSolution:
    """Exact search over placements, preference-ordered and deterministic.

    Tasks are placed in id order; at each step candidate nodes are tried in
    preference order, so the first optimal leaf found is the canonical one
    (ties broken toward the room server, then mobiles).  Identical tasks
    from the same source are forced into non-decreasing preference order,
    which removes their permutations from the tree without losing the
    canonical optimum.  A leaf replaces the incumbent only when it is
    cheaper by more than ``tol`` (``_tie_tolerance``), and a node is pruned
    when its bound reaches the incumbent less ``tol``.

    A node's bound is the cheapest-node suffix sum, raised to a greedy fill
    bound once the remaining tasks share one (workload, flow): it drops the
    self-exclusion and fills nodes cheapest first, so it never exceeds the
    true completion cost, and a fill that cannot host every task is a dead
    end.  The fill order is sorted once per solve.  The root's bound LB is
    reported as ``stats["root_bound"]``; a dead end there means no
    placement exists.

    **Cutoff probe.**  The search first runs as a probe: at the root it
    takes a virtual incumbent ``LB + 3 tol`` with no assignment, so the
    same prune and accept rules cut every node whose bound reaches
    ``LB + 2 tol`` and accept the first leaf X below it, where the probe
    stops.  X is the answer when ``X < LB + tol - 2s``, with ``s`` from
    ``_rounding_slack``; otherwise (no leaf, or X in the band
    ``[LB + tol - 2s, LB + 2 tol)``) the search runs again from the root
    with no incumbent.  Both passes share the DFS order, the symmetry rule,
    the capacity checks and the dead-end cuts, so they walk the same tree.

    Why X is the leaf the incumbent chain alone ends on, ties included.
    ``B`` is a node's computed bound, ``v(L)`` a leaf's computed value, and
    ``e <= u (LB + 3 tol) < 1.01u M`` the rounding of one threshold sum.
    The premise (the tests check it, up to s, at random partial states) is
    ``B <= v(L) + G`` for every leaf L below the node, with
    ``G <= 2 gamma(2n) M`` and so ``s - G >= 4u M >= 3e``.

    1. The probe compares against ``T = (LB + 3 tol) - tol``, so
       ``T >= LB + 2 tol - 2e``.  A leaf L before X in DFS order was either
       rejected (``v(L) >= T``) or lies below a node pruned with
       ``B >= T``; either way ``v(L) >= T - G``.
    2. Without the probe, the incumbent I held when the search reaches X's
       ancestors is such a leaf (or none), so its threshold is
       ``v(I) - tol >= LB + tol - G - 3e``.
    3. The settle line ``(LB + tol) - 2s`` rounds twice, so an ancestor of
       X has ``B <= v(X) + G < LB + tol - 2s + 2e + G``, which is below
       that threshold since ``2s >= 2G + 5e``: no ancestor is pruned, and
       ``v(X)`` itself is below it, so X is accepted.
    4. A later leaf Y replaces X only if ``v(Y) < (v(X) - tol) + e <
       LB - 2s + 3e <= LB - G``, but every leaf has ``v(Y) >= LB - G`` by
       the premise at the root.  So X is the last incumbent.

    The probe thus returns the incumbent chain's answer.  With a cutoff at
    ``LB + tol`` step 2 fails, with a settle line at ``LB + 2 tol`` step 4
    fails, and without s steps 3 and 4 leave no room for rounding.

    ``nodes``, ``leaves``, ``bound_prunes`` and ``relax_dead_ends`` count
    both passes; ``cutoff_nodes`` is the probe's share and
    ``cutoff_settled`` says whether it settled the solve.  A node that
    finds the time limit expired closes at once and its parent stops
    branching, so ``nodes`` counts only the nodes searched.  On a timeout
    the incumbent is the cheaper of the probe's band leaf and the second
    pass's incumbent, and ``gap`` is measured against ``LB - s``, which is
    at most the optimum.

    **Explicit stack.**  Each pass is one loop over a stack with a frame
    per open depth: the iterator over the node indices left to try there
    and the cost of the tasks placed above it.  A node that is a leaf, a
    dead end or pruned opens no frame; the loop then steps to the next
    child of the deepest frame, first giving back the capacity its last
    child took, and pops a frame whose children are spent.  So the number
    of tasks meets no recursion limit.  After ``stop`` or a timeout the
    loop pops every open frame the same way, each giving its capacity
    back, so the second pass starts with every capacity returned (to the
    rounding of ``rem -= w; rem += w``).
    """
    t0 = time.monotonic()
    prep = _prepare(problem)
    n = len(problem.tasks)
    n_nodes = len(prep.node_ids)
    tol = _tie_tolerance(prep)
    slack = _rounding_slack(prep)
    cheap = _cheapest_suffix(prep)
    uniform = _uniform_suffix(prep)
    order = _fill_order(prep, uniform.index(True))
    cost, eligible = prep.cost, prep.eligible
    group_prev, task_w, task_f = prep.group_prev, prep.task_w, prep.task_f
    rem_mips = list(prep.node_cap_mips)
    rem_mbps = list(prep.route_cap_mbps)
    assignment = [0] * n
    best_obj: Optional[float] = None
    best_asg: Optional[List[int]] = None
    nodes = leaves = bound_prunes = relax_dead_ends = 0
    deadline = None if time_limit_s is None else t0 + time_limit_s
    timed_out = stop = False
    floor = math.floor
    root_bound: Optional[float] = None
    # the open depths: children[d] iterates the node indices left to try
    # at depth d, base[d] is the cost of the tasks placed above depth d
    children: List[Iterator[int]] = []
    base: List[float] = []

    for probing in (True, False):
        depth, cost_so_far = 0, 0.0
        while True:
            # the node at (depth, cost_so_far); it opens a frame unless it
            # is a leaf, a dead end or pruned
            nodes += 1
            if deadline is not None and nodes % 256 == 0 \
                    and time.monotonic() > deadline:
                timed_out = stop = True
            elif depth == n:
                leaves += 1
                if best_obj is None or cost_so_far < best_obj - tol:
                    best_obj = cost_so_far
                    best_asg = list(assignment)
                    stop = probing
            else:
                w, f = task_w[depth], task_f[depth]
                tail = cheap[depth]
                need = 0  # tasks the fill bound cannot host
                if uniform[depth]:
                    # fill the remaining n - depth tasks into nodes,
                    # cheapest first
                    need = n - depth
                    total = 0.0
                    for c, j in order:
                        if need == 0:
                            break
                        # take = min(need, max(0, slots)) without the
                        # builtin calls
                        take = floor(rem_mips[j] / w + 1e-9)
                        if f > 0:
                            by_flow = floor(rem_mbps[j] / f + 1e-9)
                            if by_flow < take:
                                take = by_flow
                        if take < 0:
                            take = 0
                        elif take > need:
                            take = need
                        total += take * c
                        need -= take
                    if total >= tail:  # max(total, tail)
                        tail = total
                if need > 0:
                    relax_dead_ends += 1
                else:
                    if depth == 0:
                        root_bound = tail
                        if probing:
                            best_obj = tail + 3 * tol
                    if best_obj is not None \
                            and cost_so_far + tail >= best_obj - tol:
                        bound_prunes += 1
                    else:
                        prev = group_prev[depth]
                        start_j = assignment[prev] if prev is not None else 0
                        children.append(iter(range(start_j, n_nodes)))
                        base.append(cost_so_far)
            # step to the next node in DFS order, undoing each closed child
            while children:
                d = len(children) - 1
                w, f = task_w[d], task_f[d]
                if depth > d:  # back from the child at depth d + 1
                    j = assignment[d]
                    rem_mips[j] += w
                    rem_mbps[j] += f
                    depth = d
                if not stop:
                    ok_row = eligible[d]
                    for j in children[d]:
                        if not ok_row[j]:
                            continue
                        if w > rem_mips[j] + 1e-9 or f > rem_mbps[j] + 1e-9:
                            continue
                        assignment[d] = j
                        rem_mips[j] -= w
                        rem_mbps[j] -= f
                        depth, cost_so_far = d + 1, base[d] + cost[d][j]
                        break
                if depth > d:  # entered that child
                    break
                children.pop()
                base.pop()
            else:
                break
        if probing:
            cutoff_nodes = nodes
            settled = best_asg is not None \
                and best_obj < root_bound + tol - 2 * slack
            band_obj, band_asg = best_obj, best_asg
            if settled or timed_out or root_bound is None:
                break
            stop = False
            best_obj = best_asg = None
    if timed_out and band_asg is not None \
            and (best_asg is None or band_obj < best_obj):
        best_obj, best_asg = band_obj, band_asg
    elapsed = time.monotonic() - t0

    if best_asg is None:
        if timed_out:
            raise ResourceLimitError(
                f"time limit {time_limit_s}s expired before any feasible "
                f"placement was found")
        if root_bound is None:
            raise InfeasibleError(
                "tasks cannot all be hosted: node or route capacities "
                "exhaust before every task is placed",
                report={"constraint": "capacity_packing",
                        "tasks": n, "nodes": n_nodes})
        raise InfeasibleError(
            "no placement satisfies the node and route capacities together",
            report={"constraint": "capacity_packing", "tasks": n,
                    "nodes": n_nodes,
                    "relaxation_bound_w": root_bound})
    gap = 0.0
    if timed_out:
        gap = max(0.0, (best_obj - (root_bound - slack)) / max(1.0, best_obj))
    stats = {
        "method": "branch_and_bound",
        "nodes": nodes,
        "leaves": leaves,
        "bound_prunes": bound_prunes,
        "relax_dead_ends": relax_dead_ends,
        "cutoff_nodes": cutoff_nodes,
        "cutoff_settled": settled,
        "root_bound": root_bound,
        "gap": gap,
        "complete": not timed_out,
        "elapsed_s": elapsed,
    }
    return _finish(problem, prep, best_asg, stats)


# =====================================================================
# sweep
# =====================================================================

#: One solved sweep cell: ``(drr, workload_mips, result)``.
SweepCell = Tuple[float, float, Union[PlacementSolution, InfeasibleError]]


def sweep(drr_values: Sequence[float], workload_values: Sequence[float],
          topology: Optional[TopologyConfig] = None, task_count: int = 50,
          time_limit_s: Optional[float] = None) -> List[SweepCell]:
    """Solve every (drr, workload) cell, DRR-major.

    Each cell's ``result`` is its ``PlacementSolution`` or the
    ``InfeasibleError`` whose report names the constraint that ended it;
    ``owcfog.scenarios.placement_table`` builds the table from the cells.
    """
    if topology is None:
        topology = build_reference_topology()
    sources = [m.node_id for m in topology.mobiles()]
    cells = []
    for drr in drr_values:
        for w in workload_values:
            tasks = demands_from_drr(w, drr, task_count, sources)
            try:
                result = solve_branch_and_bound(
                    PlacementProblem(topology, tasks),
                    time_limit_s=time_limit_s)
            except InfeasibleError as exc:
                result = exc
            cells.append((drr, w, result))
    return cells
