"""Placement model + solver tests.

The frozen cost numbers below are hand arithmetic on the node/route tables:
cost(task, node) = W * E_node + F * Psi_node, e.g. a 1000 MIPS task with a
2 Mbit/s flow on the central cloud costs 1000*0.000796 + 2*0.128 = 1.052 W.
"""

import dataclasses
import math
import random

import pytest

from owcfog.config import load_config
from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError
from owcfog.placement import (
    PlacementProblem,
    TaskDemand,
    _cheapest_suffix,
    _fill_order,
    _finish,
    _preference_order,
    _prepare,
    _rounding_slack,
    _tie_tolerance,
    _uniform_suffix,
    demands_from_drr,
    solve_branch_and_bound,
    sweep,
    utilization_report,
)
from owcfog.topology import (
    MOBILE_KIND,
    ProcessingNode,
    Route,
    TopologyConfig,
    build_reference_topology,
)

from oracles import PlacementModel, solve_exhaustive

WL = ("red", "yellow", "green", "blue")


@pytest.fixture(scope="module")
def topo():
    return build_reference_topology()


def _mobiles_only(topo):
    return TopologyConfig(tuple(n for n in topo.nodes if n.is_mobile))


def _rand_topo(rng, n_mob, n_fog):
    kinds = ["RoomFog", "BuildFog", "CampFog", "MetroFog", "CCloud"][:n_fog]
    nodes = []
    for i in range(n_mob):
        cap = rng.choice([800, 1500, 2000])
        eff = round(rng.uniform(0.003, 0.005), 5)
        wl = rng.choice(WL)
        route = Route(("ONU",), rng.choice([500, 2000, 10000]),
                      round(rng.uniform(0.001, 0.003), 5))
        nodes.append(ProcessingNode(f"mobile_{i}", MOBILE_KIND, cap, eff,
                                    route, wavelength=wl))
    for k in kinds:
        cap = rng.choice([2000, 5000, 90000])
        eff = round(rng.uniform(0.0008, 0.003), 6)
        route = Route(("ONU",), rng.choice([1000, 10000]),
                      round(rng.uniform(0.002, 0.1), 5))
        nodes.append(ProcessingNode(k.lower(), k, cap, eff, route))
    return TopologyConfig(tuple(nodes))


# =====================================================================
# demand generation
# =====================================================================

def test_flow_is_drr_times_workload():
    tasks = demands_from_drr(400.0, 0.6, 4)
    assert all(t.flow_mbps == 240.0 for t in tasks)
    assert demands_from_drr(1000.0, 0.002, 1)[0].flow_mbps == 2.0


@pytest.mark.parametrize("count", [2.0, 1.5, True, False, "3", None])
def test_demands_refuse_a_count_that_is_not_a_positive_int(count):
    # a float used to fail in range() with a TypeError, and True built one
    # task
    with pytest.raises(ConfigError,
                       match="sweep.tasks must be a positive integer, got "):
        demands_from_drr(100.0, 0.2, count)


def test_sources_round_robin():
    tasks = demands_from_drr(400.0, 0.1, 10)
    assert [t.source for t in tasks[:3]] == ["mobile_0", "mobile_1",
                                             "mobile_2"]
    assert tasks[8].source == "mobile_0"
    assert tasks[9].source == "mobile_1"


def test_demand_validation():
    with pytest.raises(ConfigError):
        demands_from_drr(400.0, 0.6, 0)
    with pytest.raises(ConfigError):
        demands_from_drr(400.0, 0.0, 1)
    with pytest.raises(ConfigError):
        demands_from_drr(400.0, 1.5, 1)
    # the loader refuses sweep.drr = 1.0 too
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        demands_from_drr(100.0, 1.0, 1)
    with pytest.raises(ConfigError, match="no mobile unit"):
        demands_from_drr(400.0, 0.6, 1, sources=[])
    # outside the paper's 100..1500 MIPS range, but a valid demand
    assert demands_from_drr(50.0, 0.5, 1)[0].flow_mbps == 25.0
    # NaN fails every comparison, so it must not slip past the range checks
    for workload, flow in ((math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                           (100.0, math.nan), (100.0, math.inf),
                           (100.0, -1.0)):
        with pytest.raises(ConfigError, match="task 0: "):
            TaskDemand(0, "mobile_0", workload, flow)
    TaskDemand(0, "mobile_0", 100.0, 0.0)   # a flow of zero is allowed


# =====================================================================
# single-task regimes (frozen arithmetic)
# =====================================================================

def test_single_task_costs_low_drr(topo):
    p = PlacementProblem(topo, demands_from_drr(1000.0, 0.002, 1))
    t = p.tasks[0]
    assert p.cost(t, "ccloud") == pytest.approx(1.052, abs=1e-9)
    assert p.cost(t, "metrofog") == pytest.approx(1.4326, abs=1e-9)
    assert p.cost(t, "roomfog") == pytest.approx(3.003, abs=1e-9)


@pytest.mark.parametrize("drr,node,total", [
    (0.002, "ccloud", 1.052),
    (0.02, "metrofog", 2.716),
    (0.04, "roomfog", 3.06),
])
def test_regime_switches_with_drr(topo, drr, node, total):
    sol = solve_branch_and_bound(
        PlacementProblem(topo, demands_from_drr(1000.0, drr, 1)))
    assert sol.assignment == {0: node}
    assert sol.objective_w == pytest.approx(total, abs=1e-9)


def test_cost_order_at_drr_004_and_006(topo):
    p4 = PlacementProblem(topo, demands_from_drr(1000.0, 0.04, 1))
    t = p4.tasks[0]
    room, build, metro = (p4.cost(t, n)
                          for n in ("roomfog", "buildfog", "metrofog"))
    assert room == pytest.approx(3.06, abs=1e-9)
    assert build == pytest.approx(3.752, abs=1e-9)
    assert room < build < metro
    p6 = PlacementProblem(topo, demands_from_drr(1000.0, 0.06, 1,
                                                 ["mobile_1"]))
    t6 = p6.tasks[0]
    assert p6.cost(t6, "mobile_0") == pytest.approx(4.1332, abs=1e-9)
    assert p6.cost(t6, "metrofog") == pytest.approx(5.568, abs=1e-9)


def test_power_report_splits(topo):
    sol = solve_branch_and_bound(
        PlacementProblem(topo, demands_from_drr(1000.0, 0.002, 1)))
    assert sol.processing_power_w["ccloud"] == pytest.approx(0.796)
    assert sol.networking_power_w["ccloud"] == pytest.approx(0.256)
    # accounting identity: objective is exactly the sum of the two splits
    assert sol.objective_w == pytest.approx(
        sol.total_processing_w + sol.total_networking_w)


# =====================================================================
# bin packing on the mobiles
# =====================================================================

@pytest.mark.parametrize("w,count,util", [
    (400.0, 24, 0.80),
    (700.0, 16, 14.0 / 15.0),
    (800.0, 8, 8.0 / 15.0),
])
def test_mobile_utilization_bins(topo, w, count, util):
    mtopo = _mobiles_only(topo)
    sol = solve_branch_and_bound(
        PlacementProblem(mtopo, demands_from_drr(w, 0.6, count)))
    for row in utilization_report(sol):
        assert row["utilization"] == pytest.approx(util, abs=1e-12)
        assert row["wavelength"] in WL


def test_no_self_processing_respected(topo):
    mtopo = _mobiles_only(topo)
    sol = solve_branch_and_bound(
        PlacementProblem(mtopo, demands_from_drr(800.0, 0.6, 8)))
    for t in sol.problem.tasks:
        assert sol.assignment[t.task_id] != t.source
    # a lone task leaves its source even where the source costs least
    task = TaskDemand(0, "mobile_2", 500.0, 300.0)
    problem = PlacementProblem(mtopo, [task])
    sol = solve_branch_and_bound(problem)
    assert sol.assignment[0] != "mobile_2"
    assert problem.cost(task, "mobile_2") <= problem.cost(task,
                                                          sol.assignment[0])


# =====================================================================
# infeasibility reporting
# =====================================================================

def test_unroutable_flow_names_task(topo):
    # 300 Gbit/s flow exceeds every route, even the metro/cloud trunks
    p = PlacementProblem(topo, [TaskDemand(7, "mobile_0", 1000.0, 300_000.0)])
    with pytest.raises(InfeasibleError) as e:
        solve_branch_and_bound(p)
    assert e.value.report["constraint"] == "per_task_fit"
    assert e.value.report["task_id"] == 7


def test_total_workload_over_capacity(topo):
    # 315,000 MIPS demanded against 305,000 MIPS of total capacity
    tasks = [TaskDemand(k, f"mobile_{k % 8}", 1500.0, 1.0)
             for k in range(210)]
    with pytest.raises(InfeasibleError) as e:
        solve_branch_and_bound(PlacementProblem(topo, tasks))
    assert e.value.report["constraint"] == "total_capacity"


def test_packing_infeasibility(topo):
    # every task fits somewhere, total fits, but the combination cannot:
    # two 1400 MIPS tasks with only one node able to host either
    route = Route(("ONU",), 10_000.0, 0.0015)
    t = TopologyConfig((
        ProcessingNode("mobile_0", MOBILE_KIND, 1500.0, 0.004, route,
                       wavelength="red"),
        ProcessingNode("mobile_1", MOBILE_KIND, 1500.0, 0.004, route,
                       wavelength="blue"),
        ProcessingNode("roomfog", "RoomFog", 1500.0, 0.003, route),
    ))
    tasks = [TaskDemand(0, "mobile_0", 1400.0, 1.0),
             TaskDemand(1, "mobile_0", 1400.0, 1.0),
             TaskDemand(2, "mobile_0", 1400.0, 1.0)]
    for solver in (solve_branch_and_bound, solve_exhaustive):
        with pytest.raises(InfeasibleError) as e:
            solver(PlacementProblem(t, tasks))
        assert e.value.report["constraint"] == "capacity_packing"


# =====================================================================
# solver agreement + determinism
# =====================================================================

def test_branch_and_bound_matches_exhaustive():
    rng = random.Random(9)
    agree = infeasible = 0
    for _ in range(60):
        t = _rand_topo(rng, rng.randint(1, 3), rng.randint(1, 3))
        srcs = [m.node_id for m in t.mobiles()]
        tasks = [TaskDemand(k, rng.choice(srcs),
                            rng.choice([300, 700, 1400]),
                            rng.choice([0, 60, 400, 900]))
                 for k in range(rng.randint(1, 5))]
        p = PlacementProblem(t, tasks)
        try:
            ex = solve_exhaustive(p)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_branch_and_bound(p)
            infeasible += 1
            continue
        bb = solve_branch_and_bound(p)
        assert bb.objective_w == pytest.approx(ex.objective_w, rel=1e-9)
        assert bb.assignment == ex.assignment
        agree += 1
    assert agree >= 40 and infeasible >= 1


def test_uniform_demand_matches_exhaustive():
    # identical tasks make every depth a uniform suffix, so the greedy fill
    # bound prunes from the root down; capacities bind in most cells, which
    # sends the oracle through full enumeration
    rng = random.Random(5)
    enumerated = infeasible = 0
    for _ in range(48):
        t = _rand_topo(rng, rng.randint(1, 3), rng.randint(1, 3))
        srcs = [m.node_id for m in t.mobiles()]
        w = rng.choice([300, 700, 1400])
        f = rng.choice([0, 60, 400, 900])
        tasks = [TaskDemand(k, srcs[k % len(srcs)], w, f)
                 for k in range(rng.randint(5, 7))]
        p = PlacementProblem(t, tasks)
        try:
            ex = solve_exhaustive(p)
        except InfeasibleError as e:
            with pytest.raises(InfeasibleError) as e_bb:
                solve_branch_and_bound(p)
            assert e_bb.value.report["constraint"] == e.report["constraint"]
            infeasible += 1
            continue
        bb = solve_branch_and_bound(p)
        assert bb.assignment == ex.assignment
        assert bb.objective_w == pytest.approx(ex.objective_w, rel=1e-9)
        # the fill bound may never exceed the optimum it bounds
        assert bb.stats["root_bound"] <= ex.objective_w * (1 + 1e-12)
        enumerated += not ex.stats["decomposed"]
    assert enumerated >= 20 and infeasible >= 1


def test_relaxation_dead_ends_reported():
    # a 900 MIPS task on the room server leaves it no 800 MIPS slot, so
    # the fill bound finds three tasks for two slots and cuts the node
    route = Route(("ONU",), 10_000.0, 0.0015)
    nodes = (
        ProcessingNode("mobile_0", MOBILE_KIND, 500.0, 0.004, route,
                       wavelength="red"),
        ProcessingNode("roomfog", "RoomFog", 1600.0, 0.003, route),
        ProcessingNode("buildfog", "BuildFog", 1700.0, 0.002, route),
    )
    tasks = [TaskDemand(0, "mobile_0", 900.0, 1.0)] + [
        TaskDemand(k, "mobile_0", 800.0, 1.0) for k in (1, 2, 3)]
    p = PlacementProblem(TopologyConfig(nodes), tasks)
    bb = solve_branch_and_bound(p)
    # the cutoff probe finds no leaf here, so the search after it meets
    # the same dead end again: once per pass
    assert not bb.stats["cutoff_settled"]
    assert bb.stats["relax_dead_ends"] == 2
    assert bb.assignment == solve_exhaustive(p).assignment
    assert bb.assignment[0] == "buildfog"


def test_exhaustive_decomposes_when_capacity_is_loose(topo):
    # 8 x 100 MIPS fits inside every node, so tasks are independent
    tasks = demands_from_drr(100.0, 0.002, 8)
    ex = solve_exhaustive(PlacementProblem(topo, tasks))
    assert ex.stats["decomposed"]
    bb = solve_branch_and_bound(PlacementProblem(topo, tasks))
    assert bb.assignment == ex.assignment


def test_enumeration_cap(topo):
    tasks = demands_from_drr(1500.0, 0.6, 12)  # capacity binds, no shortcut
    with pytest.raises(ResourceLimitError):
        solve_exhaustive(PlacementProblem(topo, tasks), enumeration_cap=100)


def test_repeated_solves_identical(topo):
    tasks = demands_from_drr(700.0, 0.2, 20)
    a = solve_branch_and_bound(PlacementProblem(topo, tasks))
    b = solve_branch_and_bound(PlacementProblem(topo, tasks))
    assert a.assignment == b.assignment
    assert a.objective_w == b.objective_w


def test_time_limited_solve_reports_gap(topo):
    tasks = demands_from_drr(900.0, 0.4, 50)
    sol = solve_branch_and_bound(PlacementProblem(topo, tasks),
                                 time_limit_s=1e-5)
    if sol.stats["complete"]:
        assert sol.stats["gap"] == 0.0
    else:
        assert sol.stats["gap"] >= 0.0
    # the placement is feasible either way
    model = PlacementModel(PlacementProblem(topo, tasks))
    assert model.check_point(model.point_from_assignment(sol.assignment)) \
        == []


def test_expired_time_limit_stops_at_first_check(topo):
    # a zero budget expires at the first clock check (node 256), so the
    # count and the incumbent are the same on every machine; the cutoff
    # probe stops at a near-tie in 131 nodes and falls back, so the check
    # comes in the search after it
    problem = _near_tie_cell(topo, 300.0, (1.5, 1.5))
    sol = solve_branch_and_bound(problem, time_limit_s=0.0)
    assert sol.stats["complete"] is False
    assert sol.stats["nodes"] == 256
    model = PlacementModel(problem)
    assert model.check_point(model.point_from_assignment(sol.assignment)) \
        == []
    # the root bound equals this cell's optimum, summed in another order
    full = solve_branch_and_bound(problem)
    assert full.objective_w <= sol.objective_w
    assert (sol.objective_w - full.objective_w) / sol.objective_w \
        <= sol.stats["gap"] + 1e-12


def test_expired_time_limit_gap_needs_no_slack(topo):
    # the root bound sits above this cell's optimum by rounding, so a gap
    # measured against the bound itself understates the true gap
    problem = _near_tie_cell(topo, 300.0, (1.5, 1.5))
    sol = solve_branch_and_bound(problem, time_limit_s=0.0)
    full = solve_branch_and_bound(problem)
    assert not sol.stats["complete"]
    assert full.stats["root_bound"] > full.objective_w
    assert (sol.objective_w - full.objective_w) / sol.objective_w \
        <= sol.stats["gap"]


def test_zero_budget_settles_tight_cell_before_first_check(topo):
    # the cutoff probe proves this drr = 0.002 cell in fewer than 256
    # nodes, so a zero budget never reaches a clock check
    problem = PlacementProblem(topo, demands_from_drr(200.0, 0.002, 50))
    sol = solve_branch_and_bound(problem, time_limit_s=0.0)
    assert sol.stats["complete"] is True
    assert sol.stats["cutoff_settled"] is True
    assert sol.stats["nodes"] < 256
    assert sol.assignment == solve_branch_and_bound(problem).assignment


# search-tree size of three default sweep cells (50 tasks): a tighter bound
# may shrink the tree below these ceilings, a slower search fails them
@pytest.mark.parametrize("drr,workload,nodes,leaves,prunes", [
    (0.002, 200.0, 32_728, 928, 23_056),
    (0.2, 800.0, 289, 4, 235),
    (0.6, 1500.0, 222, 2, 170),
])
def test_sweep_cell_search_tree_ceilings(topo, drr, workload, nodes, leaves,
                                         prunes):
    sources = [m.node_id for m in topo.mobiles()]
    tasks = demands_from_drr(workload, drr, 50, sources)
    stats = solve_branch_and_bound(PlacementProblem(topo, tasks)).stats
    assert stats["complete"]
    assert stats["nodes"] <= nodes
    assert stats["leaves"] <= leaves
    assert stats["bound_prunes"] <= prunes


def test_root_fill_bound_is_admissible_on_tight_sweep_cells(topo):
    # at drr = 0.002 the root fill bound meets the optimum to a few ulp, so
    # a bound inflated by even 0.1% shows here
    sources = [m.node_id for m in topo.mobiles()]
    for w in load_config()["sweep"]["workload_mips"]:
        tasks = demands_from_drr(w, 0.002, 50, sources)
        sol = solve_branch_and_bound(PlacementProblem(topo, tasks))
        assert sol.stats["root_bound"] <= sol.objective_w * (1 + 1e-12)


# =====================================================================
# cutoff probe against the incumbent chain
# =====================================================================

def _incumbent_chain(problem):
    """The search without its cutoff probe, written out longhand: one DFS
    from the root with no incumbent, where a leaf replaces the incumbent
    only when cheaper by more than the tie tolerance.  The solver must end
    on the same leaf, ties included."""
    prep = _prepare(problem)
    n, n_nodes = len(problem.tasks), len(prep.node_ids)
    tol = _tie_tolerance(prep)
    cheap = _cheapest_suffix(prep)
    uniform = _uniform_suffix(prep)
    order = _fill_order(prep, uniform.index(True))
    rem_mips = list(prep.node_cap_mips)
    rem_mbps = list(prep.route_cap_mbps)
    assignment = [0] * n
    best = {"obj": None, "asg": None}

    def descend(depth, cost_so_far):
        if depth == n:
            if best["obj"] is None or cost_so_far < best["obj"] - tol:
                best["obj"], best["asg"] = cost_so_far, list(assignment)
            return
        w, f = prep.task_w[depth], prep.task_f[depth]
        tail = cheap[depth]
        if uniform[depth]:
            need = n - depth
            total = 0.0
            for c, j in order:
                if need == 0:
                    break
                take = math.floor(rem_mips[j] / w + 1e-9)
                if f > 0:
                    take = min(take, math.floor(rem_mbps[j] / f + 1e-9))
                take = min(need, max(0, take))
                total += take * c
                need -= take
            if need > 0:
                return
            tail = max(total, tail)
        if best["obj"] is not None \
                and cost_so_far + tail >= best["obj"] - tol:
            return
        prev = prep.group_prev[depth]
        for j in range(assignment[prev] if prev is not None else 0,
                       n_nodes):
            if not prep.eligible[depth][j]:
                continue
            if w > rem_mips[j] + 1e-9 or f > rem_mbps[j] + 1e-9:
                continue
            assignment[depth] = j
            rem_mips[j] -= w
            rem_mbps[j] -= f
            descend(depth + 1, cost_so_far + prep.cost[depth][j])
            rem_mips[j] += w
            rem_mbps[j] += f

    descend(0, 0.0)
    if best["asg"] is None:
        raise InfeasibleError("no placement", report={})
    return _finish(problem, prep, best["asg"], {})


def _assert_probe_matches_chain(problem):
    """Solve both ways; an infeasible instance must be infeasible to both.
    Returns the solver's stats, or None when infeasible."""
    try:
        ref = _incumbent_chain(problem)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_branch_and_bound(problem)
        return None
    bb = solve_branch_and_bound(problem)
    assert bb.assignment == ref.assignment
    assert bb.objective_w.hex() == ref.objective_w.hex()
    return bb.stats


def _near_tie_cell(topo, workload, offsets):
    """A drr = 0.002 cell of 50 tasks whose optimum is all-cloud, with
    campfog, then metrofog, cut to one task and priced ``offsets[k]`` tie
    tolerances above the cloud for it.  Which of these near-ties the
    incumbent chain keeps depends on the order it meets them."""
    tasks = demands_from_drr(workload, 0.002, 50)
    base = PlacementProblem(topo, tasks)
    tol = _tie_tolerance(_prepare(base))
    cloud = base.cost(tasks[0], "ccloud")
    nodes = list(topo.nodes)
    ids = [node.node_id for node in nodes]
    for node_id, k in zip(("campfog", "metrofog"), offsets):
        psi = topo.node(node_id).route.efficiency_w_per_mbps
        eff = (cloud + k * tol - tasks[0].flow_mbps * psi) / workload
        nodes[ids.index(node_id)] = dataclasses.replace(
            nodes[ids.index(node_id)], capacity_mips=workload,
            efficiency_w_per_mips=eff)
    problem = PlacementProblem(TopologyConfig(tuple(nodes)), tasks)
    assert _tie_tolerance(_prepare(problem)) == tol
    return problem


def _uniform_family(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        t = _rand_topo(rng, rng.randint(1, 4), rng.randint(1, 5))
        srcs = [m.node_id for m in t.mobiles()]
        w = rng.choice([300, 700, 1400])
        f = rng.choice([0, 60, 400, 900])
        yield PlacementProblem(t, [TaskDemand(k, srcs[k % len(srcs)], w, f)
                                   for k in range(rng.randint(5, 14))])


def _mixed_family(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        t = _rand_topo(rng, rng.randint(1, 4), rng.randint(1, 5))
        srcs = [m.node_id for m in t.mobiles()]
        yield PlacementProblem(t, [
            TaskDemand(k, rng.choice(srcs), rng.choice([300, 700, 1400]),
                       rng.choice([0, 60, 400, 900]))
            for k in range(rng.randint(2, 9))])


def _longhand_rows(problem):
    """The solver's per-task tables built one task at a time: a cost row and
    an eligibility row per task, M as the sum of each task's dearest
    eligible cost, the cheapest-node suffix sums and each task's
    predecessor among identical tasks.  Raises as ``_prepare`` does."""
    nodes = _preference_order(problem.topology)
    tasks = list(problem.tasks)
    cost = [[t.workload_mips * n.efficiency_w_per_mips
             + t.flow_mbps * n.route.efficiency_w_per_mbps for n in nodes]
            for t in tasks]
    eligible = []
    for t in tasks:
        row = [t.workload_mips <= n.capacity_mips
               and t.flow_mbps <= n.route.capacity_mbps
               and n.node_id != t.source for n in nodes]
        if not any(row):
            raise InfeasibleError(
                "fits no node", report={"constraint": "per_task_fit",
                                        "task_id": t.task_id,
                                        "workload_mips": t.workload_mips,
                                        "flow_mbps": t.flow_mbps})
        eligible.append(row)
    total_w = sum(t.workload_mips for t in tasks)
    total_cap = sum(n.capacity_mips for n in nodes)
    if total_w > total_cap + 1e-9:
        raise InfeasibleError(
            "over capacity", report={"constraint": "total_capacity",
                                     "total_workload_mips": total_w,
                                     "total_capacity_mips": total_cap})
    worst = max(1.0, sum(max(c for c, ok in zip(row, okrow) if ok)
                         for row, okrow in zip(cost, eligible)))
    cheap = [0.0] * (len(tasks) + 1)
    for i in range(len(tasks) - 1, -1, -1):
        cheap[i] = cheap[i + 1] + min(
            c for c, ok in zip(cost[i], eligible[i]) if ok)
    group_prev = []
    for i, t in enumerate(tasks):
        prev = [k for k in range(i) if (tasks[k].workload_mips,
                                         tasks[k].flow_mbps, tasks[k].source)
                == (t.workload_mips, t.flow_mbps, t.source)]
        group_prev.append(prev[-1] if prev else None)
    return cost, eligible, worst, cheap, group_prev


def _assert_rows_match_longhand(problem):
    """``_prepare`` against the longhand build, floats compared with ==;
    an instance one rejects the other rejects with the same report.
    Returns the prepared view, or None when infeasible."""
    try:
        cost, eligible, worst, cheap, group_prev = _longhand_rows(problem)
    except InfeasibleError as e:
        with pytest.raises(InfeasibleError) as got:
            _prepare(problem)
        assert got.value.report == e.report
        return None
    prep = _prepare(problem)
    assert [list(row) for row in prep.cost] == cost
    assert [list(row) for row in prep.eligible] == eligible
    assert all(type(row) is tuple for row in prep.cost + prep.eligible)
    assert prep.worst_w == worst
    assert _cheapest_suffix(prep) == cheap
    assert prep.group_prev == group_prev
    assert [n.node_id for n in prep.nodes] == prep.node_ids
    # one shared row per demand class, not one per task
    classes = {(t.workload_mips, t.flow_mbps) for t in problem.tasks}
    assert len({id(row) for row in prep.cost}) == len(classes)
    sigs = {(t.workload_mips, t.flow_mbps, t.source) for t in problem.tasks}
    assert len({id(row) for row in prep.eligible}) == len(sigs)
    return prep


@pytest.mark.parametrize("family", [_uniform_family, _mixed_family])
def test_class_rows_match_longhand_on_random_families(family):
    prepared = sum(_assert_rows_match_longhand(problem) is not None
                   for problem in family(21, 300))
    assert 200 <= prepared < 300


def test_class_rows_match_longhand_on_sweep_cells(topo):
    sweep_cfg = load_config()["sweep"]
    sources = [m.node_id for m in topo.mobiles()]
    for drr in sweep_cfg["drr"]:
        for w in sweep_cfg["workload_mips"]:
            prep = _assert_rows_match_longhand(PlacementProblem(
                topo, demands_from_drr(w, drr, 50, sources)))
            assert len(set(map(id, prep.eligible))) == len(sources)


def test_unfit_second_class_names_its_first_task(topo):
    # the first class fits; the second carries 300 Gbit/s, more than any
    # route, and its first task in task order (not the lowest id) is named
    tasks = [TaskDemand(5, "mobile_0", 500.0, 1.0),
             TaskDemand(3, "mobile_1", 500.0, 1.0),
             TaskDemand(9, "mobile_0", 1000.0, 300_000.0),
             TaskDemand(1, "mobile_1", 1000.0, 300_000.0)]
    problem = PlacementProblem(topo, tasks)
    with pytest.raises(InfeasibleError) as e:
        _longhand_rows(problem)
    assert e.value.report["task_id"] == 9
    assert _assert_rows_match_longhand(problem) is None
    with pytest.raises(InfeasibleError) as e_bb:
        solve_branch_and_bound(problem)
    assert e_bb.value.report["constraint"] == "per_task_fit"
    assert e_bb.value.report["task_id"] == 9


def test_cutoff_probe_matches_incumbent_chain_on_sweep_cells(topo):
    sweep_cfg = load_config()["sweep"]
    sources = [m.node_id for m in topo.mobiles()]
    nodes = 0
    for drr in sweep_cfg["drr"]:
        for w in sweep_cfg["workload_mips"]:
            stats = _assert_probe_matches_chain(PlacementProblem(
                topo, demands_from_drr(w, drr, 50, sources)))
            assert stats["cutoff_nodes"] <= stats["nodes"]
            nodes += stats["nodes"]
    assert nodes < 10_000


@pytest.mark.parametrize("family", [_uniform_family, _mixed_family])
def test_cutoff_probe_matches_incumbent_chain_on_random_families(family):
    outcomes = []
    for problem in family(21, 300):
        stats = _assert_probe_matches_chain(problem)
        if stats is not None:
            outcomes.append(stats["cutoff_settled"])
    assert len(outcomes) >= 200
    assert any(outcomes) and not all(outcomes)


def test_cutoff_probe_matches_incumbent_chain_on_near_ties(topo):
    # first-leaf offsets of 1 to 2 tie tolerances above the root bound
    # stop the probe inside its band, where only the full search can tell
    # which near-tie the chain keeps
    settled = []
    for w in (200.0, 1500.0):
        for offsets in [(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5),
                        (2.5, 1.5), (2.5, 2.5)]:
            stats = _assert_probe_matches_chain(_near_tie_cell(topo, w,
                                                               offsets))
            settled.append(stats["cutoff_settled"])
    assert any(settled) and not all(settled)


def test_cutoff_probe_keeps_its_rounding_margin(topo):
    # a first leaf 1.5 s under LB + tol is not clear of the incumbent
    # chain's rounding, so the probe must fall back rather than settle
    probe = _near_tie_cell(topo, 700.0, (1.0,))
    prep = _prepare(probe)
    ratio = _rounding_slack(prep) / _tie_tolerance(prep)
    stats = _assert_probe_matches_chain(
        _near_tie_cell(topo, 700.0, (1.0 - 1.5 * ratio,)))
    assert stats["cutoff_settled"] is False


def test_fill_bound_holds_at_partial_states():
    # The probe's exactness rests on every node's bound being at most the
    # cheapest completion below it, up to the rounding slack s.  Place a
    # random prefix of tasks, then solve what is left (the remaining tasks
    # on the remaining capacities, own-source rule kept) both ways: the
    # root bound of that problem is at least the fill bound the search
    # computes at the same state, and the oracle gives the completion.
    rng = random.Random(17)
    checked = dead = 0
    while checked < 60:
        t = _rand_topo(rng, rng.randint(1, 3), rng.randint(1, 3))
        srcs = [m.node_id for m in t.mobiles()]
        w = rng.choice([300, 700, 1400])
        f = rng.choice([0, 60, 400, 900])
        tasks = [TaskDemand(k, srcs[k % len(srcs)], w, f)
                 for k in range(rng.randint(4, 7))]
        try:
            full = PlacementProblem(t, tasks)
            slack = _rounding_slack(_prepare(full))
        except InfeasibleError:
            continue
        rem_mips = {n.node_id: n.capacity_mips for n in t.nodes}
        rem_mbps = {n.node_id: n.route.capacity_mbps for n in t.nodes}
        depth = rng.randint(1, len(tasks) - 1)
        for task in tasks[:depth]:
            fits = [n for n in rem_mips if n != task.source
                    and w <= rem_mips[n] + 1e-9 and f <= rem_mbps[n] + 1e-9]
            if not fits:
                break
            node = rng.choice(fits)
            rem_mips[node] -= w
            rem_mbps[node] -= f
        else:
            # a full node keeps a sliver of capacity that fits no task
            nodes = tuple(dataclasses.replace(
                n, capacity_mips=max(rem_mips[n.node_id], 1e-6),
                route=dataclasses.replace(
                    n.route, capacity_mbps=max(rem_mbps[n.node_id], 1e-6)))
                for n in t.nodes)
            rest = PlacementProblem(TopologyConfig(nodes), tasks[depth:])
            try:
                oracle = solve_exhaustive(rest)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_branch_and_bound(rest)
                dead += 1
                continue
            bound = solve_branch_and_bound(rest).stats["root_bound"]
            assert bound <= oracle.objective_w + slack
            checked += 1
    assert dead >= 1


# =====================================================================
# sweep behavior
# =====================================================================

def test_sweep_rows_and_monotonicity(topo):
    drrs = [0.002, 0.06, 0.6]
    workloads = [200.0, 800.0]
    rows = sweep(drrs, workloads, topo, task_count=10)
    assert len(rows) == 6
    assert all(r["status"] == "optimal" for r in rows)
    for w in workloads:
        col = [r["total_power_w"] for r in rows if r["workload_mips"] == w]
        assert col == sorted(col)
    again = sweep(drrs, workloads, topo, task_count=10)
    assert again == rows


def test_sweep_flags_infeasible_cells():
    # one mobile and a room server cannot absorb ten 1400 MIPS tasks
    route = Route(("ONU",), 10_000.0, 0.0015)
    nodes = (
        ProcessingNode("mobile_0", MOBILE_KIND, 1500.0, 0.004, route,
                       wavelength="red"),
        ProcessingNode("roomfog", "RoomFog", 6200.0, 0.003, route),
    )
    rows = sweep([0.1], [1400.0], TopologyConfig(nodes), task_count=10)
    assert rows[0]["status"] == "infeasible"


def test_sweep_refuses_topology_without_mobiles(topo):
    fixed = TopologyConfig(tuple(n for n in topo.nodes if not n.is_mobile))
    with pytest.raises(ConfigError, match="no mobile unit"):
        sweep([0.1], [400.0], fixed, task_count=10)


# =====================================================================
# materialized constraint audit
# =====================================================================

def test_model_row_counts(topo):
    tasks = demands_from_drr(500.0, 0.1, 3)
    model = PlacementModel(PlacementProblem(topo, tasks))
    n_nodes = len(topo.nodes)
    assert len(model.rows_in_family("eq21")) == 3 * n_nodes
    assert len(model.rows_in_family("eq22")) == 3 * n_nodes
    assert len(model.rows_in_family("eq23")) == 3
    assert len(model.rows_in_family("eq24")) == n_nodes
    assert len(model.rows_in_family("eq27")) == 3 * n_nodes
    assert len(model.rows_in_family("no_self")) == 3


def test_solution_point_satisfies_all_rows(topo):
    tasks = demands_from_drr(700.0, 0.2, 12)
    problem = PlacementProblem(topo, tasks)
    sol = solve_branch_and_bound(problem)
    model = PlacementModel(problem)
    point = model.point_from_assignment(sol.assignment)
    assert model.check_point(point) == []
    assert model.objective(point) == pytest.approx(sol.objective_w, rel=1e-9)


def test_flow_conservation_and_link_rows_catch_violations(topo):
    tasks = demands_from_drr(700.0, 0.2, 2)
    problem = PlacementProblem(topo, tasks)
    model = PlacementModel(problem)
    point = model.point_from_assignment({0: "ccloud", 1: "roomfog"})
    assert model.check_point(point) == []
    # break conservation on one hop of task 0's route
    hops = [v for v in point if v[0] == "lam" and v[1] == 0 and
            v[2] == "ccloud"]
    point[hops[1]] = 0.0
    broken = model.check_point(point)
    assert any(name.startswith("flow_") for name in broken)


def test_alpha_binds_assignment_to_workload(topo):
    tasks = demands_from_drr(1500.0, 0.1, 2)
    model = PlacementModel(PlacementProblem(topo, tasks), alpha=2000.0)
    point = model.point_from_assignment({0: "ccloud", 1: "metrofog"})
    assert model.check_point(point) == []
    # X without delta violates the upper link
    bad = dict(point)
    bad[("X", 0, "roomfog")] = 800.0
    names = model.check_point(bad)
    assert any("link_hi" in n for n in names)
    # delta without X violates the lower link
    bad2 = dict(point)
    bad2[("delta", 0, "campfog")] = 1.0
    bad2[("X", 0, "ccloud")] = 0.0
    names2 = model.check_point(bad2)
    assert any("link_lo" in n for n in names2)


def test_alpha_must_exceed_workloads(topo):
    problem = PlacementProblem(topo, demands_from_drr(1500.0, 0.1, 1))
    with pytest.raises(ConfigError):
        PlacementModel(problem, alpha=1000.0)
    assert PlacementModel(problem).alpha == 15_000.0
