"""Acceptance gate: the eight shipping criteria.

Each test prints exactly one [PASS]/[FAIL] line (visible even under pytest's
capture) and enforces its own runtime budget.  Frozen numbers come from
independent arithmetic on the reference catalogue values; tolerances are
stated inline next to each assertion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from owcfog.allocator import AllocationProblem, solve_branch_and_bound
from owcfog.audit import (
    LinearizedModel,
    check_feasibility,
    sinr,
    solve_exhaustive,
)
from owcfog.channel import (
    ChannelRecord,
    ImpulseResponse,
    ReceiverSpec,
    bandwidth_3db,
    compute_channel_records,
    delay_spread,
    grid_positions,
    lambertian_order,
)
from owcfog.config import load_config, room_from_config
from owcfog.errors import InfeasibleError
from owcfog.placement import (
    PlacementProblem,
    demands_from_drr,
    solve_branch_and_bound as solve_placement,
    sweep,
)
from owcfog.scenarios import fraction_at_least
from owcfog.signal_model import ELECTRON_CHARGE_C, ChannelTable
from owcfog.topology import TopologyConfig, build_reference_topology

SINR_FLOOR = 10 ** 1.4          # linear; 14 dB
FEC_WINDOW_DB = (14.0, 15.6)    # 10% rate penalty inside, forbidden below


@contextmanager
def criterion(capsys, number, label, budget_s):
    t0 = time.perf_counter()
    ok = False
    note = {"text": ""}
    try:
        yield note
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, (
            f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        suffix = f" — {note['text']}" if note["text"] else ""
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}/8: "
                  f"{label} ({elapsed:.1f}s/{budget_s:.0f}s){suffix}")


# ---------------------------------------------------------------------
# shared instance builders
# ---------------------------------------------------------------------

def _table(rx_w, rates, wavelengths=("red", "yellow", "green", "blue")):
    """Channel table from a (users x APs) received-power matrix."""
    records = []
    for u, row in enumerate(rx_w):
        for a, p in enumerate(row):
            for wl in wavelengths:
                records.append(ChannelRecord(
                    user=u, user_x=float(u), user_y=0.0, ap_id=a,
                    wavelength=wl, h=p / 1.8, rx_power_w=p,
                    delay_spread_s=1e-10, bw_3db_hz=rates[u][a],
                    rate_bps=rates[u][a]))
    return ChannelTable.from_records(records)


def _random_problem(rng):
    """A small random instance: strong own links, weak cross links."""
    n_users = int(rng.integers(2, 5))
    n_aps = int(rng.integers(2, 4))
    rx = np.zeros((n_users, n_aps))
    rates = np.zeros((n_users, n_aps))
    for u in range(n_users):
        own = u % n_aps
        for a in range(n_aps):
            rx[u, a] = (rng.uniform(6e-6, 1e-5) if a == own
                        else rng.uniform(0.0, 2e-7))
            rates[u, a] = rng.choice([3e9, 4e9, 5e9])
    jitter = 1 + rng.uniform(-1e-3, 1e-3, size=4)
    records = []
    for u in range(n_users):
        for a in range(n_aps):
            for w, wl in enumerate(("red", "yellow", "green", "blue")):
                records.append(ChannelRecord(
                    user=u, user_x=float(u), user_y=0.0, ap_id=a,
                    wavelength=wl, h=rx[u, a] / 1.8,
                    rx_power_w=rx[u, a] * jitter[w],
                    delay_spread_s=1e-10, bw_3db_hz=rates[u, a],
                    rate_bps=rates[u, a]))
    return AllocationProblem.from_table(ChannelTable.from_records(records),
                                        ReceiverSpec())


def _same_slices(problem):
    """The same instance with every wavelength a copy of wavelength 0."""
    first = [0] * len(problem.wavelengths)
    return AllocationProblem(
        list(problem.users), list(problem.ap_ids), list(problem.wavelengths),
        problem.signal_a2[..., first], problem.shot_a2[..., first],
        problem.rate_bps, problem.preamp_a2)


def _mobiles_only(topo: TopologyConfig) -> TopologyConfig:
    return TopologyConfig(tuple(n for n in topo.nodes if n.is_mobile))


# ---------------------------------------------------------------------
# 1. placement regime reproduction
# ---------------------------------------------------------------------

def test_acceptance_1_placement_regimes(capsys):
    with criterion(capsys, 1, "placement regimes across the DRR range", 1.0):
        topo = build_reference_topology()

        def solve_one(drr):
            tasks = demands_from_drr(1000.0, drr, 1)
            return solve_placement(PlacementProblem(topo, tasks))

        def cost(node_id, drr, w=1000.0):
            node = topo.node(node_id)
            return w * node.efficiency_w_per_mips \
                + drr * w * node.route.efficiency_w_per_mbps

        # cheap flow: the efficient central cloud wins outright
        sol = solve_one(0.002)
        assert sol.assignment[0] == "ccloud"
        assert sol.objective_w == pytest.approx(1.052, abs=1e-9)

        # mid flow: the metro node overtakes it
        sol = solve_one(0.02)
        assert sol.assignment[0] == "metrofog"
        assert sol.objective_w == pytest.approx(2.716, abs=1e-9)

        # flow-heavy: the in-room server wins, and the local ordering holds
        sol = solve_one(0.04)
        assert sol.assignment[0] == "roomfog"
        assert sol.objective_w == pytest.approx(3.06, abs=1e-9)
        assert cost("roomfog", 0.04) == pytest.approx(3.06, abs=1e-9)
        assert cost("buildfog", 0.04) == pytest.approx(3.752, abs=1e-9)
        assert cost("roomfog", 0.04) < cost("buildfog", 0.04) \
            < cost("metrofog", 0.04)

        # flow-dominated: a red-tagged mobile unit now undercuts the metro
        # path (cost comparison; the in-room server still wins outright
        # until its capacity saturates)
        assert topo.node("mobile_0").wavelength == "red"
        red_cost = cost("mobile_0", 0.06)
        assert red_cost == pytest.approx(4.1332, abs=1e-9)
        assert cost("metrofog", 0.06) == pytest.approx(5.568, abs=1e-9)
        assert red_cost < cost("metrofog", 0.06)


# ---------------------------------------------------------------------
# 2. utilization bin-packing
# ---------------------------------------------------------------------

def test_acceptance_2_utilization_bins(capsys):
    with criterion(capsys, 2, "per-mobile utilization quantization", 10.0):
        mobiles = _mobiles_only(build_reference_topology())
        sources = [m.node_id for m in mobiles.nodes]
        for workload, target in ((400.0, 0.80), (700.0, 14 / 15),
                                 (800.0, 8 / 15)):
            count = 8 * int(1500 // workload)
            tasks = demands_from_drr(workload, 0.6, count, sources)
            sol = solve_placement(PlacementProblem(mobiles, tasks))
            utils = [sol.workload_mips[m] / 1500.0 for m in sources]
            assert max(utils) - min(utils) < 1e-12   # perfectly balanced
            # capacity forces the even split, so the exact rational lands;
            # the rounded published figures (80/93.33/53.33%) sit within 0.5%
            assert utils[0] == pytest.approx(target, abs=1e-9)
            assert abs(utils[0] - round(target, 4)) <= 5e-3


# ---------------------------------------------------------------------
# 3. full sweep envelope
# ---------------------------------------------------------------------

def test_acceptance_3_sweep_envelope(capsys):
    with criterion(capsys, 3, "105-cell sweep: monotone in flow ratio, "
                              "central cloud idle at 0.6", 600.0) as note:
        drrs = [0.002, 0.02, 0.04, 0.06, 0.2, 0.4, 0.6]
        workloads = [100.0 * k for k in range(1, 16)]
        rows = sweep(drrs, workloads, task_count=50)
        assert len(rows) == len(drrs) * len(workloads)
        # every cell either solves or carries an explicit infeasibility flag
        assert all(r["status"] in ("optimal", "infeasible") for r in rows)

        by_cell = {(r["drr"], r["workload_mips"]): r for r in rows}
        for w in workloads:
            series = [by_cell[(d, w)] for d in drrs]
            powers = [r["total_power_w"] for r in series
                      if r["status"] == "optimal"]
            assert all(a <= b + 1e-9 for a, b in zip(powers, powers[1:])), \
                f"total power not nondecreasing in DRR at W={w}"
        for w in workloads:
            r = by_cell[(0.6, w)]
            assert r["status"] == "optimal"
            assert r["mips_ccloud"] == 0.0
        solved = sum(r["status"] == "optimal" for r in rows)
        note["text"] = f"{solved}/{len(rows)} cells optimal"


# ---------------------------------------------------------------------
# 4. allocator constraint suite + oracle equality
# ---------------------------------------------------------------------

def test_acceptance_4_allocator_suite(capsys):
    with criterion(capsys, 4, "allocator: constraints hold and "
                              "branch-and-bound matches the oracle", 300.0):
        rng = np.random.default_rng(20260819)
        solved = 0
        attempts = 0
        while solved < 200:
            attempts += 1
            assert attempts <= 400, "instance generator starved"
            problem = _random_problem(rng)
            try:
                fast = solve_branch_and_bound(problem)
            except InfeasibleError:
                continue
            solved += 1

            # assignment structure: each user once, each slot at most once
            index_asg = {
                problem.users.index(u): (problem.ap_ids.index(a),
                                         problem.wavelengths.index(w))
                for u, (a, w) in fast.assignment.items()}
            audit = check_feasibility(problem, index_asg)
            assert audit["feasible"], audit["violations"]

            # floor and backhaul, checked longhand as well
            for u, g in fast.sinr.items():
                assert g >= SINR_FLOOR * (1 - 1e-9)
            for a in problem.ap_ids:
                load = sum(rate for u, rate in fast.rate_bps.items()
                           if fast.assignment[u][0] == a)
                assert load <= 1e10 * (1 + 1e-12)

            # exact oracle: plain enumeration with longhand scoring; the
            # tie-break makes the assignment itself unique
            slow = solve_exhaustive(problem)
            assert fast.objective == pytest.approx(slow.objective, rel=1e-6)
            assert fast.assignment == slow.assignment
        assert solved == 200

        # interchangeable wavelengths: every colour carries wavelength 0's
        # slices, so the solver's symmetry rule is checked against the oracle
        tied = 0
        attempts = 0
        while tied < 100:
            attempts += 1
            assert attempts <= 200, "instance generator starved"
            problem = _same_slices(_random_problem(rng))
            try:
                slow = solve_exhaustive(problem)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError) as err:
                    solve_branch_and_bound(problem)
                assert err.value.report["constraint"] \
                    == exc.report["constraint"]
                continue
            fast = solve_branch_and_bound(problem)
            assert fast.stats["symmetry_classes"] \
                == [list(problem.wavelengths)]
            assert fast.objective == pytest.approx(slow.objective, rel=1e-6)
            assert fast.assignment == slow.assignment
            tied += 1


# ---------------------------------------------------------------------
# 5. big-M linearization pins the bilinear product
# ---------------------------------------------------------------------

def test_acceptance_5_linearization(capsys):
    with criterion(capsys, 5, "big-M rows force phi = gamma*S at integer "
                              "points", 60.0) as note:
        rng = np.random.default_rng(7)
        checked_points = 0
        while checked_points < 1000:
            problem = _random_problem(rng)
            model = LinearizedModel(problem)
            n_users = len(problem.users)
            slots = [(a, w) for a in range(len(problem.ap_ids))
                     for w in range(len(problem.wavelengths))]
            for _ in range(12):
                picks = rng.choice(len(slots), size=n_users, replace=False)
                assignment = {u: slots[int(s)] for u, s in enumerate(picks)}
                audit = check_feasibility(problem, assignment)
                if not audit["feasible"]:
                    continue
                point = model.point_from_assignment(assignment)
                assert model.check_point(point) == []
                for key, phi in point.items():
                    if key[0] != "phi":
                        continue
                    _, m, w, u, a, b = key
                    lo, hi = model.phi_interval(point, m, w, u, a, b)
                    s = point[("S", m, b, w)]
                    gam = point[("gamma", u, a, w)]
                    assert lo == hi == phi == gam * s   # exact, no tolerance
                checked_points += 1
                if checked_points >= 1000:
                    break
        note["text"] = f"{checked_points} integer-feasible points"


# ---------------------------------------------------------------------
# 6. SINR physics
# ---------------------------------------------------------------------

def test_acceptance_6_sinr_physics(capsys):
    with criterion(capsys, 6, "interference algebra and shot-noise scale",
                   1.0) as note:
        receiver = ReceiverSpec()

        # one interferer: squaring one current is the same in both forms
        rx = [[6e-6, 5e-7, 0.0],
              [5e-7, 6e-6, 0.0],
              [0.0, 0.0, 6e-6]]
        rates = [[5e9] * 3] * 3
        table = _table(rx, rates, wavelengths=("red",))
        asg = {0: (0, "red"), 1: (1, "red")}
        exact = sinr(asg, table, receiver, mode="exact")
        lin = sinr(asg, table, receiver, mode="linearized")
        assert exact[0].interference_a2 == lin[0].interference_a2
        assert exact[0].sinr == lin[0].sinr

        # two equal interferers: (i+i)^2 is exactly twice i^2 + i^2
        rx2 = [[6e-6, 5e-7, 5e-7],
               [5e-7, 6e-6, 0.0],
               [5e-7, 0.0, 6e-6]]
        table2 = _table(rx2, rates, wavelengths=("red",))
        asg2 = {0: (0, "red"), 1: (1, "red"), 2: (2, "red")}
        exact2 = sinr(asg2, table2, receiver, mode="exact")
        lin2 = sinr(asg2, table2, receiver, mode="linearized")
        assert exact2[0].interference_a2 == 2.0 * lin2[0].interference_a2

        # shot noise a few orders below the signal at 1 uW received:
        # ratio = (R P)^2 / (2 e R P B) = R P / (2 e B).  The claimed four
        # orders of magnitude holds at a 125 MHz receiver; at the default
        # 5 GHz front end the margin is ~10^2.4 (shot still negligible).
        p, resp = 1e-6, 0.4
        ratio_125mhz = (resp * p) / (2 * ELECTRON_CHARGE_C * 125e6)
        ratio_default = (resp * p) / (2 * ELECTRON_CHARGE_C * 5e9)
        assert 1e3 <= ratio_125mhz <= 1e5       # 10^4 +/- one order
        assert ratio_default >= 1e2
        note["text"] = (f"signal/shot 10^{math.log10(ratio_125mhz):.2f} at "
                        f"125 MHz, 10^{math.log10(ratio_default):.2f} at 5 GHz")


# ---------------------------------------------------------------------
# 7. channel properties over the full receiver grid
# ---------------------------------------------------------------------

@pytest.mark.slow
def test_acceptance_7_channel_properties(capsys):
    with criterion(capsys, 7, "channel: emitter order, spread/bandwidth "
                              "oracles, FOV monotonicity, 4 GHz coverage",
                   300.0) as note:
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-15)

        # two equal taps 2 ns apart: spread is exactly half the separation,
        # and |H(f)| = |cos(pi f dt)| crosses 1/sqrt(2) at exactly 1/(4 dt)
        taps = np.zeros(201)
        taps[0] = taps[200] = 1e-6
        ir = ImpulseResponse(1e-11, taps, {0: 2e-6})
        assert delay_spread(ir) == pytest.approx(1e-9, rel=1e-12)
        assert bandwidth_3db(ir) == pytest.approx(125e6, rel=1e-3)

        cfg = load_config()   # pipeline profile: 0.5 m surface elements
        room = room_from_config(cfg)
        positions = grid_positions(room)
        assert len(positions) == 128
        by_fov = {}
        for fov in (40.0, 30.0, 20.0):
            receiver = ReceiverSpec(fov_deg=fov)
            recs = compute_channel_records(room, receiver, positions)
            by_fov[fov] = {(r.user, r.ap_id): r for r in recs
                           if r.wavelength == "red"}
        for key, wide in by_fov[40.0].items():
            mid, narrow = by_fov[30.0][key], by_fov[20.0][key]
            assert narrow.rx_power_w <= mid.rx_power_w + 1e-18
            assert mid.rx_power_w <= wide.rx_power_w + 1e-18

        # coverage is reported against the published ~60% figure as a
        # qualitative statement only (the parameters behind that figure are
        # not published); both say a majority of the floor clears 4 GHz.
        frac = fraction_at_least(list(by_fov[40.0].values()), 4e9)
        assert 0.5 <= frac <= 1.0
        note["text"] = f"{frac:.1%} of locations support >= 4 GHz"


# ---------------------------------------------------------------------
# 8. SINR floor and FEC penalty window
# ---------------------------------------------------------------------

def test_acceptance_8_sinr_floor(capsys):
    with criterion(capsys, 8, "14 dB floor everywhere, 10% penalty exactly "
                              "inside [14, 15.6) dB", 1.0):
        # crafted instance landing inside the penalty window (~14.76 dB)
        rx = [[6e-6, 7.6e-7], [7.6e-7, 6e-6]]
        rates = [[5e9, 5e9], [5e9, 5e9]]
        problem = AllocationProblem.from_table(
            _table(rx, rates, wavelengths=("red",)), ReceiverSpec())
        sol = solve_branch_and_bound(problem)
        for u in sol.assignment:
            assert FEC_WINDOW_DB[0] <= sol.sinr_db[u] < FEC_WINDOW_DB[1]
            assert sol.rate_bps[u] == 0.9 * 5e9   # exact tenth off

        # clean instance: above the window, no penalty at all
        rx_clean = [[6e-6, 1e-8], [1e-8, 6e-6]]
        problem = AllocationProblem.from_table(
            _table(rx_clean, rates, wavelengths=("red",)), ReceiverSpec())
        sol = solve_branch_and_bound(problem)
        for u in sol.assignment:
            assert sol.sinr_db[u] >= FEC_WINDOW_DB[1]
            assert sol.rate_bps[u] == 5e9

        # random solved scenarios: floor respected, penalty rule exact
        rng = np.random.default_rng(99)
        seen_window = 0
        for _ in range(30):
            problem = _random_problem(rng)
            try:
                sol = solve_branch_and_bound(problem)
            except InfeasibleError:
                continue
            for u, (a, w) in sol.assignment.items():
                db = sol.sinr_db[u]
                assert db >= 14.0 - 1e-9
                base = float(problem.rate_bps[problem.users.index(u),
                                              problem.ap_ids.index(a)])
                expected = base * 0.9 if db < 15.6 else base
                assert sol.rate_bps[u] == expected
                seen_window += db < 15.6
