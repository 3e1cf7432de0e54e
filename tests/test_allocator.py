"""Assignment MILP + solver tests.

Random instances are built as channel tables with a strong "own" AP per user
and weak cross links, so most draws are feasible at the 14 dB floor; draws
that turn out infeasible must be reported infeasible by *both* solvers.
"""

import math

import numpy as np
import pytest

from owcfog.allocator import (
    AllocationProblem,
    _solution_from_indices,
    solve_branch_and_bound,
)
from owcfog.audit import (
    LinearizedModel,
    check_feasibility,
    electrical_signal_power,
    shot_noise,
    solve_exhaustive,
)
from owcfog.channel import ChannelRecord, ReceiverSpec
from owcfog.errors import ConfigError, InfeasibleError, ResourceLimitError
from owcfog.signal_model import (
    ChannelTable,
    linearized_gammas,
    preamp_noise,
)


def _rec(u, a, w, p, rate=5e9):
    return ChannelRecord(user=u, user_x=float(u), user_y=0.0, ap_id=a,
                         wavelength=w, h=p, rx_power_w=p, delay_spread_s=0.0,
                         bw_3db_hz=rate, rate_bps=rate)


def _problem(rx, rates=None, wavelengths=("red", "yellow", "green", "blue")):
    """rx[u][a] -> optical power used for every wavelength of that pair."""
    n_u, n_a = len(rx), len(rx[0])
    rates = rates or [[5e9] * n_a for _ in range(n_u)]
    recs = []
    for u in range(n_u):
        for a in range(n_a):
            for w in wavelengths:
                recs.append(_rec(u, a, w, rx[u][a], rates[u][a]))
    table = ChannelTable.from_records(recs)
    return AllocationProblem.from_table(table, ReceiverSpec())


def _random_problem(rng, n_users, n_aps, n_wl=4):
    wl = ("red", "yellow", "green", "blue")[:n_wl]
    recs = []
    for u in range(n_users):
        own = u % n_aps
        for a in range(n_aps):
            p = rng.uniform(6e-6, 1e-5) if a == own else rng.uniform(0, 2e-7)
            rate = rng.choice([3e9, 4e9, 5e9])
            for w in wl:
                # tiny per-wavelength jitter keeps objectives generic
                recs.append(_rec(u, a, w, p * (1 + 1e-3 * rng.random()), rate))
    table = ChannelTable.from_records(recs)
    return AllocationProblem.from_table(table, ReceiverSpec())


def _written_out_sinr(rx, slots, u, receiver=ReceiverSpec()):
    """User u's linearized SINR from received powers rx[u][a][w], term by
    term; ``slots`` lists every user's (AP, wavelength) index pair."""
    a, w = slots[u]
    busy = {b for v, (b, x) in enumerate(slots) if v != u and x == w}
    den = preamp_noise(receiver)
    for b in range(len(rx[u])):
        if b == a:
            continue
        p = rx[u][b][w]
        den += electrical_signal_power(p, receiver.responsivity_a_per_w) \
            if b in busy else shot_noise(p, receiver)
    return electrical_signal_power(rx[u][a][w],
                                   receiver.responsivity_a_per_w) / den


def _indices(p, sol):
    return {p.users.index(u): (p.ap_ids.index(a), p.wavelengths.index(w))
            for u, (a, w) in sol.assignment.items()}


# =====================================================================
# model structure
# =====================================================================

def test_default_beta_dominates_every_gamma():
    p = _problem([[1e-5, 1e-7], [1e-7, 1e-5]])
    beta = LinearizedModel(p).beta
    # gamma can never exceed signal / preamp floor
    assert beta == pytest.approx(10 * float(p.signal_a2.max()) / p.preamp_a2)
    sol = solve_exhaustive(p)
    assert all(g < beta for g in sol.sinr.values())


def test_model_row_counts():
    p = _problem([[1e-5, 1e-7], [1e-7, 1e-5]], wavelengths=("red", "blue"))
    m = LinearizedModel(p)
    U, A, W = 2, 2, 2
    assert len(m.rows_in_family("eq8")) == A * W
    assert len(m.rows_in_family("eq9_10")) == U
    n_phi = U * (U - 1) * A * (A - 1) * W
    for fam in ("eq11", "eq12", "eq13", "eq14"):
        assert len(m.rows_in_family(fam)) == n_phi
    assert len(m.rows_in_family("eq15")) == U * A * W
    assert len(m.rows_in_family("eq16")) == U * A * W
    assert len(m.rows_in_family("eq17")) == A
    phi_vars = [v for v in m.variables() if v[0] == "phi"]
    assert len(phi_vars) == n_phi


def test_model_rejects_bad_beta():
    p = _problem([[1e-5]], wavelengths=("red",))
    with pytest.raises(ConfigError):
        LinearizedModel(p, beta=-1.0)


def test_integer_point_satisfies_all_rows():
    p = _problem([[1e-5, 1e-7], [1e-7, 1e-5]])
    m = LinearizedModel(p)
    point = m.point_from_assignment({0: (0, 0), 1: (1, 0)})  # both on red
    assert m.check_point(point) == []
    with pytest.raises(ConfigError):
        m.point_from_assignment({0: (0, 0), 1: (0, 0)})


def test_phi_forced_to_product_at_integer_points():
    rng = np.random.default_rng(7)
    p = _random_problem(rng, 3, 3)
    m = LinearizedModel(p)
    slots = [(a, w) for a in range(3) for w in range(4)]
    for _ in range(50):
        picks = rng.choice(len(slots), size=3, replace=False)
        asg = {u: slots[picks[u]] for u in range(3)}
        point = m.point_from_assignment(asg)
        for var in m.variables():
            if var[0] != "phi":
                continue
            _, mm, w, u, a, b = var
            lo, hi = m.phi_interval(point, mm, w, u, a, b)
            want = point[("gamma", u, a, w)] * point[("S", mm, b, w)]
            assert lo == hi == want == point[var]


def test_balance_row_reproduces_signal_model_sinr():
    # gamma pinned by the balance equality == SINR written out term by term
    rng = np.random.default_rng(3)
    rx = [[[rng.uniform(5e-6, 1e-5) if a == u else rng.uniform(1e-8, 3e-7)
            for _ in range(4)] for a in range(3)] for u in range(3)]
    recs = [_rec(u, a, w, rx[u][a][w_i]) for u in range(3) for a in range(3)
            for w_i, w in enumerate(("red", "yellow", "green", "blue"))]
    table = ChannelTable.from_records(recs)
    problem = AllocationProblem.from_table(table, ReceiverSpec())
    slots = [(0, 0), (1, 0), (2, 1)]
    m = LinearizedModel(problem)
    point = m.point_from_assignment(dict(enumerate(slots)))
    assert m.check_point(point) == []
    for u, (a, w) in enumerate(slots):
        assert point[("gamma", u, a, w)] == pytest.approx(
            _written_out_sinr(rx, slots, u), rel=1e-12)


# =====================================================================
# solvers
# =====================================================================

def test_exhaustive_counts_twelve_candidates():
    # 2 users on a single 4-colour AP: 4 * 3 ordered choices
    p = _problem([[1e-5], [9e-6]])
    sol = solve_exhaustive(p)
    assert sol.stats["leaves"] == 12
    # single AP: both users share it on different colours
    aps = {ap for ap, _ in sol.assignment.values()}
    wls = [w for _, w in sol.assignment.values()]
    assert aps == {0} and len(set(wls)) == 2


def test_solvers_prefer_interference_free_slots():
    # 2 users, 2 APs: the optimum puts each user on its strong AP and there
    # is no reason to share a wavelength
    p = _problem([[1e-5, 2e-7], [2e-7, 1e-5]])
    for solve in (solve_exhaustive, solve_branch_and_bound):
        sol = solve(p)
        assert sol.assignment[0][0] == 0
        assert sol.assignment[1][0] == 1
        assert all(db >= 14.0 for db in sol.sinr_db.values())


def test_objective_is_sum_of_recomputed_sinrs():
    rng = np.random.default_rng(11)
    p = _random_problem(rng, 4, 3)
    sol = solve_branch_and_bound(p)
    assert sol.objective == pytest.approx(sum(sol.sinr.values()), rel=1e-12)
    # and the per-user values agree with the SINR written out term by term
    rx = [[[math.sqrt(p.signal_a2[u, a, w]) / 0.4 for w in range(4)]
           for a in range(3)] for u in range(4)]
    slots = [_indices(p, sol)[u] for u in range(4)]
    for u, g in sol.sinr.items():
        assert g == pytest.approx(_written_out_sinr(rx, slots, u), rel=1e-9)


def test_kernel_matches_oracle_accumulation_bitwise():
    # the oracle adds preamp first, then foreign APs in ascending order, and
    # sums users left to right; a reordered sum (np.sum) flips low bits and
    # with them the tie-break
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n_users = int(rng.integers(9, 13))
        p = _random_problem(rng, n_users, 8)
        picks = rng.choice(32, size=n_users, replace=False)
        slots = [(int(s) // 4, int(s) % 4) for s in picks]
        want, obj = [], 0.0
        for u, (a, w) in enumerate(slots):
            busy = {b for b, x in slots if x == w}
            denom = p.preamp_a2
            for b in range(8):
                if b == a:
                    continue
                denom += p.signal_a2[u, b, w] if b in busy \
                    else p.shot_a2[u, b, w]
            want.append(p.signal_a2[u, a, w] / denom)
            obj += want[-1]
        got = linearized_gammas(p.signal_a2, p.shot_a2, p.preamp_a2, slots)
        assert got.tolist() == want
        sol = _solution_from_indices(p, dict(enumerate(slots)), {})
        assert list(sol.sinr.values()) == want
        assert sol.objective == obj


def test_fec_derating_applied_between_14_and_15p6():
    # craft a user pinned into the FEC window: raise interference until the
    # SINR lands between the floor and 15.6 dB
    # both users end at ~14.8 dB: above the floor, below the FEC-free point
    p = _problem([[6e-6, 7.6e-7], [7.6e-7, 6e-6]], wavelengths=("red",))
    sol = solve_branch_and_bound(p)
    for u, db in sol.sinr_db.items():
        assert db >= 14.0 - 1e-9
        base = 5e9
        if db < 15.6:
            assert sol.rate_bps[u] == pytest.approx(0.9 * base)
        else:
            assert sol.rate_bps[u] == pytest.approx(base)
    assert any(14.0 <= db < 15.6 for db in sol.sinr_db.values())


@pytest.mark.parametrize("scale", [1 - 5e-13, 10 ** 0.004])
def test_fec_derating_covers_users_admitted_under_the_floor(scale):
    # The solver admits gammas down to floor * (1 - 1e-12); a user admitted
    # just under 14 dB is de-rated like one at 14.04 dB.
    floor = 10.0 ** 1.4
    p = AllocationProblem([0], [0], ["red"], signal_a2=[[[floor * scale]]],
                          shot_a2=[[[0.0]]], rate_bps=[[1e9]], preamp_a2=1.0,
                          sinr_floor=floor)
    for sol in (solve_branch_and_bound(p), solve_exhaustive(p)):
        assert (sol.sinr_db[0] < 14.0) == (scale < 1)
        assert 14.0 - 1e-9 < sol.sinr_db[0] < 14.05
        assert sol.rate_bps[0] == 1e9 * 0.9


def test_infeasible_floor_names_constraint():
    p = _problem([[1e-8, 1e-8], [1e-8, 1e-8]])  # hopelessly weak signals
    for solve in (solve_exhaustive, solve_branch_and_bound):
        with pytest.raises(InfeasibleError) as e:
            solve(p)
        assert e.value.report["constraint"] == "sinr_floor"


def test_infeasible_backhaul_names_constraint():
    # one AP, two users, 6 Gbit/s each against a 10 Gbit/s ONU
    p = _problem([[1e-5], [1e-5]], rates=[[6e9], [6e9]])
    for solve in (solve_exhaustive, solve_branch_and_bound):
        with pytest.raises(InfeasibleError) as e:
            solve(p)
        assert e.value.report["constraint"] == "onu_capacity"


def test_backhaul_forces_spreading():
    # two strong users on AP0 would exceed the ONU; one must move to AP1
    p = _problem([[1e-5, 6e-6], [1e-5, 6e-6]], rates=[[6e9, 6e9], [6e9, 6e9]])
    sol = solve_branch_and_bound(p)
    assert {ap for ap, _ in sol.assignment.values()} == {0, 1}
    report = check_feasibility(
        p, {0: (0, 0), 1: (0, 1)})
    assert not report["feasible"]
    assert report["violations"][0]["constraint"] == "onu_capacity"


def test_check_feasibility_reports_floor_user():
    p = _problem([[1e-5, 1e-8], [1e-7, 1e-5]])
    report = check_feasibility(p, {0: (1, 0), 1: (1, 1)})  # user 0 on weak AP
    assert not report["feasible"]
    kinds = {v["constraint"] for v in report["violations"]}
    assert kinds == {"sinr_floor"}
    good = check_feasibility(p, {0: (0, 0), 1: (1, 0)})
    assert good["feasible"] and good["violations"] == []


def test_check_feasibility_flags_double_booking_and_missing_user():
    p = _problem([[1e-5, 1e-7], [1e-7, 1e-5]])
    report = check_feasibility(p, {0: (0, 0), 1: (0, 0)})
    assert {v["constraint"] for v in report["violations"]} == {"slot_once",
                                                               "user_once"} \
        or any(v["constraint"] == "slot_once" for v in report["violations"])
    report = check_feasibility(p, {0: (0, 0)})
    assert any(v["constraint"] == "user_once" for v in report["violations"])


def test_enumeration_cap_refuses():
    rng = np.random.default_rng(0)
    p = _random_problem(rng, 4, 4)
    with pytest.raises(ResourceLimitError):
        solve_exhaustive(p, enumeration_cap=10)


def test_more_users_than_slots_is_infeasible():
    p = _problem([[1e-5], [1e-5], [1e-5]], wavelengths=("red", "blue"))
    with pytest.raises(InfeasibleError):
        solve_branch_and_bound(p)
    with pytest.raises(InfeasibleError):
        solve_exhaustive(p)


def test_branch_and_bound_matches_exhaustive_small_sample():
    rng = np.random.default_rng(42)
    solved = 0
    for trial in range(40):
        n_users = int(rng.integers(1, 5))
        n_aps = int(rng.integers(max(1, (n_users + 3) // 4), 5))
        p = _random_problem(rng, n_users, n_aps)
        try:
            ex = solve_exhaustive(p)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_branch_and_bound(p)
            continue
        bb = solve_branch_and_bound(p)
        assert bb.assignment == ex.assignment
        assert bb.objective == pytest.approx(ex.objective, rel=1e-9)
        solved += 1
    assert solved >= 25  # the generator must mostly produce feasible draws


def test_near_floor_instances_match_exhaustive():
    # four users fill both colours of two APs, so everyone hears a foreign
    # AP; strong cross links push many optima to within 2% of the floor,
    # where an over-eager floor cut on a partial assignment would show
    rng = np.random.default_rng(1)
    near = 0
    for _ in range(1000):
        recs = []
        for u in range(4):
            for a in range(2):
                p = rng.uniform(6e-6, 1e-5) if a == u % 2 \
                    else rng.uniform(0, 1.5e-6)
                for w in ("red", "blue"):
                    recs.append(_rec(u, a, w, p * (1 + 1e-3 * rng.random())))
        p = AllocationProblem.from_table(ChannelTable.from_records(recs),
                                         ReceiverSpec())
        try:
            ex = solve_exhaustive(p)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_branch_and_bound(p)
            continue
        assert solve_branch_and_bound(p).assignment == ex.assignment
        near += min(ex.sinr.values()) < 1.02 * p.sinr_floor
    assert near >= 10


def test_user_permutation_permutes_solution():
    rng = np.random.default_rng(5)
    p = _random_problem(rng, 3, 3)
    base = solve_branch_and_bound(p)
    # swap users 0 and 2 everywhere
    perm = [2, 1, 0]
    q = AllocationProblem(
        users=list(p.users), ap_ids=list(p.ap_ids),
        wavelengths=list(p.wavelengths),
        signal_a2=p.signal_a2[perm], shot_a2=p.shot_a2[perm],
        rate_bps=p.rate_bps[perm], preamp_a2=p.preamp_a2)
    swapped = solve_branch_and_bound(q)
    assert swapped.assignment[0] == base.assignment[2]
    assert swapped.assignment[2] == base.assignment[0]
    assert swapped.objective == pytest.approx(base.objective, rel=1e-12)


def test_time_limit_returns_incumbent_with_gap():
    rng = np.random.default_rng(1)
    p = _random_problem(rng, 6, 6)
    sol = solve_branch_and_bound(p, time_limit_s=1e-4)
    if not sol.stats["complete"]:
        assert sol.stats["gap"] >= 0.0
        assert sol.objective > 0.0
        assert check_feasibility(p, _indices(p, sol))["feasible"]
    # and with no limit the same instance completes
    full = solve_branch_and_bound(p)
    assert full.stats["complete"] and full.stats["gap"] == 0.0


def test_expired_time_limit_stops_at_first_check():
    # a zero budget expires at the first clock check (node 256), so the
    # incumbent is the same on every machine
    rng = np.random.default_rng(1)
    p = _random_problem(rng, 10, 8)
    sol = solve_branch_and_bound(p, time_limit_s=0.0)
    assert not sol.stats["complete"]
    assert sol.stats["nodes"] == 256
    assert sol.stats["gap"] > 0.0
    assert check_feasibility(p, _indices(p, sol))["feasible"]
    full = solve_branch_and_bound(p)
    assert full.objective >= sol.objective
    assert (full.objective - sol.objective) / full.objective \
        <= sol.stats["gap"]


# =====================================================================
# wavelength symmetry
# =====================================================================

def _with_slices(p, pattern):
    """Copy of ``p`` whose wavelength w carries slice ``pattern[w]``."""
    return AllocationProblem(
        list(p.users), list(p.ap_ids), list(p.wavelengths),
        p.signal_a2[..., pattern], p.shot_a2[..., pattern], p.rate_bps,
        p.preamp_a2)


def test_symmetry_classes_reported():
    rng = np.random.default_rng(3)
    p = _random_problem(rng, 3, 2)
    # per-wavelength jitter: no two colours are interchangeable
    assert solve_branch_and_bound(p).stats["symmetry_classes"] == [
        ["red"], ["yellow"], ["green"], ["blue"]]
    same = _with_slices(p, [2, 2, 2, 2])
    assert solve_branch_and_bound(same).stats["symmetry_classes"] == [
        ["red", "yellow", "green", "blue"]]


def test_two_symmetry_classes_match_exhaustive():
    rng = np.random.default_rng(17)
    solved = 0
    for _ in range(30):
        n_users = int(rng.integers(2, 5))
        n_aps = int(rng.integers(1, 4))
        p = _with_slices(_random_problem(rng, n_users, n_aps), [0, 0, 3, 3])
        try:
            ex = solve_exhaustive(p)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError) as err:
                solve_branch_and_bound(p)
            assert err.value.report["constraint"] == exc.report["constraint"]
            continue
        bb = solve_branch_and_bound(p)
        assert bb.stats["symmetry_classes"] == [["red", "yellow"],
                                                ["green", "blue"]]
        assert bb.assignment == ex.assignment
        assert bb.objective == ex.objective
        solved += 1
    assert solved >= 20


def test_one_ulp_difference_lifts_the_restriction():
    rng = np.random.default_rng(23)
    p = _with_slices(_random_problem(rng, 4, 2), [0, 0, 0, 0])
    signal = p.signal_a2.copy()
    signal[0, 0, 3] = np.nextafter(signal[0, 0, 3], np.inf)
    q = AllocationProblem(list(p.users), list(p.ap_ids), list(p.wavelengths),
                          signal, p.shot_a2, p.rate_bps, p.preamp_a2)
    tied = solve_branch_and_bound(p)
    near = solve_branch_and_bound(q)
    assert near.stats["symmetry_classes"] == [["red", "yellow", "green"],
                                              ["blue"]]
    # blue may now be opened before green, so the search grows
    assert near.stats["nodes"] > tied.stats["nodes"]
    assert near.assignment == solve_exhaustive(q).assignment
    assert tied.assignment == solve_exhaustive(p).assignment
