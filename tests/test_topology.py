"""Topology catalogue and route checks."""

from dataclasses import replace

import pytest

from owcfog.errors import ConfigError
from owcfog.placement import (
    PlacementProblem,
    demands_from_drr,
    solve_branch_and_bound,
)
from owcfog.room import WAVELENGTHS
from owcfog.topology import (
    REFERENCE_DEVICES,
    NetworkDevice,
    ProcessingNode,
    TopologyConfig,
    build_reference_topology,
)


@pytest.fixture()
def topo():
    return build_reference_topology()


def test_reference_nodes_carry_catalogue_values(topo):
    want = {
        "ccloud": (144000.0, 0.000796),
        "metrofog": (73440.0, 0.00129),
        "campfog": (35160.0, 0.0027),
        "buildfog": (34200.0, 0.0028),
        "roomfog": (6200.0, 0.003),
    }
    for node_id, (cap, eff) in want.items():
        n = topo.node(node_id)
        assert n.capacity_mips == cap
        assert n.efficiency_w_per_mips == eff
    mobiles = topo.mobiles()
    assert len(mobiles) == 8
    for m in mobiles:
        assert m.capacity_mips == 1500.0
        assert m.efficiency_w_per_mips == 0.004


def test_route_efficiencies_match_catalogue(topo):
    want = {"ccloud": 0.128, "metrofog": 0.0713, "campfog": 0.0475,
            "buildfog": 0.0238, "roomfog": 0.0015}
    for node_id, psi in want.items():
        assert topo.node(node_id).route.efficiency_w_per_mbps == psi
    # default wavelength cycle: red, yellow, green, blue, red, ...
    psis = [m.route.efficiency_w_per_mbps
            for m in topo.mobiles()]
    assert psis[:4] == [0.00222, 0.00195, 0.00177, 0.00177]
    assert psis[4:] == psis[:4]


def test_room_route_is_988_percent_better_than_cloud(topo):
    room = topo.node("roomfog").route.efficiency_w_per_mbps
    cloud = topo.node("ccloud").route.efficiency_w_per_mbps
    assert 1 - room / cloud == pytest.approx(0.9883, abs=5e-4)


def test_route_capacities(topo):
    assert topo.node("roomfog").route.capacity_mbps == 10_000.0
    assert topo.node("buildfog").route.capacity_mbps == 10_000.0
    assert topo.node("campfog").route.capacity_mbps == 10_000.0
    assert topo.node("metrofog").route.capacity_mbps == 200_000.0
    assert topo.node("ccloud").route.capacity_mbps == 200_000.0
    for m in topo.mobiles():
        assert m.route.capacity_mbps == 10_000.0


def test_mobile_route_capped_by_owc_rate():
    t = build_reference_topology(
        mobile_rates_mbps=[3100.0, 4500.0] + [10_000.0] * 6)
    assert t.node("mobile_0").route.capacity_mbps == 3100.0
    assert t.node("mobile_1").route.capacity_mbps == 4500.0
    # rates above the feeding ONU are clamped by it
    t2 = build_reference_topology(mobile_rates_mbps=[12_000.0] * 8)
    assert t2.node("mobile_0").route.capacity_mbps == 10_000.0


def test_one_mobile_unit_per_entry_of_the_given_list():
    assert len(build_reference_topology().mobiles()) == 8
    by_rates = build_reference_topology(mobile_rates_mbps=[100, 200, 300])
    assert [(m.wavelength, m.route.capacity_mbps)
            for m in by_rates.mobiles()] == [("red", 100.0), ("yellow", 200.0),
                                             ("green", 300.0)]
    by_colours = build_reference_topology(mobile_wavelengths=["blue"] * 2)
    assert [m.route.capacity_mbps for m in by_colours.mobiles()] == \
        [10_000.0, 10_000.0]
    for kwargs in ({"mobile_wavelengths": []}, {"mobile_rates_mbps": []}):
        with pytest.raises(ConfigError, match="must not be empty"):
            build_reference_topology(**kwargs)
    with pytest.raises(ConfigError, match="one rate per entry"):
        build_reference_topology(["red", "blue"], [100, 200, 300])


def test_missing_wavelength_tag_rejected():
    with pytest.raises(ConfigError):
        build_reference_topology(mobile_wavelengths=["red"] * 7 + ["uv"])
    with pytest.raises(ConfigError):
        build_reference_topology(mobile_wavelengths=["red"] * 7 + [None])


def test_derive_route_efficiency_onu_anchor(topo):
    # the one chain pinned down by the catalogue: a lone ONU feeding the room
    onu = next(d for d in REFERENCE_DEVICES if d.name == "ONU")
    assert onu.efficiency_w_per_mbps == pytest.approx(0.0015)
    assert topo.node("roomfog").route.efficiency_w_per_mbps == \
        pytest.approx(onu.efficiency_w_per_mbps)


def _strictly_increasing(values):
    return all(a < b for a, b in zip(values, values[1:]))


def test_orderings_hold(topo):
    # the catalogue's claims the placement model trades against each other:
    # processing efficiency improves towards the cloud, networking
    # efficiency towards the room
    fixed = {n.kind: n for n in topo.nodes if not n.is_mobile}
    mobiles = topo.mobiles()
    assert {m.wavelength for m in mobiles} == set(WAVELENGTHS)
    w_per_mips = [fixed[k].efficiency_w_per_mips for k in
                  ("CCloud", "MetroFog", "CampFog", "BuildFog", "RoomFog")]
    assert _strictly_increasing(
        w_per_mips + [min(m.efficiency_w_per_mips for m in mobiles)])
    mobile_w_per_mbps = [m.route.efficiency_w_per_mbps for m in mobiles]
    assert _strictly_increasing(
        [fixed["RoomFog"].route.efficiency_w_per_mbps,
         min(mobile_w_per_mbps)])
    assert _strictly_increasing(
        [max(mobile_w_per_mbps)]
        + [fixed[k].route.efficiency_w_per_mbps for k in
           ("BuildFog", "CampFog", "MetroFog", "CCloud")])
    by_colour = {}
    for m in mobiles:
        by_colour.setdefault(m.wavelength, set()).add(
            m.route.efficiency_w_per_mbps)
    assert by_colour["green"] == by_colour["blue"]
    for n in topo.nodes:
        assert 0 < n.route.capacity_mbps < float("inf"), n.node_id


def test_topology_structural_validation(topo):
    with pytest.raises(ConfigError):
        NetworkDevice("x", "y", -1.0, 10.0)
    with pytest.raises(ConfigError):
        ProcessingNode("roomfog", "RoomFog", 100.0, 0.001,
                       topo.node("roomfog").route, wavelength="red")
    with pytest.raises(ConfigError):
        TopologyConfig(topo.nodes + topo.nodes[-1:])  # a duplicate node id
    with pytest.raises(ConfigError):
        twin = replace(topo.node("roomfog"), node_id="roomfog_2")
        TopologyConfig(topo.nodes + (twin,))  # two room servers


@pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
@pytest.mark.parametrize("field", ["capacity_mbps", "efficiency_w_per_mbps",
                                   "capacity_mips", "efficiency_w_per_mips"])
def test_capacity_and_efficiency_must_be_finite_and_positive(topo, field,
                                                             value):
    room = topo.node("roomfog")
    built = room.route if field.endswith("_mbps") else room
    with pytest.raises(ConfigError, match="must be finite and > 0"):
        replace(built, **{field: value})


@pytest.mark.parametrize("node_id,field", [
    # an unbounded room server made the search die in an OverflowError
    ("roomfog", "capacity_mips"),
    # an infinitely costly cloud server made every bound infinite, and the
    # search ran without end
    ("ccloud", "efficiency_w_per_mips"),
])
def test_unbounded_node_never_reaches_the_solver(topo, node_id, field):
    tasks = demands_from_drr(500.0, 0.2, 10,
                             [m.node_id for m in topo.mobiles()])
    with pytest.raises(ConfigError, match="must be finite and > 0"):
        nodes = tuple(replace(n, **{field: float("inf")})
                      if n.node_id == node_id else n for n in topo.nodes)
        solve_branch_and_bound(PlacementProblem(TopologyConfig(nodes), tasks),
                               time_limit_s=5.0)
