"""Topology catalogue and route checks."""

from dataclasses import replace

import pytest

from owcfog.errors import ConfigError
from owcfog.topology import (
    REFERENCE_DEVICES,
    NetworkDevice,
    ProcessingNode,
    Route,
    TopologyConfig,
    build_reference_topology,
    validate_topology,
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


def test_orderings_hold(topo):
    assert validate_topology(topo) == []


def test_validator_catches_broken_ordering(topo):
    nodes = []
    for n in topo.nodes:
        if n.node_id == "ccloud":
            # make the cloud server *less* efficient than the metro one
            nodes.append(ProcessingNode(n.node_id, n.kind, n.capacity_mips,
                                        0.005, n.route))
        else:
            nodes.append(n)
    broken = TopologyConfig(tuple(nodes))
    assert any("processing efficiency" in p for p in validate_topology(broken))


def test_validator_reports_unbounded_route_capacity(topo):
    unbounded = replace(topo.node("metrofog").route,
                        capacity_mbps=float("inf"))
    nodes = tuple(replace(n, route=unbounded) if n.node_id == "metrofog"
                  else n for n in topo.nodes)
    assert validate_topology(TopologyConfig(nodes)) == [
        "route to metrofog: capacity not finite and positive"]


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
    for capacity, efficiency in ((0.0, 0.0015), (-1.0, 0.0015),
                                 (float("nan"), 0.0015), (10_000.0, 0.0),
                                 (10_000.0, -0.0015),
                                 (10_000.0, float("nan"))):
        with pytest.raises(ConfigError, match="must be > 0"):
            Route(("ONU",), capacity, efficiency)
