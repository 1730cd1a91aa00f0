"""Placement, channel assignment, and communication-graph derivation."""

import pytest

from meshsim.config import parse_config
from meshsim.topology import (
    BuildError,
    build_chain,
    build_mesh8,
    build_random,
    build_topology,
    resolve_flows,
)


def test_chain_positions_and_gateway():
    topo = build_chain(2, 2, "orthogonal")
    assert [(n.x, n.y) for n in topo.nodes] == [(0.0, 0.0), (150.0, 0.0)]
    assert topo.gateway == 1
    assert topo.comm_adjacency[0] == {1}


def test_chain_range_geometry():
    topo = build_chain(6, 2, "orthogonal")
    # 450 m apart: beyond talk range, inside interference range
    assert topo.distance(0, 3) == pytest.approx(450.0)
    assert 3 not in topo.comm_adjacency[0]
    assert 3 in topo.interference_candidates[0]
    assert 4 not in topo.interference_candidates[0]   # 600 m is out of earshot
    for i in range(5):
        assert topo.comm_adjacency[i] >= {i + 1} - {i}
        assert i + 1 in topo.comm_adjacency[i]


def test_chain_link_channels_follow_cycle():
    topo = build_chain(5, 2, "orthogonal")
    assert [topo.shared_channels(i, i + 1)[0] for i in range(4)] == [1, 6, 11, 1]
    over = build_chain(5, 2, "overlapping")
    assert [over.shared_channels(i, i + 1)[0] for i in range(4)] == [1, 3, 5, 1]


def test_chain_eleven_nodes_fits_standard_area():
    topo = build_chain(11, 2, "orthogonal")
    assert topo.width == 1500.0
    assert topo.nodes[-1].x == 1500.0
    long = build_chain(14, 2, "orthogonal")
    assert long.width == pytest.approx(150.0 * 13)


def test_chain_explicit_plan():
    topo = build_chain(3, 2, "3,6;6,9;9,3")
    assert topo.shared_channels(0, 1)[0] == 6
    assert topo.shared_channels(1, 2)[0] == 9
    with pytest.raises(BuildError):
        build_chain(3, 2, "1,6;6,1")             # wrong group count
    with pytest.raises(BuildError):
        build_chain(3, 1, "1;2;3")               # adjacent nodes share nothing
    with pytest.raises(BuildError):
        build_chain(3, 1, "orthogonal")          # named plans need two radios


def test_random_topology_deterministic_and_connected():
    a = build_random(20, seed=7, radios_per_node=2, channel_plan="orthogonal")
    b = build_random(20, seed=7, radios_per_node=2, channel_plan="orthogonal")
    assert [(n.x, n.y, n.channels) for n in a.nodes] == \
           [(n.x, n.y, n.channels) for n in b.nodes]
    assert a.is_connected()
    assert a.gateway == 0
    for n in a.nodes:
        assert 0.0 <= n.x <= 1500.0 and 0.0 <= n.y <= 800.0


def test_random_named_plan_always_shares_a_channel():
    topo = build_random(20, seed=3, radios_per_node=2, channel_plan="overlapping")
    ids = topo.node_ids()
    for u in ids:
        for v in ids:
            if u < v:
                assert topo.shared_channels(u, v)


def test_random_impossible_density_fails_with_diagnostic():
    # two single-radio nodes on disjoint channels can never form a link
    with pytest.raises(BuildError) as exc:
        build_random(2, seed=1, radios_per_node=1, channel_plan="1;6")
    assert "density" in str(exc.value)


def test_mesh8_paths_and_isolation():
    topo = build_mesh8()
    assert topo.gateway == 4
    assert topo.comm_adjacency[5] == {4, 7}
    assert topo.comm_adjacency[4] == {5, 6}
    assert topo.comm_adjacency[7] == {5, 6}
    assert topo.comm_adjacency[6] == {7, 4}
    assert topo.shared_channels(5, 4)[0] == 1
    assert topo.shared_channels(5, 7)[0] == 7
    assert topo.shared_channels(7, 6)[0] == 11
    assert topo.shared_channels(6, 4)[0] == 6
    # every detour channel sits at least 5 away from the direct link's channel
    for ch in (7, 11, 6):
        assert abs(ch - 1) >= 5
    # the bystander cluster neither talks to nor interferes with the square
    for bystander in (1, 2, 3, 8):
        assert topo.comm_adjacency[bystander] <= {1, 2, 3, 8}
        for mesh_node in (4, 5, 6, 7):
            assert topo.distance(bystander, mesh_node) > 550.0


def test_flow_resolution():
    cfg = parse_config("topology = chain(6)")
    topo = build_topology(cfg)
    assert resolve_flows(cfg, topo) == ((0, 5),)
    cfg = parse_config("topology = mesh8")
    assert resolve_flows(cfg, build_topology(cfg)) == ((5, 4),)
    cfg = parse_config("topology = random(20, 4)")
    topo = build_topology(cfg)
    assert resolve_flows(cfg, topo) == ((17, 0), (18, 0), (19, 0))
    cfg = parse_config("topology = chain(4)\nflows = 1>3, 2>3")
    topo = build_topology(cfg)
    assert resolve_flows(cfg, topo) == ((1, 3), (2, 3))
    cfg = parse_config("topology = chain(4)\nflows = 1>9")
    with pytest.raises(BuildError):
        resolve_flows(cfg, build_topology(cfg))
