"""Placement, channel assignment, and communication-graph derivation."""

import collections
import dataclasses
import hashlib
import math
import random

import pytest

from meshsim import topology
from meshsim.config import ConfigError, ScenarioConfig, TopologySpec, parse_config
from meshsim.topology import (
    INTERFERENCE_RANGE_M,
    TX_RANGE_M,
    Node,
    Topology,
    build_chain,
    build_mesh8,
    build_random,
    build_topology,
    resolve_flows,
)


def shared_channels(topo, u, v):
    return sorted(set(topo.by_id[u].channels) & set(topo.by_id[v].channels))


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
    assert 3 in topo.hears[0]
    assert 4 not in topo.hears[0]   # 600 m is out of earshot
    for i in range(5):
        assert topo.comm_adjacency[i] >= {i + 1} - {i}
        assert i + 1 in topo.comm_adjacency[i]


def test_chain_link_channels_follow_cycle():
    topo = build_chain(5, 2, "orthogonal")
    assert [shared_channels(topo, i, i + 1)[0] for i in range(4)] == [1, 6, 11, 1]
    over = build_chain(5, 2, "overlapping")
    assert [shared_channels(over, i, i + 1)[0] for i in range(4)] == [1, 3, 5, 1]


def test_chain_eleven_nodes_fits_standard_area():
    topo = build_chain(11, 2, "orthogonal")
    assert topo.nodes[-1].x == 1500.0
    long = build_chain(14, 2, "orthogonal")
    assert long.nodes[-1].x == pytest.approx(150.0 * 13)


def test_chain_explicit_plan():
    topo = build_chain(3, 2, "3,6;6,9;9,3")
    assert shared_channels(topo, 0, 1)[0] == 6
    assert shared_channels(topo, 1, 2)[0] == 9
    with pytest.raises(ConfigError):
        build_chain(3, 2, "1,6;6,1")             # wrong group count
    with pytest.raises(ConfigError):
        build_chain(3, 1, "1;2;3")               # adjacent nodes share nothing
    with pytest.raises(ConfigError):
        build_chain(3, 1, "orthogonal")          # named plans need two radios


def test_named_plans_fill_extra_radios_from_the_band():
    # past the 3-channel cycle, radios take the lowest channels not yet used
    assert build_random(6, 1, 6, "orthogonal").by_id[4].channels == (6, 11, 1, 2, 3, 4)
    full = build_random(3, 1, 11, "overlapping")
    assert [n.channels for n in full.nodes] == [
        (1, 3, 5, 2, 4, 6, 7, 8, 9, 10, 11),
        (3, 5, 1, 2, 4, 6, 7, 8, 9, 10, 11),
        (5, 1, 3, 2, 4, 6, 7, 8, 9, 10, 11)]
    over = build_chain(4, 5, "overlapping")
    assert [n.channels for n in over.nodes] == [
        (1, 3, 5, 2, 4), (1, 3, 5, 2, 4), (3, 5, 1, 2, 4), (5, 1, 3, 2, 4)]
    orth = build_chain(4, 4, "orthogonal")
    assert [n.channels for n in orth.nodes] == [
        (1, 6, 11, 2), (1, 6, 11, 2), (6, 11, 1, 2), (11, 1, 6, 2)]


def link_rule_channels(plan, i, links, radios):
    """A named plan's channels for node i, by the link-by-link rule: the
    channel of each of its chain links (back, then forward), then the plan's
    cycle from position i, then the band's lowest channels, each once, up to
    radios.  A random-layout node has no links."""
    cycle = (1, 3, 5) if plan == "overlapping" else (1, 6, 11)
    order = [cycle[link % 3] for link in links]
    order += [cycle[(i + k) % 3] for k in range(3)] + list(range(1, 12))
    return tuple(dict.fromkeys(order))[:radios]


@pytest.mark.parametrize("plan", ["orthogonal", "overlapping", "pcl"])
def test_named_plans_match_the_link_by_link_rule(plan):
    for n in range(2, 21):
        for radios in range(1, 12):
            links = [[link for link in (i - 1, i) if 0 <= link < n - 1] for i in range(n)]
            if any(len({link % 3 for link in node}) > radios for node in links):
                with pytest.raises(ConfigError) as exc:
                    build_chain(n, radios, plan)
                assert exc.value.errors == [
                    "named channel plans on a chain need radios_per_node >= 2"]
            else:
                assert [node.channels for node in build_chain(n, radios, plan).nodes] == [
                    link_rule_channels(plan, i, links[i], radios) for i in range(n)]
            if radios == 1:     # one cycle channel per node: no pair shares one
                with pytest.raises(ConfigError, match="channel plan splits them"):
                    build_random(n, 1, radios, plan)
            else:
                assert [node.channels for node in build_random(n, 1, radios, plan).nodes] \
                    == [link_rule_channels(plan, i, [], radios) for i in range(n)]


def test_two_node_chain_builds_on_one_radio():
    topo = build_chain(2, 1, "orthogonal")
    assert [n.channels for n in topo.nodes] == [(1,), (1,)]
    assert topo.comm_adjacency[0] == {1}


def test_random_topology_deterministic_and_connected():
    a = build_random(20, seed=7, radios_per_node=2, channel_plan="orthogonal")
    b = build_random(20, seed=7, radios_per_node=2, channel_plan="orthogonal")
    assert [(n.x, n.y, n.channels) for n in a.nodes] == \
           [(n.x, n.y, n.channels) for n in b.nodes]
    assert topology._connected(a.comm_adjacency)
    assert a.gateway == 0
    for n in a.nodes:
        assert 0.0 <= n.x <= 1500.0 and 0.0 <= n.y <= 800.0


def test_random_named_plan_always_shares_a_channel():
    topo = build_random(20, seed=3, radios_per_node=2, channel_plan="overlapping")
    ids = sorted(topo.by_id)
    for u in ids:
        for v in ids:
            if u < v:
                assert shared_channels(topo, u, v)


def test_random_impossible_density_fails_with_diagnostic():
    # two single-radio nodes on disjoint channels can never form a link
    with pytest.raises(ConfigError) as exc:
        build_random(2, seed=1, radios_per_node=1, channel_plan="1;6")
    assert "channel plan splits them into groups that share no channel" \
        in str(exc.value)


@pytest.mark.parametrize("n, plan", [
    (15, "orthogonal"), (15, "overlapping"), (15, "pcl"),   # one radio each
    (3, "1;1;6"),
])
def test_random_blames_a_channel_plan_that_splits_the_nodes(n, plan):
    with pytest.raises(ConfigError, match="channel plan splits them into groups "
                                          "that share no channel"):
        build_random(n, seed=1, radios_per_node=1, channel_plan=plan)


def test_random_blames_density_when_the_channel_plan_connects():
    # 0 and 2 share no channel but both share one with 1, so the plan allows
    # a connected graph; seed 18 draws none, uniform or anchored
    with pytest.raises(ConfigError, match="density too low"):
        build_random(3, 18, radios_per_node=2, channel_plan="1,2;1,6;6,11")


def test_mesh8_paths_and_isolation():
    topo = build_mesh8()
    assert topo.gateway == 4
    assert topo.comm_adjacency[5] == {4, 7}
    assert topo.comm_adjacency[4] == {5, 6}
    assert topo.comm_adjacency[7] == {5, 6}
    assert topo.comm_adjacency[6] == {7, 4}
    assert shared_channels(topo, 5, 4)[0] == 1
    assert shared_channels(topo, 5, 7)[0] == 7
    assert shared_channels(topo, 7, 6)[0] == 11
    assert shared_channels(topo, 6, 4)[0] == 6
    # every detour channel sits at least 5 away from the direct link's channel
    for ch in (7, 11, 6):
        assert abs(ch - 1) >= 5
    # the bystander cluster neither talks to nor interferes with the square
    for bystander in (1, 2, 3, 8):
        assert topo.comm_adjacency[bystander] <= {1, 2, 3, 8}
        for mesh_node in (4, 5, 6, 7):
            assert topo.distance(bystander, mesh_node) > 550.0
    # pcl starts from mesh8's own channels and retunes them as it runs
    cfg = parse_config("topology = mesh8\nchannel_plan = pcl")
    assert build_topology(cfg).comm_adjacency == topo.comm_adjacency


@pytest.mark.parametrize("keys", [
    "radios_per_node = 1", "radios_per_node = 5", "channel_plan = overlapping",
    "channel_plan = " + ";".join(["1,6"] * 8)])
def test_mesh8_rejects_keys_its_fixed_channels_ignore(keys):
    with pytest.raises(ConfigError, match="mesh8 has two fixed channels per node"):
        build_topology(parse_config("topology = mesh8\n" + keys))


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
    with pytest.raises(ConfigError):
        resolve_flows(cfg, build_topology(cfg))


@pytest.mark.parametrize("build, message", [
    (lambda: Topology([Node(0, 0.0, 0.0, (1,))], gateway=5), "gateway 5 is not a node"),
    (lambda: Topology([Node(0, 2000.0, 0.0, (1,))], gateway=0),
     "node 0 at (2000.0, 0.0) outside 1500.0 x 800.0 area"),
    (lambda: build_random(1, 1, 2, "orthogonal"), "random topology needs at least 2 nodes"),
    (lambda: build_topology(dataclasses.replace(ScenarioConfig(),
                                                topology=TopologySpec("ring", 3))),
     "unknown topology kind 'ring'"),
], ids=["gateway-not-a-node", "node-outside-area", "random-one-node", "unknown-kind"])
def test_inputs_no_builder_passes_are_config_errors(build, message):
    with pytest.raises(ConfigError) as exc:
        build()
    assert exc.value.errors == [message]


def brute_force_tables(nodes):
    """Both neighbour tables from a scan of every ordered pair: the
    communication graph, and each node with every sender within 550 m."""
    comm = {a.node_id: set() for a in nodes}
    hears = {a.node_id: {a.node_id} for a in nodes}
    for a in nodes:
        for b in nodes:
            if a is b:
                continue
            d = math.hypot(a.x - b.x, a.y - b.y)
            if d <= TX_RANGE_M and set(a.channels) & set(b.channels):
                comm[a.node_id].add(b.node_id)
            if d <= INTERFERENCE_RANGE_M:
                hears[a.node_id].add(b.node_id)
    return comm, hears


def assert_tables_match_brute_force(topo):
    comm, hears = brute_force_tables(topo.nodes)
    assert topo.comm_adjacency == comm
    assert topo.hears == hears


@pytest.mark.parametrize("n", [20, 40, 100])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_neighbour_tables_match_brute_force_on_random_layouts(n, seed):
    assert_tables_match_brute_force(build_random(n, seed, 2, "orthogonal"))
    # one or two radios on any channels, so some pairs in range share none
    rng = random.Random(seed)
    nodes = [Node(i, rng.uniform(0.0, 1500.0), rng.uniform(0.0, 800.0),
                  tuple(rng.sample(range(1, 12), rng.randint(1, 2))))
             for i in range(n)]
    assert_tables_match_brute_force(Topology(nodes, gateway=0))


def test_neighbour_tables_at_the_range_boundaries():
    beyond = math.nextafter(INTERFERENCE_RANGE_M, math.inf)
    assert math.hypot(150.0, 200.0) == TX_RANGE_M
    assert math.hypot(330.0, 440.0) == INTERFERENCE_RANGE_M
    nodes = [
        Node(0, 0.0, 0.0, (1, 6)),
        Node(1, 250.0, 0.0, (6, 11)),        # 250 m along x, sharing 6
        Node(2, 150.0, 200.0, (2, 9)),       # 250 m diagonally, sharing none
        Node(3, 550.0, 0.0, (1, 6)),         # 550 m along x
        Node(4, 330.0, 440.0, (1, 6)),       # 550 m diagonally
        Node(5, beyond, 0.0, (1, 6)),        # just beyond 550 m along x
        Node(6, 0.0, beyond, (1, 6)),        # just beyond 550 m along y
        Node(7, 1100.0, 700.0, (1, 6)),
        Node(8, 550.0, 700.0, (1, 6)),       # |dx| = 550, dy = 0, from node 7
        Node(9, beyond, 400.0, (1, 6)),
        Node(10, 0.0, 400.0, (1, 6)),        # just beyond, from node 9
        Node(11, 1400.0, beyond, (1, 6)),
        Node(12, 1400.0, 0.0, (1, 6)),       # just beyond along y, from node 11
    ]
    topo = Topology(nodes, gateway=0)
    assert_tables_match_brute_force(topo)
    comm, hears = topo.comm_adjacency, topo.hears
    assert 1 in comm[0] and 2 not in comm[0] and 2 in hears[0]
    assert 3 in hears[0] and 4 in hears[0] and 3 not in comm[0]
    assert 5 not in hears[0] and 6 not in hears[0]
    assert 8 in hears[7] and 10 not in hears[9] and 12 not in hears[11]


class BuildSpy:
    """Counts the sweeps by reach (placements judged at TX_RANGE_M, hearing
    sets built at INTERFERENCE_RANGE_M) and the Node objects made while
    building."""

    def __init__(self, monkeypatch):
        self.passes = collections.Counter()
        self.nodes_made = 0
        real_within = topology._within
        real_node = topology.Node

        def within(by_x, ids, reach, *rest, **kwargs):
            self.passes[reach] += 1
            return real_within(by_x, ids, reach, *rest, **kwargs)

        def node(*args, **kwargs):
            self.nodes_made += 1
            return real_node(*args, **kwargs)

        monkeypatch.setattr(topology, "_within", within)
        monkeypatch.setattr(topology, "Node", node)


@pytest.mark.parametrize("n, seed, placements", [
    (20, 1, 101), (20, 2, 101), (20, 3, 101),   # 100 rejected, then anchored
    (40, 2, 6),                                 # the long-airtime layout
    (100, 3, 2),                                # the dense-random layout
])
def test_rejected_placements_build_no_interference_lists(monkeypatch, n, seed, placements):
    spy = BuildSpy(monkeypatch)
    topo = build_random(n, seed, 2, "orthogonal")
    # every placement was judged on its communication graph; only the kept
    # one has nodes and hearing sets, and its graph is handed over, not
    # built again
    assert spy.passes == {TX_RANGE_M: placements, INTERFERENCE_RANGE_M: 1}
    assert spy.nodes_made == n
    assert_tables_match_brute_force(topo)


def full_verdict(points, channel_sets):
    """Whether a placement's communication graph is connected, from a whole
    sweep and a BFS."""
    by_x = sorted((x, y, i) for i, (x, y) in enumerate(points))
    return topology._connected(topology._within(by_x, channel_sets, TX_RANGE_M,
                                                channel_sets))


class VerdictSpy:
    """Checks every placement's verdict against full_verdict, and counts the
    placements and those the sweep rejected early."""

    def __init__(self, monkeypatch):
        self.placements = 0
        self.early = 0
        real_within = topology._within
        real_placed = topology._placed

        def within(*args, **kwargs):
            near = real_within(*args, **kwargs)
            self.early += near is None
            return near

        def placed(points, channels, channel_sets):
            topo = real_placed(points, channels, channel_sets)
            self.placements += 1
            assert (topo is not None) == full_verdict(points, channel_sets)
            return topo

        monkeypatch.setattr(topology, "_within", within)
        monkeypatch.setattr(topology, "_placed", placed)


@pytest.mark.parametrize("n", [12, 20, 40])
@pytest.mark.parametrize("radios", [1, 2])
def test_early_verdict_matches_a_full_sweep(monkeypatch, n, radios):
    spy = VerdictSpy(monkeypatch)
    for seed in range(1, 31):
        try:
            build_random(n, seed, radios, "orthogonal")
        except ConfigError:
            pass        # one radio splits the nodes over three channels
    assert spy.early > 0 and spy.placements > spy.early


def test_a_node_sharing_no_channel_rejects_every_placement_early(monkeypatch):
    spy = VerdictSpy(monkeypatch)
    with pytest.raises(ConfigError, match="channel plan splits them"):
        build_random(12, 1, 1, ";".join(["1"] * 11 + ["6"]))
    # 100 uniform placements and the anchored one; node 11 links to none
    assert spy.placements == spy.early == 101


class PairVisitSpy:
    """Counts the pairs the communication-graph sweeps visit (each node a
    scan looks at, the one that ends it included) and the BFS runs."""

    def __init__(self, monkeypatch):
        self.visits = 0
        self.bfs = 0
        spy = self
        real_within = topology._within
        real_connected = topology._connected

        class Counted(list):
            def __getitem__(self, key):
                for item in list.__getitem__(self, key):
                    spy.visits += 1
                    yield item

        def within(by_x, *rest, **kwargs):
            return real_within(Counted(by_x), *rest, **kwargs)

        def connected(adjacency):
            self.bfs += 1
            return real_connected(adjacency)

        monkeypatch.setattr(topology, "_within", within)
        monkeypatch.setattr(topology, "_connected", connected)


@pytest.mark.parametrize("points, visits, full_visits", [
    # node 2 hears nothing, though link 1-3 passes over it in x: the sweep
    # stops once it has scanned node 2
    ([(0.0, 0.0), (200.0, 0.0), (300.0, 700.0), (400.0, 0.0), (600.0, 0.0),
      (800.0, 0.0), (1000.0, 0.0), (1200.0, 0.0)], 7, 14),
    # two groups 500 m apart: no link crosses the gap, so the sweep stops at
    # node 1, the last before it
    ([(0.0, 0.0), (100.0, 0.0), (600.0, 0.0), (700.0, 0.0), (800.0, 0.0),
      (900.0, 0.0)], 3, 9),
])
def test_sweep_stops_where_the_placement_splits(monkeypatch, points, visits, full_visits):
    channels = [(1, 6)] * len(points)
    channel_sets = {i: set(c) for i, c in enumerate(channels)}
    spy = PairVisitSpy(monkeypatch)
    assert topology._placed(points, channels, channel_sets) is None
    assert (spy.visits, spy.bfs) == (visits, 0)
    spy.visits = 0
    assert not full_verdict(points, channel_sets)
    assert spy.visits == full_visits


def placement_sha256(topo):
    return hashlib.sha256(repr([(n.node_id, n.x.hex(), n.y.hex())
                                for n in topo.nodes]).encode()).hexdigest()


@pytest.mark.parametrize("n, seed, digest", [
    (20, 1, "77af8127ea415d3f89a8c43cf490788aa7eaeeff04436300c1d111bfec3ebdd2"),
    (40, 2, "4d317be089870e78b763e7f287fe7179ec2bb671698ca26b44592275b96421d0"),
    (100, 3, "89d5af65bdab77040b0b7657f0541e9d1e8645269a87ad65161b5be73b9a6e56"),
])
def test_placement_coordinates_are_pinned(n, seed, digest):
    # exact coordinates, so a reordered or extra RNG draw fails here directly;
    # random(20) seed 1 comes from the anchored fallback, the others from a
    # uniform placement after 5 and 1 rejections
    assert placement_sha256(build_random(n, seed, 2, "orthogonal")) == digest


def assert_sets_hold_their_node(topo):
    # a node's own frame on one radio disturbs a reception on its others
    for u, senders in topo.hears.items():
        assert isinstance(senders, frozenset) and u in senders


@pytest.mark.parametrize("nodes", [
    # several nodes at one x, on both sides of each range along y
    [Node(i, 300.0, y, (1, 6)) for i, y in enumerate((0.0, 250.0, 500.0, 550.0, 800.0))],
    # coincident nodes, some sharing no channel
    [Node(0, 700.0, 400.0, (1, 6)), Node(1, 700.0, 400.0, (1, 6)),
     Node(2, 700.0, 400.0, (2, 9)), Node(3, 950.0, 400.0, (6, 11)),
     Node(4, 700.0, 400.0, (11,))],
    # ids not in x order: descending, then interleaved
    [Node(i, 1400.0 - 200.0 * i, 100.0 * (i % 3), (1, 6)) for i in range(8)],
    [Node(i, (i * 7 % 10) * 150.0, 50.0 * (i % 4), ((1, 6, 11)[i % 3],))
     for i in range(10)],
])
def test_x_ordered_sweep_edge_cases(nodes):
    topo = Topology(nodes, gateway=0)
    assert_tables_match_brute_force(topo)
    assert_sets_hold_their_node(topo)


def test_mesh8_input_out_of_id_order():
    # build_mesh8 lists the square first, in neither id nor x order
    topo = build_mesh8()
    assert [n.node_id for n in topo.nodes] == [1, 2, 3, 4, 5, 6, 7, 8]
    assert_tables_match_brute_force(topo)
    assert_sets_hold_their_node(topo)
    again = Topology(list(reversed(topo.nodes)), gateway=4)
    assert again.comm_adjacency == topo.comm_adjacency
    assert again.hears == topo.hears
