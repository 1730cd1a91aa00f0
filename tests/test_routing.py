"""EWMA estimation, cumulative RTT, discovery."""

import math
import random

import pytest

from meshsim.mac import SimulationFault
from meshsim.routing import (
    NeighborRecord,
    RouteEntry,
    RouteTable,
    RttEstimator,
    aodv_discover,
    cumulative_rtt,
    process_hello,
    rtt_sample,
)


def test_rtt_sample_is_interval_in_ms():
    assert rtt_sample(10.000, 10.058) == pytest.approx(58.0)
    assert rtt_sample(4.2, 4.2) == 0.0
    with pytest.raises(SimulationFault):
        rtt_sample(5.0, 4.9)


def test_ewma_fixed_point_and_substitution():
    est = RttEstimator(delta=0.125)
    est.update(100.0)
    assert est.update(100.0) == pytest.approx(100.0)
    est2 = RttEstimator(delta=0.5)
    est2.update(100.0)
    assert est2.update(180.0) == pytest.approx(140.0)


def test_ewma_first_sample_sets_the_average():
    est = RttEstimator(delta=0.125)
    assert est.average_rtt is None and not est.seeded
    assert est.update(20.0) == 20.0
    assert est.seeded


def test_ewma_constant_stream_converges_regardless_of_start():
    rng = random.Random(11)
    for _ in range(50):
        start = rng.uniform(0.0, 10000.0)
        s = rng.uniform(1.0, 10000.0)
        est = RttEstimator(delta=0.125)
        est.update(start)
        for _ in range(180):
            est.update(s)
        assert abs(est.average_rtt - s) <= 1e-6


def test_ewma_matches_closed_form():
    rng = random.Random(12)
    delta = 0.125
    for _ in range(30):
        avg0 = rng.uniform(1.0, 10000.0)
        s = rng.uniform(1.0, 10000.0)
        est = RttEstimator(delta=delta)
        est.update(avg0)
        for n in range(1, 61):
            est.update(s)
            closed = s + (1.0 - delta) ** n * (avg0 - s)
            assert abs(est.average_rtt - closed) <= 1e-9 * max(abs(closed), 1.0)


def test_ewma_stays_in_sample_envelope():
    rng = random.Random(13)
    est = RttEstimator(delta=0.125)
    lo, hi = math.inf, -math.inf
    for _ in range(500):
        s = rng.uniform(5.0, 400.0)
        lo, hi = min(lo, s), max(hi, s)
        est.update(s)
        assert lo <= est.average_rtt <= hi


def test_ewma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        RttEstimator(delta=0.0)
    with pytest.raises(ValueError):
        RttEstimator(delta=1.0)
    est = RttEstimator(delta=0.125)
    with pytest.raises(SimulationFault):
        est.update(-1.0)
    assert est.update(10.0) == 10.0


def _record(now, advertised, link_ms):
    """A neighbor heard at now, its link measured at link_ms, paired with
    the cumulative RTT it advertises."""
    rec = NeighborRecord(last_hello_at=now,
                         link_estimator=RttEstimator(delta=0.125))
    rec.link_estimator.update(link_ms)
    return rec, advertised


def test_cumulative_rtt_gateway_and_chain():
    assert cumulative_rtt(0, [], gateway=0, now=5.0) == 0.0
    # far end of a chain whose per-hop averages are 10, 20, 30 toward the gateway
    neighbor = _record(now=5.0, advertised=50.0, link_ms=10.0)
    assert cumulative_rtt(2, [neighbor], gateway=0, now=5.0) == pytest.approx(60.0)


def test_cumulative_rtt_prefers_cheaper_branch():
    a = _record(now=1.0, advertised=40.0, link_ms=30.0)   # 70 total
    b = _record(now=1.0, advertised=35.0, link_ms=20.0)   # 55 total
    assert cumulative_rtt(9, [a, b], gateway=0, now=1.0) == pytest.approx(55.0)


def test_cumulative_rtt_skips_unusable_neighbors():
    stale = _record(now=0.0, advertised=10.0, link_ms=5.0)      # silent too long
    unseeded = (NeighborRecord(last_hello_at=9.0,
                               link_estimator=RttEstimator(delta=0.125)), 10.0)
    unreachable = _record(now=9.0, advertised=math.inf, link_ms=5.0)
    got = cumulative_rtt(7, [stale, unseeded, unreachable], gateway=0, now=9.0)
    assert math.isinf(got)


def _random_connected_graph(rng, max_nodes=12):
    n = rng.randint(2, max_nodes)
    nodes = list(range(n))
    adjacency = {v: set() for v in nodes}
    costs = {}

    def connect(u, v):
        adjacency[u].add(v)
        adjacency[v].add(u)
        c = rng.uniform(1.0, 50.0)
        costs[(u, v)] = c
        costs[(v, u)] = c

    order = nodes[1:]
    rng.shuffle(order)
    reached = [0]
    for v in order:                      # random spanning tree keeps it connected
        connect(v, rng.choice(reached))
        reached.append(v)
    for _ in range(rng.randint(0, n)):   # extra chords
        u, v = rng.sample(nodes, 2)
        if v not in adjacency[u]:
            connect(u, v)
    return adjacency, costs


def _dijkstra_oracle(adjacency, costs, source):
    # plain O(n^2) scan, deliberately unlike the implementation's structure
    dist = {v: math.inf for v in adjacency}
    dist[source] = 0.0
    unvisited = set(adjacency)
    while unvisited:
        u = min(unvisited, key=lambda v: dist[v])
        unvisited.discard(u)
        if math.isinf(dist[u]):
            break
        for w in adjacency[u]:
            cand = dist[u] + costs[(u, w)]
            if cand < dist[w]:
                dist[w] = cand
    return dist


def _bfs_oracle(adjacency, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_discover_hop_count_equals_bfs_distance():
    rng = random.Random(99)
    for _ in range(100):
        adjacency, _costs = _random_connected_graph(rng)
        bfs = _bfs_oracle(adjacency, 0)
        for dst in adjacency:
            if dst == 0:
                continue
            path = aodv_discover(adjacency, 0, dst)
            assert path[0] == 0 and path[-1] == dst
            assert len(path) - 1 == bfs[dst]


def test_discover_square_mesh_paths():
    adjacency = {5: {4, 7}, 4: {5, 6}, 7: {5, 6}, 6: {7, 4}}
    assert aodv_discover(adjacency, 5, 4) == [5, 4]
    # direct link costing 120 ms loses to the 90 ms detour
    costs = {frozenset((5, 4)): 120.0, frozenset((5, 7)): 30.0,
             frozenset((7, 6)): 30.0, frozenset((6, 4)): 30.0}
    link = lambda u, v: costs[frozenset((u, v))]
    path = aodv_discover(adjacency, 5, 4, link_cost=link)
    assert path == [5, 7, 6, 4]
    assert sum(link(u, v) for u, v in zip(path, path[1:])) == pytest.approx(90.0)


def test_discover_rtt_cost_matches_oracle():
    rng = random.Random(500)
    for _ in range(50):
        adjacency, costs = _random_connected_graph(rng)
        oracle = _dijkstra_oracle(adjacency, costs, 0)
        for dst in adjacency:
            if dst == 0:
                continue
            path = aodv_discover(adjacency, 0, dst,
                                 link_cost=lambda u, v: costs[(u, v)])
            got = sum(costs[(u, v)] for u, v in zip(path, path[1:]))
            assert got == pytest.approx(oracle[dst], abs=1e-9)


def test_discover_equal_cost_tie_breaks_to_lowest_id():
    adjacency = {1: {2, 3}, 2: {1, 4}, 3: {1, 4}, 4: {2, 3}}
    assert aodv_discover(adjacency, 1, 4) == [1, 2, 4]


def test_discover_error_cases():
    adjacency = {1: {2}, 2: {1}, 3: set()}
    assert aodv_discover(adjacency, 3, 1) is None          # unreachable
    assert aodv_discover(adjacency, 1, 9) is None          # unknown endpoint
    assert aodv_discover(adjacency, 9, 1) is None
    with pytest.raises(ValueError):
        aodv_discover(adjacency, 1, 1)


def test_discover_finds_no_path_when_every_path_has_an_unusable_link():
    # the engine's least-RTT search relies on this: a path with an
    # unmeasured (inf) link is no path, and hop count takes over
    adjacency = {5: {4, 7}, 4: {5, 6}, 7: {5, 6}, 6: {7, 4}}
    unmeasured = {frozenset((5, 4)), frozenset((7, 6))}
    link = lambda u, v: math.inf if frozenset((u, v)) in unmeasured else 10.0
    assert aodv_discover(adjacency, 5, 4, link_cost=link) is None
    assert aodv_discover(adjacency, 5, 7, link_cost=link) == [5, 7]
    assert aodv_discover(adjacency, 5, 4) == [5, 4]


def test_hello_processing_creates_updates_expires():
    records = {}
    rec = process_hello(records, sender=4, now=1.0, delta=0.25)
    assert records == {4: rec} and rec.last_hello_at == 1.0
    assert rec.link_estimator.delta == 0.25
    process_hello(records, sender=4, now=2.0, delta=0.25)
    assert records[4] is rec and rec.last_hello_at == 2.0
    assert records[4].is_active(5.0)        # exactly three intervals: still alive
    assert not records[4].is_active(5.01)   # past three missed hellos
    process_hello(records, sender=9, now=5.0, delta=0.25)
    assert sorted(v for v, r in records.items() if r.is_active(5.01)) == [9]


def test_route_entries_expire():
    table = RouteTable()
    table.install(RouteEntry(destination=0, next_hop=3, hop_count=2,
                             rtt_cost=25.0, expires_at=10.0))
    assert table.lookup(0, now=9.99).next_hop == 3
    assert table.lookup(0, now=10.0) is None       # expired entries never forward
    assert table.lookup(0, now=5.0) is None        # and are purged outright


def test_route_entry_validation():
    with pytest.raises(ValueError):
        RouteEntry(destination=0, next_hop=1, hop_count=0, rtt_cost=1.0,
                   expires_at=1.0)
    with pytest.raises(ValueError):
        RouteEntry(destination=0, next_hop=1, hop_count=1, rtt_cost=-1.0,
                   expires_at=1.0)
