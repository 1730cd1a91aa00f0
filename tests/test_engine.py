"""Event-loop behavior: delivery, determinism, interference accounting,
conservation, and the two-phase rerouting experiment."""

import gc
import hashlib
import io
import math
import time
import weakref

import pytest

from meshsim import engine
from meshsim.channel import interference_factor
from meshsim.config import ScenarioConfig, TopologySpec
from meshsim.engine import BEACON_INTERVAL_S, FLOW_START_S, Sim
from meshsim.experiment import corciar_run, execute
from meshsim.mac import SimulationFault
from meshsim.metrics import CollisionClass
from meshsim.routing import RouteMetric, RouteTable
from meshsim.topology import INTERFERENCE_RANGE_M


def chain_cfg(n, **kw):
    kw.setdefault("sim_time_s", 5.0)
    kw.setdefault("seed", 1)
    return ScenarioConfig(topology=TopologySpec("chain", n), **kw)


def test_two_node_chain_delivers():
    res = Sim(chain_cfg(2), RouteMetric.HOP_COUNT, "aodv_hop").run()
    s = res.summary
    stats = res.flow_stats[0]
    assert s.delivery_ratio is not None and s.delivery_ratio > 0.95
    # exactly one window of packets can be outstanding when time ends
    assert stats.in_flight_at_end <= 4
    assert stats.drops_queue == 0 and stats.drops_retry == 0
    # one data exchange occupies ~9 ms of air and turnaround, flow runs
    # from t=3 of 5 s, so the rate has a hard ceiling around 110 pkt/s
    active = 5.0 - FLOW_START_S
    assert stats.packets_received_at_gateway <= active * 115
    assert 150.0 < s.throughput_kbps < 450.0
    assert res.n_hops == 1
    assert res.corrupted_receptions == 0


def test_sim_time_zero_is_inert():
    res = Sim(chain_cfg(3, sim_time_s=0.0), RouteMetric.HOP_COUNT, "x").run()
    assert res.dispatched_events == 0
    assert res.summary.throughput_kbps == 0.0
    assert res.summary.delivery_ratio is None
    st = res.flow_stats[0]
    assert st.packets_sent == 0 and st.packets_received_at_gateway == 0


def test_identical_runs_are_identical():
    cfg = chain_cfg(4, channel_plan="overlapping", seed=9)
    a = Sim(cfg, RouteMetric.HOP_COUNT, "aodv_hop").run()
    b = Sim(cfg, RouteMetric.HOP_COUNT, "aodv_hop").run()
    assert a.trace_hash == b.trace_hash
    assert a.summary == b.summary
    assert a.dispatched_events == b.dispatched_events


def test_seed_changes_the_run():
    a = Sim(chain_cfg(4, seed=1), RouteMetric.HOP_COUNT, "x").run()
    b = Sim(chain_cfg(4, seed=2), RouteMetric.HOP_COUNT, "x").run()
    assert a.trace_hash != b.trace_hash


def test_orthogonal_chain_never_corrupts():
    for n in (2, 3, 4):
        res = Sim(chain_cfg(n, sim_time_s=8.0), RouteMetric.HOP_COUNT, "x").run()
        assert res.corrupted_receptions == 0, f"chain({n})"


def test_overlapping_chain_corrupts_and_slows():
    clean = Sim(chain_cfg(4, sim_time_s=8.0), RouteMetric.HOP_COUNT, "x").run()
    dirty = Sim(chain_cfg(4, sim_time_s=8.0, channel_plan="overlapping"),
                RouteMetric.HOP_COUNT, "x").run()
    assert dirty.corrupted_receptions > 0
    assert dirty.summary.throughput_kbps < clean.summary.throughput_kbps


def test_conservation_partition_under_stress():
    # tiny queues plus a jammer on the middle link force every loss class
    cfg = chain_cfg(5, sim_time_s=10.0, channel_plan="overlapping",
                    queue_capacity=4, jammer_channel=3,
                    jammer_x=375.0, jammer_y=0.0)
    res = Sim(cfg, RouteMetric.HOP_COUNT, "x").run()   # raises on violation
    st = res.flow_stats[0]
    assert st.packets_sent == (st.packets_received_at_gateway
                               + st.drops_retry + st.in_flight_at_end)
    assert st.packets_sent > 0


def test_scheduling_into_the_past_faults():
    sim = Sim(chain_cfg(2), RouteMetric.HOP_COUNT, "x")
    sim.now = 5.0
    with pytest.raises(SimulationFault):
        sim.schedule(4.0, "TimerFire", 0, lambda: None)


def test_each_sent_copy_looks_its_route_up_once(monkeypatch):
    sim = Sim(chain_cfg(3, window=5), RouteMetric.HOP_COUNT, "aodv_hop")
    flow = sim.flows[0]
    sim.now = FLOW_START_S
    sim._install_route(flow.src, flow.dst, (0, 1, 2))
    lookups = []
    lookup = RouteTable.lookup

    def counted(table, destination, now):
        lookups.append((table, destination))
        return lookup(table, destination, now)

    monkeypatch.setattr(RouteTable, "lookup", counted)
    sim._fill_window(flow)
    assert len(flow.unacked) == 5 and not flow.blocked
    assert lookups == [(sim.nodes[flow.src].route_table, flow.dst)] * 5
    queued = [e.frame for r in sim.nodes[flow.src].radios for e in r.queue]
    assert [(f.seq, f.dst) for f in queued] == [(seq, 1) for seq in range(5)]


def test_reevaluation_runs_one_search(monkeypatch):
    """With no link measured, the least-RTT search finds nothing; the
    hop-count path could not pass the 20% test, so only discovery runs it."""
    sim = Sim(chain_cfg(3), RouteMetric.AVG_RTT, "corciar")
    flow = sim.flows[0]
    sim._install_route(flow.src, flow.dst, (0, 1, 2))
    searches = []
    discover = engine.aodv_discover

    def counted(adjacency, src, dst, metric, **kwargs):
        searches.append(metric)
        return discover(adjacency, src, dst, metric, **kwargs)

    monkeypatch.setattr(engine, "aodv_discover", counted)
    sim._route_reeval(flow.src, flow.dst)
    assert searches == [RouteMetric.AVG_RTT]
    assert sim._flow_paths[(flow.src, flow.dst)] == (0, 1, 2)
    assert not sim._discovering
    searches.clear()
    assert sim._best_path(flow.src, flow.dst) == [0, 1, 2]
    assert searches == [RouteMetric.AVG_RTT, RouteMetric.HOP_COUNT]


def test_link_estimators_smooth_with_the_configured_delta():
    cfg = chain_cfg(4, delta=0.5)
    sim = Sim(cfg, RouteMetric.HOP_COUNT, "aodv_hop")
    sim.run()
    estimators = [rec.link_estimator for node in sim.nodes.values()
                  for rec in node.records.values()]
    assert len(estimators) == 6 and all(e.seeded for e in estimators)
    assert {e.delta for e in estimators} == {0.5}
    seeded = Sim(cfg, RouteMetric.AVG_RTT, "corciar", seed_link_costs={(0, 1): 5.0})
    assert seeded.nodes[0].records[1].link_estimator.delta == 0.5


def test_finished_phases_are_freed_without_the_collector(monkeypatch):
    """Each phase's Sim is freed as soon as it is done: the hop-count one
    before the corciar one is built, and both before execute returns."""
    refs, alive_at_build = [], []
    init = Sim.__init__

    def tracked_init(self, *args, **kwargs):
        alive_at_build.append([ref() is not None for ref in refs])
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Sim, "__init__", tracked_init)
    gc.collect()
    gc.disable()
    try:
        rows = execute(chain_cfg(3, sim_time_s=4.0))
        alive_after = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert [row.protocol for row in rows] == ["aodv_hop", "corciar"]
    assert alive_at_build == [[], [False]]
    assert alive_after == [False, False]


def test_trace_stream_is_ordered():
    buf = io.StringIO()
    res = Sim(chain_cfg(2, sim_time_s=2.0), RouteMetric.HOP_COUNT, "x",
              trace_file=buf).run()
    text = buf.getvalue()
    # the written lines are exactly the hashed ones: one per dispatched
    # event, then SimEnd
    assert hashlib.sha256(text.encode()).hexdigest() == res.trace_hash
    lines = text.splitlines()
    assert len(lines) == res.dispatched_events + 1
    assert lines[-1].split()[1] == "SimEnd"
    times = [float(line.split()[0]) for line in lines]
    assert times == sorted(times)
    labels = {line.split()[1] for line in lines}
    assert labels <= {"FrameArrival", "TimerFire", "HelloTick", "BeaconTick",
                      "FlowSendWindow", "RtoExpiry", "SimEnd"}


def test_chain_phases_tie_exactly():
    baseline, rerouted, report = corciar_run(chain_cfg(4, sim_time_s=6.0))
    assert baseline.summary.throughput_kbps == rerouted.summary.throughput_kbps
    assert baseline.summary.mean_rtt_ms == rerouted.summary.mean_rtt_ms
    assert report.cor == 1.0
    assert report.collision_class is CollisionClass.PERFECTLY_ELASTIC


def mesh8_cfg(seed):
    return ScenarioConfig(topology=TopologySpec("mesh8"), sim_time_s=15.0,
                          seed=seed, jammer_channel=1,
                          jammer_x=100.0, jammer_y=-80.0)


def next_hops(result, at_node, dst):
    return [e.next_hop for node, e in result.route_rows
            if node == at_node and e.destination == dst]


def test_jammed_mesh_reroutes_around_the_loss():
    baseline, rerouted, report = corciar_run(mesh8_cfg(1))
    assert baseline.n_hops == 1
    assert next_hops(baseline, 5, 4) == [4]
    assert rerouted.n_hops == 3
    assert next_hops(rerouted, 5, 4) == [7]
    assert next_hops(rerouted, 7, 4) == [6]
    assert next_hops(rerouted, 6, 4) == [4]
    assert rerouted.summary.throughput_kbps > baseline.summary.throughput_kbps
    assert 0.0 <= report.cor < 1.0


def test_jammed_mesh_baseline_suffers():
    baseline, rerouted, _ = corciar_run(mesh8_cfg(2))
    # the jammer is on 8/9 duty; the direct link cannot sustain the flow
    assert baseline.summary.throughput_kbps < 100.0
    assert rerouted.summary.throughput_kbps > 150.0


def test_link_costs_reflect_the_jam():
    sim = Sim(mesh8_cfg(1), RouteMetric.HOP_COUNT, "aodv_hop")
    sim.run()
    costs = sim.final_link_costs()
    # every sample is normalized to one nominal data serialization
    # (~8.4 ms at 1000 B / 1 Mbps), so healthy links sit near that floor
    # while the jammed link carries its access wait on top
    assert costs[(5, 4)] > 40.0
    for link in ((5, 7), (7, 6), (6, 4)):
        assert costs[link] < 15.0, link
    detour = costs[(5, 7)] + costs[(7, 6)] + costs[(6, 4)]
    assert detour < costs[(5, 4)]


def test_pcl_plan_runs_and_conserves():
    cfg = chain_cfg(4, sim_time_s=12.0, channel_plan="pcl")
    res = Sim(cfg, RouteMetric.HOP_COUNT, "x").run()
    st = res.flow_stats[0]
    assert st.packets_sent == (st.packets_received_at_gateway
                               + st.drops_retry + st.in_flight_at_end)
    assert res.counters["pcl_retunes"] > 0


def test_pcl_beacon_claims_lowest_unclaimed_channel():
    plain = Sim(chain_cfg(5), RouteMetric.HOP_COUNT, "x")
    assert all(node.claimed is None for node in plain.nodes.values())
    sim = Sim(chain_cfg(5, channel_plan="pcl"), RouteMetric.HOP_COUNT, "x")
    nodes = sim.nodes
    claimed = lambda: [nodes[i].claimed for i in sorted(nodes)]
    assert claimed() == [set()] * 5
    assert [r.channel for r in nodes[0].radios] == [1, 6]

    # nothing claimed yet: node 0 claims channel 1 at every node within
    # interference range (node 4, 600 m away, lies beyond it), its idle
    # last radio retunes to it, and its next beacon is due in 5 s
    sim._beacon_tick(0)
    assert claimed() == [set(), {1}, {1}, {1}, set()]
    assert [r.channel for r in nodes[0].radios] == [1, 1]
    assert sim.counters["pcl_retunes"] == 1
    assert [(t, label, node) for t, _, label, node, *_ in sim._heap] \
        == [(BEACON_INTERVAL_S, "BeaconTick", 0)]

    # node 1 skips the channel node 0 claimed
    sim._beacon_tick(1)
    assert claimed() == [{2}, {1}, {1, 2}, {1, 2}, {2}]
    assert nodes[1].radios[-1].channel == 2

    # every channel claimed: node 2 falls back to channel 1 and takes it
    # off its own set; a busy last radio keeps its channel
    nodes[2].claimed.update(range(1, 12))
    nodes[2].radios[-1].exchange = engine.Exchange("wait_ack")
    before = nodes[2].radios[-1].channel
    sim._beacon_tick(2)
    assert claimed() == [{1, 2}, {1}, set(range(2, 12)), {1, 2}, {1, 2}]
    assert nodes[2].radios[-1].channel == before
    assert sim.counters["pcl_retunes"] == 2


def test_random_topology_three_flows():
    cfg = ScenarioConfig(topology=TopologySpec("random", 20),
                         sim_time_s=6.0, seed=3)
    res = Sim(cfg, RouteMetric.HOP_COUNT, "x").run()
    assert len(res.flow_stats) == 3
    assert sum(s.packets_received_at_gateway for s in res.flow_stats) > 0


def test_long_frame_keeps_an_early_interferer():
    # a 40 ms frame at 200 kbit/s; an interferer 300 m from the receiver on
    # a conflicting channel ends 2 ms into it, then 70 more transmissions
    # from out of earshot fill the next 35 ms
    sim = Sim(chain_cfg(6, data_rate_bps=200000), RouteMetric.HOP_COUNT, "x")
    subject = sim._register_tx(0, 1, 0.0, 0.04)
    sim._register_tx(2, 3, 0.0, 0.002)
    for i in range(70):
        sim.now = 0.0025 + i * 0.0005
        sim._register_tx(5, 3, sim.now, sim.now + 0.0004)
    sim.now = subject.t_end
    assert sim.corrupted(1, 1, subject)


class OracleSim(Sim):
    """Keeps every transmission it registers and checks each medium answer
    against a brute-force scan of that full list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.every_tx = []
        self.answers = {"busy": 0, "idle": 0, "corrupt": 0, "clean": 0}

    def _register_tx(self, *args):
        tx = super()._register_tx(*args)
        self.every_tx.append(tx)
        return tx

    def _tx_disturbs(self, tx, node_id, channel):
        return interference_factor(tx.channel, channel) > self.config.theta \
            and self.topo.distance(tx.sender, node_id) <= INTERFERENCE_RANGE_M

    def _jam_disturbs(self, node_id, channel):
        jam = self.jammer
        if jam is None:
            return False
        node = self.topo.by_id[node_id]
        return interference_factor(jam.channel, channel) > self.config.theta \
            and math.hypot(node.x - jam.x, node.y - jam.y) <= INTERFERENCE_RANGE_M

    def carrier_busy(self, node_id, channel):
        got = super().carrier_busy(node_id, channel)
        ends = [tx.t_end for tx in self.every_tx
                if tx.t_start <= self.now < tx.t_end
                and self._tx_disturbs(tx, node_id, channel)]
        if self._jam_disturbs(node_id, channel) and self.jammer.active(self.now):
            ends.append(self.jammer.busy_end(self.now))
        assert got == (bool(ends), max([self.now, *ends]))
        self.answers["busy" if got[0] else "idle"] += 1
        return got

    def corrupted(self, node_id, channel, subject):
        got = super().corrupted(node_id, channel, subject)
        want = any(tx is not subject and tx.t_start < subject.t_end
                   and tx.t_end > subject.t_start
                   and self._tx_disturbs(tx, node_id, channel)
                   for tx in self.every_tx) \
            or (self._jam_disturbs(node_id, channel)
                and self.jammer.overlaps(subject.t_start, subject.t_end))
        assert got == want
        self.answers["corrupt" if got else "clean"] += 1
        return got


ORACLE_CASES = (
    ("chain5-overlapping", chain_cfg(5, channel_plan="overlapping",
                                     sim_time_s=6.0, seed=2)),
    ("random20", ScenarioConfig(topology=TopologySpec("random", 20),
                                sim_time_s=3.3, seed=1)),
    # 40 ms frames: a medium that forgot transmissions 20 ms after they
    # ended would miss an interferer here
    ("random15-200kbps", ScenarioConfig(topology=TopologySpec("random", 15),
                                        data_rate_bps=200000,
                                        sim_time_s=4.0, seed=2)),
    ("mesh8-jammer", ScenarioConfig(topology=TopologySpec("mesh8"), sim_time_s=8.0,
                                    seed=1, jammer_channel=1,
                                    jammer_x=100.0, jammer_y=-80.0)),
    # the last radio of a node retunes on its beacon ticks, so frames of one
    # radio sit on the air under two channels in one run
    ("chain5-pcl", chain_cfg(5, channel_plan="pcl", sim_time_s=11.0, seed=3)),
    # data frames the size of an RTS: the prune horizon shrinks to the
    # 40-byte transport ACK's airtime, and no frame kind outlasts the others
    ("chain5-20-byte-data", chain_cfg(5, channel_plan="overlapping",
                                      packet_size_bytes=20, sim_time_s=4.0, seed=3)),
    ("mesh8-jammer-always-on", ScenarioConfig(
        topology=TopologySpec("mesh8"), sim_time_s=6.0, seed=1, jammer_channel=1,
        jammer_x=100.0, jammer_y=-80.0, jammer_on_s=1000.0)),
)


def test_medium_matches_brute_force_scan():
    t0 = time.monotonic()
    sims = {}
    for name, cfg in ORACLE_CASES:
        sim = sims[name] = OracleSim(cfg, RouteMetric.HOP_COUNT, "x")
        sim.run()
        seen = sim.answers
        assert min(seen.values()) > 0, (name, seen)
    assert time.monotonic() - t0 < 10.0
    assert sims["chain5-pcl"].counters["pcl_retunes"] > 0


class OrderedListSim(Sim):
    """Checks the in-flight list after every registration."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.registered = 0
        self.inserted = 0

    def _register_tx(self, *args):
        tx = super()._register_tx(*args)
        ends = [t.t_end for t in self.on_air]
        assert ends == sorted(ends)
        assert self.on_air_ends == ends
        assert all(end > self.now - self.horizon for end in ends)
        assert any(t is tx for t in self.on_air)
        self.registered += 1
        self.inserted += self.on_air[-1] is not tx
        return tx


@pytest.mark.parametrize("name", ["random15-200kbps", "chain5-20-byte-data"])
def test_in_flight_list_stays_ordered_and_pruned(name):
    sim = OrderedListSim(dict(ORACLE_CASES)[name], RouteMetric.HOP_COUNT, "x")
    sim.run()
    # both ways in: appended at the tail, and inserted ahead of a frame
    # that ends later; and the head was pruned along the way
    assert 0 < sim.inserted < sim.registered
    assert len(sim.on_air) < sim.registered
