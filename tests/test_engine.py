"""Event-loop behavior: delivery, determinism, interference accounting,
conservation, and the two-phase rerouting experiment."""

import gc
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from meshsim import cli, engine
from meshsim.channel import interference_factor
from meshsim.config import ScenarioConfig, TopologySpec, parse_config
from meshsim.engine import BEACON_INTERVAL_S, FLOW_START_S, TRACE_LINE, Sim
from meshsim.experiment import corciar_run, execute
from meshsim.mac import (CW_MAX, CW_MIN, DIFS, SLOT_TIME, BackoffOutcome,
                         BackoffState, SimulationFault)
from meshsim.medium import Jammer, Medium
from meshsim.metrics import CollisionClass
from meshsim.routing import ROUTE_LIFETIME, RouteMetric, RouteTable
from meshsim.topology import INTERFERENCE_RANGE_M, build_topology


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


def test_transport_gives_up_under_an_always_on_jammer(monkeypatch):
    # the jammer never pauses and covers channel 6, the only channel the last
    # hop shares: no copy gets past node 1, copies that reach node 1 after its
    # route lapsed are route misses, an RTO that finds no route at the source
    # starts discovery again, and each packet meets the transport retry limit
    cfg = chain_cfg(3, sim_time_s=80.0, seed=3, jammer_channel=6,
                    jammer_x=225.0, jammer_y=0.0, jammer_on_s=1000.0)
    callers = []
    request = Sim._request_discovery

    def counted(sim, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        return request(sim, *args)

    monkeypatch.setattr(Sim, "_request_discovery", counted)
    baseline, rerouted, _ = corciar_run(cfg)      # raises on a broken balance
    for res in (baseline, rerouted):
        st = res.flow_stats[0]
        assert st.drops_retry > 0
        assert res.counters["route_misses"] > 0
        assert st.packets_sent == (st.packets_received_at_gateway
                                   + st.drops_retry + st.in_flight_at_end)
    assert callers.count("_rto_expiry") > 0


def looped_overlap(jammer, t0, t1):
    """Reference: walk the cycles from the one t0 falls in until one starts
    at or after t1."""
    k = math.floor(t0 / jammer.period)
    while k * jammer.period < t1:
        start = k * jammer.period
        if start < t1 and start + jammer.on_s > t0:
            return True
        k += 1
    return False


def test_jammer_overlap_matches_a_walk_over_the_cycles():
    jammer = Jammer(1, 0.08, 0.01)
    assert jammer.overlaps(0.0, 0.001) and jammer.overlaps(0.085, 0.0901)
    assert jammer.overlaps(0.081, 0.5)
    assert not jammer.overlaps(0.08, 0.09)        # exactly the silent gap
    assert not jammer.overlaps(0.08, 0.0899)
    rng = random.Random(11)
    for _ in range(20000):
        jammer = Jammer(1, rng.choice((0.08, 1000.0, rng.uniform(1e-4, 2.0))),
                        rng.choice((0.01, rng.uniform(1e-4, 2.0))))
        k = rng.randrange(2000)
        t0 = rng.choice((rng.uniform(0.0, 100.0), k * jammer.period,
                         k * jammer.period + jammer.on_s))
        t1 = rng.choice((t0 + rng.uniform(0.0, 0.05), (k + 1) * jammer.period,
                         t0 + jammer.period - jammer.on_s,
                         t0 + rng.uniform(0.0, 3.0 * jammer.period)))
        assert jammer.overlaps(t0, t1) is looped_overlap(jammer, t0, t1), (
            jammer.on_s, jammer.period, t0, t1)


def test_jammer_period_below_the_float_spacing():
    # (k + 1) * period rounds back to k * period at t0 = 3.5, so a walk over
    # the cycles would never reach t1
    jammer = Jammer(1, 1e-100, 1e-100)
    assert jammer.overlaps(3.5, 3.508)


def test_jammer_quotient_overflow_matches_exact_arithmetic():
    # periods so far below t that t / period overflows to inf: each answer
    # equals the one exact rational arithmetic gives, rounded once
    rng = random.Random(5)
    active = 0
    for _ in range(400):
        jammer = Jammer(1, rng.choice((5e-324, 1e-320, rng.uniform(5e-324, 2e-309))),
                        rng.choice((5e-324, 1e-320, rng.uniform(5e-324, 2e-309))))
        period, on_s = Fraction(jammer.period), Fraction(jammer.on_s)
        t0 = rng.choice((rng.uniform(1.0, 60.0), float(rng.randrange(1, 60))))
        assert t0 / jammer.period == math.inf
        k = math.floor(Fraction(t0) / period)
        assert jammer.active(t0) is (Fraction(t0) - k * period < on_s)
        if jammer.active(t0):
            active += 1
            assert jammer.busy_end(t0) == float(k * period + on_s)
        # the first on-period that ends after t0 must start before t1
        start = k * period if k * period + on_s > t0 else (k + 1) * period
        for t1 in (math.nextafter(t0, math.inf), t0 + rng.uniform(0.0, 0.05),
                   t0 + 1.0):
            if t1 > t0:
                assert jammer.overlaps(t0, t1) is (start < Fraction(t1)), (
                    jammer.on_s, jammer.period, t0, t1)
    assert 0 < active < 400


def test_run_with_a_jammer_period_below_the_float_spacing_ends(tmp_path):
    # in a child process with a timeout, so a hang fails instead of stalling;
    # at 1e-320 the cycle index t / period overflows to inf
    env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
    for seconds in ("1e-300", "1e-320"):
        path = tmp_path / "jammer.cfg"
        path.write_text(f"jammer_channel = 1\njammer_on_s = {seconds}\n"
                        f"jammer_off_s = {seconds}\nsim_time_s = 5\n", encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from meshsim.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, (seconds, done.stderr)
        rows = done.stdout.splitlines()[1:]
        assert len(rows) == 2 and all(",0.000000,0.000000," in r for r in rows), seconds


def test_scheduling_into_the_past_faults():
    sim = Sim(chain_cfg(2), RouteMetric.HOP_COUNT, "x")
    sim.now = 5.0
    with pytest.raises(SimulationFault):
        sim.schedule(4.0, "TimerFire", 0, lambda: None)


def test_every_event_enters_the_heap_through_schedule(monkeypatch):
    # the benchmark's tracer counts Sim.schedule calls as the events pushed,
    # and schedule is where each event gets its trace tag
    pushes, schedules = [], []
    heappush, schedule = engine.heappush, Sim.schedule

    def counted_push(heap, entry):
        pushes.append(entry[2])
        heappush(heap, entry)

    def counted_schedule(sim, t, label, node, fn, *args):
        schedules.append(engine.trace_tag(label, node))
        schedule(sim, t, label, node, fn, *args)

    monkeypatch.setattr(engine, "heappush", counted_push)
    monkeypatch.setattr(Sim, "schedule", counted_schedule)
    res = Sim(chain_cfg(4, channel_plan="pcl", sim_time_s=8.0),
              RouteMetric.AVG_RTT, "corciar").run()
    assert len(schedules) >= res.dispatched_events > 0
    assert pushes == schedules
    # the run reaches every dispatch label; pcl adds BeaconTick
    assert {tag.split()[0].decode() for tag in pushes} == {
        "FrameArrival", "TimerFire", "HelloTick", "BeaconTick", "FlowSendWindow", "RtoExpiry"}


def test_each_sent_copy_looks_its_route_up_once(monkeypatch):
    sim = Sim(chain_cfg(3, window=5), RouteMetric.HOP_COUNT, "aodv_hop")
    flow = sim.flows[0]
    sim.now = FLOW_START_S
    lookups = []
    lookup = RouteTable.lookup

    def counted(table, destination, now):
        lookups.append((table, destination))
        return lookup(table, destination, now)

    monkeypatch.setattr(RouteTable, "lookup", counted)
    # the install fills the window
    sim._install_route(flow.src, flow.dst, (0, 1, 2))
    assert len(flow.unacked) == 5
    table = sim.nodes[flow.src].route_table
    assert lookups == [(table, flow.dst)] * 5
    queued = [f for r in sim.nodes[flow.src].radios for f in r.queue]
    assert [(f.seq, f.dst) for f in queued] == [(seq, 1) for seq in range(5)]
    # each use keeps the route alive for another lifetime from then
    assert lookup(table, flow.dst, sim.now).expires_at == sim.now + ROUTE_LIFETIME
    sim.now += 1.0
    assert sim._route_next_hop(flow.src, flow.dst) == 1
    assert lookup(table, flow.dst, sim.now).expires_at == sim.now + ROUTE_LIFETIME


def test_install_refills_every_flow_of_the_pair():
    # two flows share (0, 2): the first starts the one discovery, the second
    # finds it under way, and the install restarts both windows
    sim = Sim(chain_cfg(3, flows=((0, 2), (0, 2)), window=3),
              RouteMetric.HOP_COUNT, "aodv_hop")
    flows = [sim.flows[0], sim.flows[1]]
    sim.now = FLOW_START_S
    for flow in flows:
        sim._fill_window(flow)
    assert [len(flow.unacked) for flow in flows] == [0, 0]
    pending = [fn.__name__ for _, _, _, fn, _ in sim._heap]
    assert pending.count("_install_route") == 1
    sim._install_route(0, 2, (0, 1, 2))
    assert [len(flow.unacked) for flow in flows] == [3, 3]
    assert not sim._discovering


def test_reevaluation_runs_one_search(monkeypatch):
    """With no link measured, the least-RTT search finds nothing; the
    hop-count path could not pass the 20% test, so only discovery runs it."""
    sim = Sim(chain_cfg(3), RouteMetric.AVG_RTT, "corciar")
    flow = sim.flows[0]
    sim._install_route(flow.src, flow.dst, (0, 1, 2))
    searches = []
    discover = engine.aodv_discover

    def counted(adjacency, src, dst, link_cost=None):
        searches.append("rtt" if link_cost is not None else "hops")
        return discover(adjacency, src, dst, link_cost=link_cost)

    monkeypatch.setattr(engine, "aodv_discover", counted)
    sim._route_reeval(flow.src, flow.dst)
    assert searches == ["rtt"]
    assert sim._flow_paths[(flow.src, flow.dst)] == (0, 1, 2)
    assert not sim._discovering
    searches.clear()
    assert sim._best_path(flow.src, flow.dst) == [0, 1, 2]
    assert searches == ["rtt", "hops"]


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


def test_trace_file_matches_in_memory_trace(tmp_path):
    # both phases of a cell with two-digit node ids, pcl beacons and a jammer
    text = ("topology = random(12)\nchannel_plan = pcl\njammer_channel = 1\n"
            "jammer_x = 700\njammer_y = 400\nsim_time_s = 8\nseed = 2\n")
    config_path = tmp_path / "scenario.cfg"
    config_path.write_text(text, encoding="utf-8")
    trace = tmp_path / "events.log"
    assert cli.main(["run", str(config_path), "--out", str(tmp_path / "rows.csv"),
                     "--trace", str(trace)]) == 0
    buf = io.StringIO()
    rows = execute(parse_config(text), trace_file=buf)
    data = trace.read_bytes()
    assert data == buf.getvalue().encode()
    hashes, phase, labels, nodes = [], hashlib.sha256(), set(), set()
    for line in data.decode().splitlines(keepends=True):
        time_s, label, node = line.split()
        assert line == TRACE_LINE % (float(time_s), label, node[1:])
        labels.add(label)
        nodes.add(int(node[1:]))
        phase.update(line.encode())
        if label == "SimEnd":
            hashes.append(phase.hexdigest())
            phase = hashlib.sha256()
    assert hashes == [row.result.trace_hash for row in rows]
    assert len(hashes) == 2
    assert labels == {"FrameArrival", "TimerFire", "HelloTick", "BeaconTick",
                      "FlowSendWindow", "RtoExpiry", "SimEnd"}
    assert nodes == set(range(-1, 12))


def test_backoff_draws_match_randint():
    # the backoff draws randrange(cw + 1), which must give randint(0, cw)'s
    # stream at every window from CW_MIN up to CW_MAX
    backoff, rng, ref = BackoffState(), random.Random(5), random.Random(5)
    windows = []
    for _ in range(200):
        cw = backoff.cw
        windows.append(cw)
        assert backoff.next(BackoffOutcome.BUSY, rng) == ref.randint(0, cw)
        if backoff.retries == 8:
            backoff.reset()
    assert sorted(set(windows)) == [CW_MIN, 63, 127, 255, 511, CW_MAX]
    sim = Sim(chain_cfg(2), RouteMetric.HOP_COUNT, "x")
    radio = sim.nodes[0].radios[0]
    ref.setstate(sim.rng.getstate())
    for cw in windows:
        radio.backoff.cw = cw
        assert sim._backoff_wait(radio) == DIFS + ref.randint(0, cw) * SLOT_TIME


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
    assert [(t, tag) for t, _, tag, *_ in sim._heap] \
        == [(BEACON_INTERVAL_S, b" BeaconTick n0\n")]

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
    cfg = chain_cfg(6, data_rate_bps=200000)
    medium = Medium(build_topology(cfg), cfg, 0.04 + SLOT_TIME)
    subject = medium.register(0, 1, 0.0, 0.04, 0.0)
    medium.register(2, 3, 0.0, 0.002, 0.0)
    for i in range(70):
        now = 0.0025 + i * 0.0005
        medium.register(5, 3, now, now + 0.0004, now)
    assert medium.corrupted(1, 1, subject)


class OracleMedium(Medium):
    """Keeps every transmission it registers and checks each answer against
    a brute-force scan of that full list, which states the rule again from
    distances and interference factors, with no bisect, pruning or
    precomputed sets."""

    def __init__(self, topology, config, horizon):
        super().__init__(topology, config, horizon)
        self.topo = topology
        self.config = config
        self.reference_jammer = None if config.jammer_channel is None else Jammer(
            config.jammer_channel, config.jammer_on_s, config.jammer_off_s)
        self.every_tx = []
        self.answers = {"busy": 0, "idle": 0, "corrupt": 0, "clean": 0, "jammer": 0}

    def register(self, *args):
        tx = super().register(*args)
        self.every_tx.append(tx)
        return tx

    def _tx_disturbs(self, tx, node_id, channel):
        return interference_factor(tx.channel, channel) > self.config.theta \
            and self.topo.distance(tx.sender, node_id) <= INTERFERENCE_RANGE_M

    def _jam_disturbs(self, node_id, channel):
        cfg = self.config
        if cfg.jammer_channel is None:
            return False
        node = self.topo.by_id[node_id]
        return interference_factor(cfg.jammer_channel, channel) > cfg.theta \
            and math.hypot(node.x - cfg.jammer_x,
                           node.y - cfg.jammer_y) <= INTERFERENCE_RANGE_M

    def carrier_busy(self, node_id, channel, now):
        got = super().carrier_busy(node_id, channel, now)
        ends = [tx.t_end for tx in self.every_tx
                if tx.t_start <= now < tx.t_end
                and self._tx_disturbs(tx, node_id, channel)]
        jammer = self.reference_jammer
        if self._jam_disturbs(node_id, channel) and jammer.active(now):
            ends.append(jammer.busy_end(now))
            self.answers["jammer"] += 1
        assert got == (bool(ends), max([now, *ends]))
        self.answers["busy" if got[0] else "idle"] += 1
        return got

    def corrupted(self, node_id, channel, subject):
        got = super().corrupted(node_id, channel, subject)
        jammed = self._jam_disturbs(node_id, channel) \
            and self.reference_jammer.overlaps(subject.t_start, subject.t_end)
        self.answers["jammer"] += jammed
        want = jammed or any(
            tx is not subject and tx.t_start < subject.t_end
            and tx.t_end > subject.t_start
            and self._tx_disturbs(tx, node_id, channel)
            for tx in self.every_tx)
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


def test_medium_matches_brute_force_scan(monkeypatch):
    monkeypatch.setattr(engine, "Medium", OracleMedium)
    t0 = time.monotonic()
    sims = {}
    for name, cfg in ORACLE_CASES:
        sim = sims[name] = Sim(cfg, RouteMetric.HOP_COUNT, "x")
        sim.run()
        seen = dict(sim.medium.answers)
        assert (seen.pop("jammer") > 0) is (cfg.jammer_channel is not None), name
        assert min(seen.values()) > 0, (name, seen)
    assert time.monotonic() - t0 < 10.0
    assert sims["chain5-pcl"].counters["pcl_retunes"] > 0


# times on a binary grid add up exactly, so frame ends often equal the
# instant a query asks about or another frame's start
TICK = 2.0 ** -13                       # about 122 us

DIRECT_CASES = (
    ("chain5-overlapping", chain_cfg(5, channel_plan="overlapping")),
    ("random20", ScenarioConfig(topology=TopologySpec("random", 20), seed=1)),
    # a short cycle, so frames outlast on-periods and the reverse, placed so
    # that nodes lie on both sides of its reach
    ("mesh8-jammer", ScenarioConfig(
        topology=TopologySpec("mesh8"), jammer_channel=1, jammer_x=500.0,
        jammer_y=100.0, jammer_on_s=0.003, jammer_off_s=0.002)),
    ("mesh8-jammer-always-on", ScenarioConfig(
        topology=TopologySpec("mesh8"), jammer_channel=1, jammer_x=100.0,
        jammer_y=-80.0, jammer_on_s=1000.0)),
    ("chain5-overlapping-theta0", chain_cfg(5, channel_plan="overlapping", theta=0.0)),
    ("chain5-overlapping-theta1", chain_cfg(5, channel_plan="overlapping", theta=1.0)),
)


def drive_medium(cfg, seed, steps=400):
    """A seeded random transmission set on cfg's topology, registered in time
    order, with three carrier-sense and three corruption queries after each
    registration; the oracle checks every answer."""
    rng = random.Random(seed)
    topo = build_topology(cfg)
    durations = (1, 2, 3, 8, 66)        # in ticks; 66 is one 8 ms data frame
    horizon = max(durations) * TICK + SLOT_TIME
    medium = OracleMedium(topo, cfg, horizon)
    tick = 0
    for _ in range(steps):
        tick += rng.choice((0, 1, 2, 6, 20, 40))
        now = tick * TICK
        sender = rng.choice(topo.nodes)
        start = tick + rng.choice((0, 0, 1))
        medium.register(sender.node_id, rng.choice(sender.channels), start * TICK,
                        (start + rng.choice(durations)) * TICK, now)
        recent = [tx for tx in medium.every_tx[-40:] if tx.t_start >= now - horizon]
        for _ in range(3):
            # mostly a channel the node has, sometimes any channel of the band
            node = rng.choice(topo.nodes)
            channel = rng.choice((*node.channels, rng.randint(1, 11)))
            medium.carrier_busy(node.node_id, channel, now)
            subject = rng.choice(recent)
            node = rng.choice(topo.nodes)
            channel = rng.choice((subject.channel, rng.randint(1, 11)))
            medium.corrupted(node.node_id, channel, subject)
    # the head of the list was pruned along the way
    assert len(medium.on_air) < len(medium.every_tx)
    return medium.answers


def test_medium_matches_brute_force_on_random_transmissions():
    t0 = time.monotonic()
    for name, cfg in DIRECT_CASES:
        seen = drive_medium(cfg, seed=len(name))
        jam = seen.pop("jammer")
        assert sum(seen.values()) == 2400, (name, seen)
        assert (jam > 0) is (cfg.jammer_channel is not None), (name, jam)
        if cfg.theta == 1.0:
            # no interference factor exceeds 1, co-channel included
            assert seen["busy"] == seen["corrupt"] == 0, (name, seen)
        else:
            assert min(seen.values()) > 0, (name, seen)
    assert time.monotonic() - t0 < 1.0


class OrderedListMedium(Medium):
    """Checks the in-flight list after every registration."""

    def __init__(self, *args):
        super().__init__(*args)
        self.registered = 0
        self.inserted = 0

    def register(self, sender, channel, t_start, t_end, now):
        tx = super().register(sender, channel, t_start, t_end, now)
        ends = [t.t_end for t in self.on_air]
        assert ends == sorted(ends)
        assert self.on_air_ends == ends
        assert all(end > now - self.horizon for end in ends)
        assert any(t is tx for t in self.on_air)
        self.registered += 1
        self.inserted += self.on_air[-1] is not tx
        return tx


@pytest.mark.parametrize("name", ["random15-200kbps", "chain5-20-byte-data"])
def test_in_flight_list_stays_ordered_and_pruned(name, monkeypatch):
    monkeypatch.setattr(engine, "Medium", OrderedListMedium)
    sim = Sim(dict(ORACLE_CASES)[name], RouteMetric.HOP_COUNT, "x")
    sim.run()
    medium = sim.medium
    # both ways in: appended at the tail, and inserted ahead of a frame
    # that ends later; and the head was pruned along the way
    assert 0 < medium.inserted < medium.registered
    assert len(medium.on_air) < medium.registered
