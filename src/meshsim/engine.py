"""Deterministic discrete-event core: the event loop, the RTS/CTS + backoff
exchange machinery over the shared radio medium (`medium`), hello probing,
on-demand route establishment, and a reliable windowed transport that
generates RTT-measurable traffic.

Determinism contract: one seeded generator drives every draw, events
dispatch in (time, insertion ordinal) order, and all container iteration is
in sorted key order, so identical (config, seed) reproduces the run
byte for byte.

Control frames (route request/reply floods) travel out of band at a fixed
per-hop latency; only data, acknowledgements, and hello probes contend for
the simulated spectrum.  This keeps hop-count discovery exactly equal to
shortest-hop paths on the connectivity graph while every routing METRIC is
still measured in band.

Route lifecycle: a source without a route runs discovery: `_best_path`
resolves a path under the phase's metric, and a search that finds none is
tried again DISCOVERY_TIMEOUT later, up to DISCOVERY_ATTEMPTS tries.  The
found path is installed, both ways, in every node along it once the reply
has crossed it.  An install restarts the window of every flow of its
(src, dst) pair, and each use of a route keeps it alive for another
ROUTE_LIFETIME.  Under the RTT metric a flow's route is then re-evaluated
every ROUTE_REEVAL_S (5 s) by one least-RTT search, and switched when the
found path's measured cost is under REROUTE_GAIN of the current one's, a
gain of at least 20%.  Only discovery falls back to hop count: such a path
has an unmeasured link, costs inf, and could never win a re-evaluation.

Under `channel_plan = pcl` each node beacons every BEACON_INTERVAL_S: it
claims the lowest channel no interference neighbour has claimed since its
own last claim of it (channel 1 when every channel is so claimed), marks it
claimed at each such neighbour, and retunes its last radio to it if idle.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from .channel import ALL_CHANNELS
from .config import ScenarioConfig
from .mac import (
    BackoffOutcome,
    DIFS,
    EnqueueResult,
    Frame,
    FrameKind,
    MacRadioState,
    SIFS,
    SLOT_TIME,
    RETRY_LIMIT,
    RTS_BYTES,
    CTS_BYTES,
    MAC_ACK_BYTES,
    RtsDecision,
    SimulationFault,
    rts_handler,
)
from .medium import Medium, Transmission
from .metrics import FlowStats, RunSummary, summarize
from .routing import (
    HELLO_INTERVAL,
    ROUTE_LIFETIME,
    DISCOVERY_ATTEMPTS,
    DISCOVERY_TIMEOUT,
    NeighborRecord,
    RouteEntry,
    RouteMetric,
    RouteTable,
    RttEstimator,
    aodv_discover,
    cumulative_rtt,  # unused here; benchmark/layers.py times it by this name
    neighbor_record,
    process_hello,
    rtt_sample,
)
from .topology import Topology, build_topology, resolve_flows

CONTROL_HOP_LATENCY_S = 0.001
FLOW_START_S = 3.0
HELLO_BYTES = 32
TRANSPORT_ACK_BYTES = 40
TRANSPORT_RETRY_LIMIT = 7
RTO_INITIAL_S = 1.0
RTO_MIN_S = 0.1
RTO_MAX_S = 10.0
BEACON_INTERVAL_S = 5.0
ROUTE_REEVAL_S = 5.0
# a candidate route must beat the current one by this factor before a
# re-evaluation switches; near-ties would otherwise flap on sample noise
REROUTE_GAIN = 0.8
TIMEOUT_SLACK_S = 2 * SLOT_TIME
# one line of the event trace: time, label, node; its bytes feed the trace hash
TRACE_LINE = "%.9f %s n%s\n"
# the loop formats only an event's time; the rest of its line, the tag, is
# formatted once per (label, node) and carried by the heap entry
_TIME_FORMAT, _TAG_FORMAT = TRACE_LINE.split(" ", 1)
_LINE_FORMAT = (_TIME_FORMAT + "%b").encode()


@functools.lru_cache(maxsize=None)
def trace_tag(label: str, node: int) -> bytes:
    """The bytes that follow the time in an event's trace line; cached, one
    entry per label and node id, a handful of labels per node."""
    return (" " + _TAG_FORMAT % (label, node)).encode()


class Exchange:
    """One RTS/CTS/DATA/ACK handshake in progress; the object itself is the
    identity a timeout checks against."""

    __slots__ = ("state",)

    def __init__(self, state: str):
        self.state = state          # "wait_cts" | "wait_ack"


class NodeState:
    __slots__ = ("radios", "records", "route_table", "claimed")

    def __init__(self, node_id: int, channels, capacity: int, use_pcl: bool):
        self.radios = [MacRadioState(node_id, ch, capacity) for ch in channels]
        self.records: Dict[int, NeighborRecord] = {}
        self.route_table = RouteTable()
        # pcl plan only: the channels an interference neighbour has claimed
        # since this node last claimed them itself
        self.claimed: Optional[Set[int]] = set() if use_pcl else None


class UnackedPacket:
    __slots__ = ("seq", "first_send", "rto", "retx", "copies")

    def __init__(self, seq: int, first_send: float, rto: float):
        self.seq = seq
        self.first_send = first_send
        self.rto = rto
        self.retx = 0
        self.copies = 0


class FlowRuntime:
    __slots__ = ("flow_id", "src", "dst", "unacked", "stats", "estimator",
                 "rto", "delivered_seqs", "copies_injected", "copies_delivered",
                 "copies_mac_discarded")

    def __init__(self, flow_id: int, src: int, dst: int, delta: float):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.unacked: Dict[int, UnackedPacket] = {}
        self.stats = FlowStats()
        self.estimator = RttEstimator(delta=delta)
        self.rto = RTO_INITIAL_S
        self.delivered_seqs = set()
        self.copies_injected = 0
        self.copies_delivered = 0
        self.copies_mac_discarded = 0


@dataclass
class SimResult:
    summary: RunSummary
    flow_stats: List[FlowStats]
    n_nodes: int
    n_hops: Optional[int]
    trace_hash: str
    corrupted_receptions: int
    dispatched_events: int
    link_costs: Dict[Tuple[int, int], float]
    route_rows: List[Tuple[int, RouteEntry]]
    counters: Dict[str, float]


class Sim:
    """One scenario phase: a full packet-level run under a single metric."""

    def __init__(self, config: ScenarioConfig, metric: RouteMetric,
                 protocol_label: str, topology: Optional[Topology] = None,
                 seed_link_costs: Optional[Dict[Tuple[int, int], float]] = None,
                 trace_file=None):
        self.config = config
        self.metric = metric
        self.protocol_label = protocol_label
        self.topo = topology if topology is not None else build_topology(config)
        self.rng = random.Random(config.seed)
        self.now = 0.0
        self._heap: List[tuple] = []
        self._ordinals = itertools.count()   # same-time events run in scheduling order
        self._uid = 0
        self._hash = hashlib.sha256()
        self._trace_file = trace_file
        self.dispatched = 0
        self.corrupted_receptions = 0
        # hello_queue_drops counts every hello _enqueue refused: a full
        # queue, or a neighbour that shares no current channel (pcl retunes)
        self.counters: Dict[str, float] = {
            "route_misses": 0, "hello_queue_drops": 0, "mac_discards": 0,
            "pcl_retunes": 0,
        }

        self.rate = config.data_rate_bps
        self.rts_air = self._air(RTS_BYTES)
        self.cts_air = self._air(CTS_BYTES)
        self.mac_ack_air = self._air(MAC_ACK_BYTES)
        self.data_air = self._air(config.packet_size_bytes)
        self.rts_decide = rts_handler(config.traffic_class)
        self.rts_mode = config.rts_mode

        use_pcl = config.channel_plan == "pcl"
        self.nodes: Dict[int, NodeState] = {
            n.node_id: NodeState(n.node_id, n.channels, config.queue_capacity, use_pcl)
            for n in self.topo.nodes
        }
        # no pending reception started longer ago than the longest frame's
        # airtime; a slot of slack keeps that bound clear of float rounding
        # in start + airtime
        self.medium = Medium(self.topo, config, self._air(max(
            config.packet_size_bytes, RTS_BYTES, CTS_BYTES, MAC_ACK_BYTES,
            HELLO_BYTES, TRANSPORT_ACK_BYTES)) + SLOT_TIME)
        self._register = self.medium.register

        # a flow's id is its index here
        self.flows: List[FlowRuntime] = [
            FlowRuntime(i, src, dst, config.delta)
            for i, (src, dst) in enumerate(resolve_flows(config, self.topo))]

        self._discovering: Set[Tuple[int, int]] = set()
        self._flow_paths: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._reeval_at: Dict[Tuple[int, int], float] = {}

        if seed_link_costs:
            for (u, v), cost_ms in seed_link_costs.items():
                if u not in self.nodes or v not in self.topo.comm_adjacency.get(u, ()):
                    continue
                neighbor_record(self.nodes[u].records, v,
                                config.delta).link_estimator.update(cost_ms)

    # -- plumbing ---------------------------------------------------------

    def schedule(self, t: float, label: str, node: int, fn, *args):
        """Run fn(*args) at time t, traced as `label` at `node`.  Every event
        enters the heap here, carrying its trace tag."""
        if t < self.now:
            raise SimulationFault(f"scheduling into the past: {t} < {self.now}")
        heappush(self._heap, (t, next(self._ordinals), trace_tag(label, node), fn, args))

    def _air(self, size_bytes: int) -> float:
        return size_bytes * 8 / self.rate

    def _new_uid(self) -> int:
        self._uid += 1
        return self._uid

    def _radio_on_channel(self, node_id: int, channel: int) -> Optional[MacRadioState]:
        for r in self.nodes[node_id].radios:
            if r.channel == channel:
                return r
        return None

    # -- medium -----------------------------------------------------------

    # the benchmark's tracer (benchmark/layers.py) patches and counts these
    # two by name, so they stay methods of Sim that forward to the medium

    def carrier_busy(self, node_id: int, channel: int) -> Tuple[bool, float]:
        return self.medium.carrier_busy(node_id, channel, self.now)

    def corrupted(self, node_id: int, channel: int, subject: Transmission) -> bool:
        return self.medium.corrupted(node_id, channel, subject)

    def _transmit(self, sender: MacRadioState, receiver: Optional[MacRadioState],
                  start: float, airtime: float, on_arrival, *args) -> float:
        """Put one frame on the air from start for airtime seconds; unless
        receiver is None, it reaches on_arrival(receiver, *args) there if it
        arrives clean.  Returns the end of its airtime."""
        tx = self._register(sender.node_id, sender.channel, start,
                            start + airtime, self.now)
        if receiver is not None:
            self.schedule(tx.t_end, "FrameArrival", receiver.node_id,
                          self._receive, receiver, tx, on_arrival, args)
        return tx.t_end

    def _receive(self, radio: MacRadioState, tx: Transmission, on_arrival, args):
        if self.corrupted(radio.node_id, radio.channel, tx):
            self.corrupted_receptions += 1
            return
        on_arrival(radio, *args)

    # -- MAC access machinery ----------------------------------------------

    def kick(self, radio: MacRadioState, at: float):
        """Schedule one access attempt at `at`, unless the radio is busy in
        a handshake, already has one pending, or has nothing to send."""
        if radio.exchange is not None or radio.access_pending or not radio.queue:
            return
        radio.access_pending = True
        self.schedule(at, "TimerFire", radio.node_id, self._try_access, radio)

    def _enqueue(self, node_id: int, frame: Frame) -> bool:
        """Queue a frame on the node's radio on the lowest channel it shares
        with frame.dst; False on drop."""
        radio = None
        peers = self.nodes[frame.dst].radios
        for r in self.nodes[node_id].radios:
            if radio is None or r.channel < radio.channel:
                for peer in peers:
                    if peer.channel == r.channel:
                        radio = r
                        break
        if radio is None:
            return False
        result = radio.enqueue(frame, self.now)
        if result is EnqueueResult.DROPPED_QUEUE_FULL:
            return False
        self.kick(radio, self.now)
        return True

    def _backoff_wait(self, radio: MacRadioState) -> float:
        # randrange(cw + 1) draws what randint(0, cw) draws, more cheaply
        return DIFS + self.rng.randrange(radio.backoff.cw + 1) * SLOT_TIME

    def _try_access(self, radio: MacRadioState):
        radio.access_pending = False
        if radio.exchange is not None or not radio.queue:
            return
        if self.now < radio.rx_engaged_until:
            self.kick(radio, radio.rx_engaged_until + self._backoff_wait(radio))
            return
        busy, free_at = self.carrier_busy(radio.node_id, radio.channel)
        if busy:
            self.kick(radio, max(free_at, self.now) + self._backoff_wait(radio))
            return
        frame = radio.queue[0]
        peer = self._radio_on_channel(frame.dst, radio.channel)
        ex = radio.exchange = Exchange("wait_cts")
        rts_end = self._transmit(radio, peer, self.now, self.rts_air,
                                 self._rts_arrival, radio, frame)
        deadline = rts_end + SIFS + self.cts_air + TIMEOUT_SLACK_S
        self.schedule(deadline, "TimerFire", radio.node_id,
                      self._exchange_timeout, radio, ex, "wait_cts")

    def _rts_arrival(self, rx_radio: MacRadioState, tx_radio: MacRadioState, frame: Frame):
        if rx_radio.exchange is not None or self.now < rx_radio.rx_engaged_until:
            return
        # a plain loop: a comprehension costs a frame of its own before 3.12
        active = []
        for r in self.nodes[rx_radio.node_id].radios:
            if r is not rx_radio \
                    and (r.exchange is not None or r.rx_engaged_until > self.now):
                active.append(r.channel)
        if active and self.rts_decide(rx_radio.channel, active,
                                      mode=self.rts_mode) is RtsDecision.DEFER:
            return
        rx_radio.rx_engaged_until = (self.now + SIFS + self.cts_air + SIFS
                                     + self._air(frame.size_bytes) + SIFS
                                     + self.mac_ack_air + TIMEOUT_SLACK_S)
        self._transmit(rx_radio, tx_radio, self.now + SIFS, self.cts_air,
                       self._cts_arrival, rx_radio, frame)

    def _cts_arrival(self, tx_radio: MacRadioState, rx_radio: MacRadioState, frame: Frame):
        ex = tx_radio.exchange
        if ex is None or ex.state != "wait_cts":
            return
        # contention is resolved the instant the CTS lands; the data frame
        # itself leaves one guard interval later
        tx_radio.release_head_to_medium(self.now)
        ex.state = "wait_ack"
        data_end = self._transmit(tx_radio, rx_radio, self.now + SIFS,
                                  self._air(frame.size_bytes),
                                  self._data_arrival, tx_radio, frame)
        deadline = data_end + SIFS + self.mac_ack_air + TIMEOUT_SLACK_S
        self.schedule(deadline, "TimerFire", tx_radio.node_id,
                      self._exchange_timeout, tx_radio, ex, "wait_ack")

    def _data_arrival(self, rx_radio: MacRadioState, tx_radio: MacRadioState, frame: Frame):
        self._transmit(rx_radio, tx_radio, self.now + SIFS, self.mac_ack_air,
                       self._mac_ack_arrival)
        if rx_radio.delivered_uid_from.get(frame.src) == frame.uid:
            return                      # retransmitted copy already handed up
        rx_radio.delivered_uid_from[frame.src] = frame.uid
        self._deliver_up(rx_radio.node_id, frame)

    def _mac_ack_arrival(self, tx_radio: MacRadioState):
        ex = tx_radio.exchange
        if ex is None or ex.state != "wait_ack":
            return
        frame = tx_radio.pop_head(self.now)
        if tx_radio.backoff.retries == 0:
            # first try: measured from queue head so a sender's own backlog
            # does not poison the link estimate, and rescaled to the nominal
            # data size so probe samples and data samples are comparable
            raw = rtt_sample(frame.t_h, self.now)
            adjust = (self.data_air - self._air(frame.size_bytes)) * 1000.0
            records = self.nodes[tx_radio.node_id].records
            neighbor_record(records, frame.dst,
                            self.config.delta).link_estimator.update(raw + adjust)
        tx_radio.backoff.next(BackoffOutcome.SUCCESS, self.rng)
        tx_radio.exchange = None
        self.kick(tx_radio, self.now + DIFS)

    def _crossed(self, radio: MacRadioState, frame: Frame) -> bool:
        """Whether the data of a frame queued on radio already reached the
        next hop, which handed it up: it lives on downstream, pending only
        a local acknowledgement."""
        peer = self._radio_on_channel(frame.dst, radio.channel)
        return peer is not None and peer.delivered_uid_from.get(radio.node_id) == frame.uid

    def _exchange_timeout(self, radio: MacRadioState, ex: Exchange, phase: str):
        if radio.exchange is not ex or ex.state != phase:
            return
        radio.exchange = None
        slots = radio.backoff.next(BackoffOutcome.BUSY, self.rng)
        if radio.backoff.retries > RETRY_LIMIT:
            frame = radio.pop_head(self.now)
            radio.backoff.reset()
            self.counters["mac_discards"] += 1
            # a copy whose data crossed but whose acknowledgements kept dying
            # lives on at the next hop; only count a true loss
            if frame.kind is FrameKind.DATA and not self._crossed(radio, frame):
                self.flows[frame.flow_id].copies_mac_discarded += 1
            self.kick(radio, self.now + DIFS)
            return
        self.kick(radio, self.now + DIFS + slots * SLOT_TIME)

    # -- upper layers -------------------------------------------------------

    def _deliver_up(self, node_id: int, frame: Frame):
        if frame.kind is FrameKind.HELLO:
            process_hello(self.nodes[node_id].records, frame.src, self.now,
                          self.config.delta)
            return
        flow = self.flows[frame.flow_id]
        if frame.kind is FrameKind.DATA and node_id == flow.dst:
            flow.copies_delivered += 1
            if frame.seq not in flow.delivered_seqs:
                flow.delivered_seqs.add(frame.seq)
                flow.stats.packets_received_at_gateway += 1
                flow.stats.bytes_received += frame.size_bytes
                flow.stats.e2e_delays.append((self.now - frame.born) * 1000.0)
            self._send(flow, node_id, self._route_next_hop(node_id, flow.src),
                       FrameKind.ACK, frame.seq, self._new_uid(), self.now,
                       TRANSPORT_ACK_BYTES)
        elif frame.kind is FrameKind.ACK and node_id == flow.src:
            self._transport_ack_received(flow, frame.seq)
        else:
            toward = flow.dst if frame.kind is FrameKind.DATA else flow.src
            self._send(flow, node_id, self._route_next_hop(node_id, toward),
                       frame.kind, frame.seq, frame.uid, frame.born, frame.size_bytes)

    def _send(self, flow: FlowRuntime, node_id: int, next_hop: Optional[int],
              kind: FrameKind, seq: int, uid: int, born: float, size_bytes: int):
        """Queue one hop of a flow's data or transport ACK at node_id toward
        next_hop, which the caller looked up: None is a route miss.  A data
        copy that cannot be queued is counted as dropped."""
        if next_hop is None:
            self.counters["route_misses"] += 1
        elif self._enqueue(node_id, Frame(
                kind=kind, src=node_id, dst=next_hop, size_bytes=size_bytes,
                flow_id=flow.flow_id, seq=seq, uid=uid, born=born)):
            return
        if kind is FrameKind.DATA:
            flow.stats.drops_queue += 1

    def _transport_ack_received(self, flow: FlowRuntime, seq: int):
        rec = flow.unacked.pop(seq, None)
        if rec is None:
            return
        sample = rtt_sample(rec.first_send, self.now)
        flow.stats.rtt_samples.append(sample)
        if rec.copies == 1:
            # a retransmitted packet cannot tell which copy this ack answers,
            # so only clean exchanges feed the timeout estimator
            flow.estimator.update(sample)
            flow.rto = min(max(2.0 * flow.estimator.average_rtt / 1000.0,
                               RTO_MIN_S), RTO_MAX_S)
        self._fill_window(flow)

    def _fill_window(self, flow: FlowRuntime):
        while len(flow.unacked) < self.config.window:
            next_hop = self._route_next_hop(flow.src, flow.dst)
            if next_hop is None:
                self._request_discovery(flow.src, flow.dst)
                return
            seq = flow.stats.packets_sent
            flow.stats.packets_sent += 1
            rec = UnackedPacket(seq, self.now, flow.rto)
            flow.unacked[seq] = rec
            self._inject_copy(flow, rec, next_hop)
            self.schedule(self.now + rec.rto, "RtoExpiry", flow.src,
                          self._rto_expiry, flow, seq, rec.retx)

    def _inject_copy(self, flow: FlowRuntime, rec: UnackedPacket, next_hop: int):
        rec.copies += 1
        flow.copies_injected += 1
        self._send(flow, flow.src, next_hop, FrameKind.DATA, rec.seq,
                   self._new_uid(), rec.first_send, self.config.packet_size_bytes)

    def _rto_expiry(self, flow: FlowRuntime, seq: int, retx: int):
        rec = flow.unacked.get(seq)
        if rec is None or rec.retx != retx:
            return
        rec.retx += 1
        if rec.retx > TRANSPORT_RETRY_LIMIT:
            del flow.unacked[seq]
            if seq not in flow.delivered_seqs:
                flow.stats.drops_retry += 1
            self._fill_window(flow)
            return
        rec.rto = min(rec.rto * 2.0, RTO_MAX_S)
        next_hop = self._route_next_hop(flow.src, flow.dst)
        if next_hop is not None:
            self._inject_copy(flow, rec, next_hop)
        else:
            self._request_discovery(flow.src, flow.dst)
        self.schedule(self.now + rec.rto, "RtoExpiry", flow.src,
                      self._rto_expiry, flow, seq, rec.retx)

    # -- routing ------------------------------------------------------------

    def _route_next_hop(self, node_id: int, dst: int) -> Optional[int]:
        entry = self.nodes[node_id].route_table.lookup(dst, self.now)
        if entry is None:
            return None
        entry.expires_at = self.now + ROUTE_LIFETIME
        return entry.next_hop

    def _measured_cost(self, u: int, v: int) -> float:
        rec = self.nodes[u].records.get(v)
        if rec is None or not rec.link_estimator.seeded \
                or not rec.is_active(self.now):
            return math.inf
        return rec.link_estimator.average_rtt

    def _path_cost(self, path) -> float:
        return sum(self._measured_cost(u, v) for u, v in zip(path, path[1:]))

    def _measured_sum(self, links) -> float:
        """Measured cost of the (u, v) links summed in the given order,
        leaving out links with no usable measurement."""
        return sum(c for c in (self._measured_cost(u, v) for u, v in links)
                   if not math.isinf(c))

    def _best_path(self, src: int, dst: int) -> Optional[List[int]]:
        """Discovery's path: least measured RTT under AVG_RTT, else fewest
        hops (when no path has every link measured); None when none exists."""
        adjacency = self.topo.comm_adjacency
        path = aodv_discover(adjacency, src, dst, link_cost=self._measured_cost) \
            if self.metric is RouteMetric.AVG_RTT else None
        return path or aodv_discover(adjacency, src, dst)

    def _request_discovery(self, src: int, dst: int):
        if (src, dst) not in self._discovering:
            self._attempt_discovery(src, dst, 1)

    def _attempt_discovery(self, src: int, dst: int, attempt: int):
        path = self._best_path(src, dst)
        if path is not None:
            self._install_after_reply(src, dst, path)
        elif attempt < DISCOVERY_ATTEMPTS:
            self._discovering.add((src, dst))
            self.schedule(self.now + DISCOVERY_TIMEOUT, "TimerFire", src,
                          self._attempt_discovery, src, dst, attempt + 1)
        else:
            self._discovering.discard((src, dst))

    def _install_after_reply(self, src: int, dst: int, path: List[int]):
        """Install path once the route reply has crossed it back; the pair
        stays under discovery until then."""
        self._discovering.add((src, dst))
        latency = 2 * (len(path) - 1) * CONTROL_HOP_LATENCY_S
        self.schedule(self.now + latency, "TimerFire", src,
                      self._install_route, src, dst, tuple(path))

    def _install_route(self, src: int, dst: int, path: Tuple[int, ...]):
        self._discovering.discard((src, dst))
        expiry = self.now + ROUTE_LIFETIME
        total = len(path) - 1
        for i, node_id in enumerate(path):
            table = self.nodes[node_id].route_table
            if i < total:
                table.install(RouteEntry(
                    destination=dst, next_hop=path[i + 1], hop_count=total - i,
                    rtt_cost=self._measured_sum(zip(path[i:], path[i + 1:])),
                    expires_at=expiry))
            if i > 0:
                table.install(RouteEntry(
                    destination=src, next_hop=path[i - 1], hop_count=i,
                    rtt_cost=self._measured_sum(zip(path[1:i + 1], path[:i])),
                    expires_at=expiry))
        self._flow_paths[(src, dst)] = path
        # refilling every flow of the pair restarts exactly those whose last
        # route lookup failed: between events a started flow has either a
        # full window, on which _fill_window returns at once with no draw and
        # no event, or such a failed lookup; and no route is installed before
        # the flows start, since discovery begins only in _fill_window,
        # _rto_expiry or a re-evaluation, and a reply takes 2 ms per hop
        for flow in self.flows:
            if flow.src == src and flow.dst == dst:
                self._fill_window(flow)
        if self.metric is RouteMetric.AVG_RTT:
            # measured link costs drift, so flow routes are checked on a
            # fixed cadence instead of living forever on use
            self._schedule_reeval(src, dst)

    def _schedule_reeval(self, src: int, dst: int):
        # one re-evaluation chain per flow; a fresh install while a tick is
        # already pending must not fork a second chain
        when = self.now + ROUTE_REEVAL_S
        if self._reeval_at.get((src, dst), -1.0) > self.now:
            return
        self._reeval_at[(src, dst)] = when
        self.schedule(when, "TimerFire", src, self._route_reeval, src, dst)

    def _route_reeval(self, src: int, dst: int):
        if (src, dst) in self._discovering:
            return
        if self.nodes[src].route_table.lookup(dst, self.now) is None:
            self._attempt_discovery(src, dst, 1)
            return
        current = self._flow_paths[(src, dst)]
        # None when every path has a link with no usable measurement
        best = aodv_discover(self.topo.comm_adjacency, src, dst,
                             link_cost=self._measured_cost)
        if best is not None and tuple(best) != current \
                and self._path_cost(best) < self._path_cost(current) * REROUTE_GAIN:
            self._install_after_reply(src, dst, best)
            return
        self._schedule_reeval(src, dst)

    # -- periodic drivers -----------------------------------------------------

    def _hello_tick(self, node_id: int):
        for v in sorted(self.topo.comm_adjacency[node_id]):
            hello = Frame(kind=FrameKind.HELLO, src=node_id, dst=v,
                          size_bytes=HELLO_BYTES, uid=self._new_uid())
            if not self._enqueue(node_id, hello):
                self.counters["hello_queue_drops"] += 1
        self.schedule(self.now + HELLO_INTERVAL, "HelloTick", node_id,
                      self._hello_tick, node_id)

    def _beacon_tick(self, node_id: int):
        node = self.nodes[node_id]
        choice = min((ch for ch in ALL_CHANNELS if ch not in node.claimed),
                     default=ALL_CHANNELS[0])
        node.claimed.discard(choice)
        for other_id in self.topo.interference_candidates[node_id]:
            self.nodes[other_id].claimed.add(choice)
        # the last radio follows the claimed channel once it has drained;
        # the first radio stays on its planned channel so the baseline
        # connectivity never fully disappears
        spare = node.radios[-1]
        if len(node.radios) > 1 and spare.channel != choice \
                and spare.exchange is None and not spare.queue \
                and spare.rx_engaged_until <= self.now:
            spare.channel = choice
            self.counters["pcl_retunes"] += 1
        self.schedule(self.now + BEACON_INTERVAL_S, "BeaconTick", node_id,
                      self._beacon_tick, node_id)

    # -- run ------------------------------------------------------------------

    def run(self) -> SimResult:
        sim_time = self.config.sim_time_s
        if sim_time > 0:
            for node_id in sorted(self.nodes):
                offset = self.rng.random() * HELLO_INTERVAL
                self.schedule(offset, "HelloTick", node_id, self._hello_tick, node_id)
                if self.nodes[node_id].claimed is not None:
                    self.schedule(offset + self.rng.random() * BEACON_INTERVAL_S,
                                  "BeaconTick", node_id, self._beacon_tick, node_id)
            for flow in self.flows:
                self.schedule(min(FLOW_START_S, sim_time), "FlowSendWindow",
                              flow.src, self._fill_window, flow)
        heap = self._heap
        hash_update = self._hash.update
        write = self._trace_file.write if self._trace_file is not None else None
        line_format = _LINE_FORMAT
        dispatched = 0
        while heap and heap[0][0] <= sim_time:
            t, _, tag, fn, args = heappop(heap)
            if t < self.now:
                raise SimulationFault("event clock moved backwards")
            self.now = t
            dispatched += 1
            line = line_format % (t, tag)
            hash_update(line)
            if write is not None:
                write(line.decode())
            fn(*args)
        self.dispatched = dispatched
        # the events left over hold bound methods of this Sim; dropping them
        # breaks that cycle, so a finished run is freed without the collector
        heap.clear()
        self.now = sim_time
        line = line_format % (sim_time, trace_tag("SimEnd", -1))
        hash_update(line)
        if write is not None:
            write(line.decode())
        self._check_conservation()
        return self._result()

    def _check_conservation(self):
        residual = [0] * len(self.flows)
        for node_id in sorted(self.nodes):
            for radio in self.nodes[node_id].radios:
                for frame in radio.queue:
                    if frame.kind is FrameKind.DATA and not self._crossed(radio, frame):
                        residual[frame.flow_id] += 1
        for fid, flow in enumerate(self.flows):
            balance = (flow.copies_delivered + flow.stats.drops_queue
                       + flow.copies_mac_discarded + residual[fid])
            if flow.copies_injected != balance:
                raise SimulationFault(
                    f"flow {fid} copy conservation broken: injected "
                    f"{flow.copies_injected} != accounted {balance}")
            flow.stats.in_flight_at_end = sum(
                1 for seq in flow.unacked if seq not in flow.delivered_seqs)
            unique = (flow.stats.packets_received_at_gateway
                      + flow.stats.drops_retry + flow.stats.in_flight_at_end)
            if flow.stats.packets_sent != unique:
                raise SimulationFault(
                    f"flow {fid} packet conservation broken: sent "
                    f"{flow.stats.packets_sent} != accounted {unique}")

    def final_link_costs(self) -> Dict[Tuple[int, int], float]:
        costs = {}
        for node_id in sorted(self.nodes):
            for v in sorted(self.nodes[node_id].records):
                rec = self.nodes[node_id].records[v]
                if rec.link_estimator.seeded:
                    costs[(node_id, v)] = rec.link_estimator.average_rtt
        return costs

    def _result(self) -> SimResult:
        stats = [flow.stats for flow in self.flows]
        sim_time = self.config.sim_time_s
        if sim_time > 0:
            summary = summarize(stats, sim_time, self.protocol_label)
        else:
            summary = RunSummary(0.0, None, None, None, self.protocol_label)
        first = self.flows[0]
        first_path = self._flow_paths.get((first.src, first.dst))
        route_rows = []
        for node_id in sorted(self.nodes):
            for entry in self.nodes[node_id].route_table.rows():
                route_rows.append((node_id, entry))
        return SimResult(
            summary=summary,
            flow_stats=stats,
            n_nodes=len(self.nodes),
            n_hops=None if first_path is None else len(first_path) - 1,
            trace_hash=self._hash.hexdigest(),
            corrupted_receptions=self.corrupted_receptions,
            dispatched_events=self.dispatched,
            link_costs=self.final_link_costs(),
            route_rows=route_rows,
            counters=dict(self.counters),
        )
