"""Route state and selection: EWMA link estimation, hellos, and on-demand
route discovery under hop-count or RTT metrics.

The engine forwards every packet, gateway-bound or not, on routes that
`aodv_discover` resolves under the phase's link cost and installs in each
node's `RouteTable`.  A hello carries no advert: its receiver only notes
when the sender was last heard, and its MAC exchange gives the sender an RTT
sample of the link.  The engine never calls `cumulative_rtt` (one
distance-vector step toward the gateway); it stays because the benchmark's
tracer times it by name.

The route lifecycle (discovery, install, re-evaluation, switching) is
described once, in the `engine` module docstring; the engine drives it with
the timing constants below.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .mac import SimulationFault

HELLO_INTERVAL = 1.0
HELLO_TIMEOUT = 3.0 * HELLO_INTERVAL   # three missed hellos
ROUTE_LIFETIME = 10.0
DISCOVERY_TIMEOUT = 1.0
DISCOVERY_ATTEMPTS = 3


class RouteMetric(enum.Enum):
    HOP_COUNT = "HopCount"
    AVG_RTT = "AvgRtt"


def rtt_sample(send_time: float, ack_time: float) -> float:
    """Round-trip sample in milliseconds from send and ACK instants (seconds)."""
    if ack_time < send_time:
        raise SimulationFault(f"ACK at {ack_time} precedes send at {send_time}")
    return (ack_time - send_time) * 1000.0


class RttEstimator:
    """Exponentially weighted RTT average.

    The average is None until the first sample, which sets it outright, so
    no prior biases early route choices; each later sample moves it by
    delta of the difference.  Samples from retransmitted packets must not be
    fed in (the caller owns that exclusion).
    """

    __slots__ = ("delta", "average_rtt")

    def __init__(self, delta: float):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        self.delta = delta
        self.average_rtt: Optional[float] = None

    @property
    def seeded(self) -> bool:
        return self.average_rtt is not None

    def update(self, sample: float) -> float:
        if sample < 0:
            raise SimulationFault(f"negative RTT sample {sample}")
        if self.average_rtt is None:
            self.average_rtt = sample
        else:
            difference = sample - self.average_rtt
            self.average_rtt = self.average_rtt + self.delta * difference
        return self.average_rtt


@dataclass(slots=True)
class NeighborRecord:
    last_hello_at: float
    link_estimator: RttEstimator

    def is_active(self, now: float) -> bool:
        return now - self.last_hello_at <= HELLO_TIMEOUT


def neighbor_record(records: Dict[int, NeighborRecord], neighbor: int,
                    delta: float) -> NeighborRecord:
    """The record kept for one neighbor, created on first use as never heard
    from, so it stays inactive until a hello arrives; its link estimator
    smooths with weight delta."""
    rec = records.get(neighbor)
    if rec is None:
        rec = records[neighbor] = NeighborRecord(-1e9, RttEstimator(delta))
    return rec


def process_hello(records: Dict[int, NeighborRecord], sender: int, now: float,
                  delta: float) -> NeighborRecord:
    rec = neighbor_record(records, sender, delta)
    rec.last_hello_at = now
    return rec


def cumulative_rtt(node: int, neighbors: Iterable[Tuple[NeighborRecord, float]],
                   gateway: int, now: float) -> float:
    """Minimum summed link RTT from this node to the gateway, in ms.

    neighbors holds one (record, advertised_ms) pair per neighbor: its
    record and its own cumulative RTT to the gateway.  The result adds the
    measured link to each active neighbor's figure and keeps the least.
    Unreachable is reported as infinity, never as an exception, because a
    node with no usable neighbor is a steady state, not a fault.
    """
    if node == gateway:
        return 0.0
    best = math.inf
    for rec, advertised_ms in neighbors:
        if not rec.is_active(now):
            continue
        if not rec.link_estimator.seeded or math.isinf(advertised_ms):
            continue
        best = min(best, rec.link_estimator.average_rtt + advertised_ms)
    return best


def aodv_discover(adjacency: Dict[int, Iterable[int]], src: int, dst: int,
                  link_cost=None) -> Optional[List[int]]:
    """Resolve one route on the control plane's connectivity graph: the
    least-cost path from src to dst, or None when no usable path exists or
    an endpoint is unknown.

    A request flood with duplicate suppression, uniform per-hop control
    latency, and lowest-id tie-breaks settles on exactly the least-cost
    path, so the flood is computed in closed form here: link_cost(u, v) per
    link, where a negative or infinite cost makes the link unusable, and
    hop count when no link_cost is given.
    """
    if src == dst:
        raise ValueError("source equals destination")
    if src not in adjacency or dst not in adjacency:
        return None
    cost_fn = link_cost if link_cost is not None else lambda u, v: 1.0

    dist = {src: 0.0}
    parent = {}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u == dst:
            break
        for v in sorted(adjacency[u]):
            c = cost_fn(u, v)
            if c < 0 or math.isinf(c):
                continue
            nd = d + c
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    if dst not in dist:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


@dataclass
class RouteEntry:
    destination: int
    next_hop: int
    hop_count: int
    rtt_cost: float
    expires_at: float

    def __post_init__(self):
        if self.hop_count < 1:
            raise ValueError("hop_count must be >= 1")
        if self.rtt_cost < 0:
            raise ValueError("rtt_cost must be >= 0")


class RouteTable:
    """Per-node forwarding state; one live entry per destination."""

    def __init__(self):
        self._entries: Dict[int, RouteEntry] = {}

    def install(self, entry: RouteEntry):
        self._entries[entry.destination] = entry

    def lookup(self, destination: int, now: float) -> Optional[RouteEntry]:
        entry = self._entries.get(destination)
        if entry is None:
            return None
        if now >= entry.expires_at:
            del self._entries[destination]
            return None
        return entry

    def rows(self) -> List[RouteEntry]:
        return [self._entries[d] for d in sorted(self._entries)]
