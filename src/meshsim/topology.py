"""Topology construction: node placement, per-radio channel assignment, and
the two neighbour tables derived from them.

The engine reads only a Topology's neighbour tables; distances are computed
on demand.  Each table maps a node id to a set of node ids:

- `comm_adjacency`, the communication graph: the others within TX_RANGE_M
  that share a channel with it;
- `hears`, the one table of who hears whom, read as it is by the medium and
  the pcl beacons: every sender within INTERFERENCE_RANGE_M and the node
  itself, whose frame on one radio disturbs a reception on its others.

One sweep over the nodes in x order, `_within`, builds both tables: at
TX_RANGE_M with the shared-channel test, and at INTERFERENCE_RANGE_M.
`build_random` accepts or rejects each uniform placement on its
communication graph alone, so a rejected placement costs its draws and at
most that graph, with no Node objects; the kept placement's Topology is handed
that graph and builds only its hearing sets.  The sweep rejects a placement early,
before the rest of its graph is built, at the first node it passes that has
no link, or at the first point in x order that no link crosses; either proves
the graph disconnected, so the draws, the verdicts and the kept placement are
those of a full sweep and a BFS.

A named channel plan is one rule: each node walks the plan's three-channel
cycle, a chain node from its back link's channel (so its first two channels
serve both its links), a random-layout node from its id.  With two radios
every node pair then shares at least one channel, so reachability reduces to
geometry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .channel import ALL_CHANNELS
from .config import NAMED_CHANNEL_PLANS, ConfigError, ScenarioConfig

TX_RANGE_M = 250.0
INTERFERENCE_RANGE_M = 550.0
AREA_WIDTH_M = 1500.0
AREA_HEIGHT_M = 800.0
CHAIN_SPACING_M = 150.0

ORTHOGONAL_CYCLE = (1, 6, 11)
OVERLAPPING_CYCLE = (1, 3, 5)

MAX_PLACEMENT_ATTEMPTS = 100


@dataclass(frozen=True)
class Node:
    node_id: int
    x: float
    y: float
    channels: Tuple[int, ...]


class Topology:
    """Nodes in id order, the gateway, and the two neighbour tables (see the
    module docstring).  A caller that has already built the nodes'
    communication graph passes it as comm_adjacency."""

    def __init__(self, nodes: List[Node], gateway: int,
                 width: float = AREA_WIDTH_M,
                 comm_adjacency: Optional[Dict[int, Set[int]]] = None):
        self.nodes = sorted(nodes, key=lambda n: n.node_id)
        self.gateway = gateway
        self.by_id: Dict[int, Node] = {n.node_id: n for n in self.nodes}
        if gateway not in self.by_id:
            raise ConfigError([f"gateway {gateway} is not a node"])
        for n in self.nodes:
            if not (0.0 <= n.x <= width and 0.0 <= n.y <= AREA_HEIGHT_M):
                raise ConfigError([f"node {n.node_id} at ({n.x}, {n.y}) outside "
                                   f"{width} x {AREA_HEIGHT_M} area"])
        by_x = sorted([(n.x, n.y, n.node_id) for n in self.nodes])
        if comm_adjacency is None:
            channel_sets = {n.node_id: set(n.channels) for n in self.nodes}
            comm_adjacency = _within(by_x, channel_sets, TX_RANGE_M, channel_sets)
        self.comm_adjacency = comm_adjacency
        senders = _within(by_x, self.by_id, INTERFERENCE_RANGE_M)
        for u, near in senders.items():
            near.add(u)         # in place: a copy per node slows a random(100) build 5%
        self.hears: Dict[int, FrozenSet[int]] = {
            u: frozenset(near) for u, near in senders.items()}

    def distance(self, u: int, v: int) -> float:
        a, b = self.by_id[u], self.by_id[v]
        return math.hypot(a.x - b.x, a.y - b.y)


def _within(by_x: List[Tuple[float, float, int]], ids: Iterable[int], reach: float,
            channel_sets: Optional[Dict[int, Set[int]]] = None,
            stop_when_split: bool = False) -> Optional[Dict[int, Set[int]]]:
    """The others within reach of each node, keyed by ids in id order; by_x
    holds (x, y, node_id) in x order.  Given channel_sets, only nodes that
    share a channel count.  With stop_when_split, None as soon as the sweep
    proves the graph of two or more nodes disconnected: a node with no link,
    or no link from the nodes swept so far to the rest."""
    near: Dict[int, Set[int]] = {u: set() for u in ids}
    crossing = 0    # links from the nodes swept so far to the rest: none,
                    # with nodes left, cuts the graph in two
    for k, (ax, ay, u) in enumerate(by_x):
        linked = near[u]
        back = len(linked)
        for bx, by, v in by_x[k + 1:]:
            dx = bx - ax
            if dx > reach:      # so is every later node: hypot is never below |dx|
                break
            dy = by - ay
            if -reach <= dy <= reach and math.hypot(dx, dy) <= reach and (
                    channel_sets is None
                    or not channel_sets[u].isdisjoint(channel_sets[v])):
                linked.add(v)
                near[v].add(u)
        # u's set is complete here: the earlier nodes' scans found its links
        # back, its own scan those forward
        if stop_when_split:
            crossing += len(linked) - 2 * back
            if not linked or (crossing == 0 and k < len(by_x) - 1):
                return None
    return near


def _connected(adjacency: Dict[int, Set[int]]) -> bool:
    start = next(iter(adjacency))
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == len(adjacency)


def _named_channels(plan: str, starts: Iterable[int], radios: int) -> List[Tuple[int, ...]]:
    """For each start, the plan's cycle walked from that start, then the
    lowest channels of the band, each once, up to radios."""
    cycle = OVERLAPPING_CYCLE if plan == "overlapping" else ORTHOGONAL_CYCLE
    walks = [tuple(dict.fromkeys((*cycle[k:], *cycle[:k], *ALL_CHANNELS)))[:radios]
             for k in range(len(cycle))]
    return [walks[start % len(cycle)] for start in starts]


def _explicit_groups(plan: str, n: int, radios: int) -> List[Tuple[int, ...]]:
    groups = [tuple(int(c) for c in g.split(",")) for g in plan.split(";")]
    if len(groups) != n:
        raise ConfigError([f"explicit channel_plan has {len(groups)} node groups, "
                           f"topology has {n} nodes"])
    for i, g in enumerate(groups):
        if len(g) != radios:
            raise ConfigError([f"node {i} channel group {g} does not match "
                               f"radios_per_node = {radios}"])
    return groups


def build_chain(n: int, radios_per_node: int, channel_plan: str) -> Topology:
    if n < 2:
        raise ConfigError(["chain needs at least 2 nodes"])
    width = max(AREA_WIDTH_M, CHAIN_SPACING_M * (n - 1))
    if channel_plan in NAMED_CHANNEL_PLANS:
        # node i's first two channels are its back and forward links'; an
        # inner node needs both, an end node one
        if radios_per_node < min(n - 1, 2):
            raise ConfigError(["named channel plans on a chain need radios_per_node >= 2"])
        channels = _named_channels(channel_plan, (max(i - 1, 0) for i in range(n)),
                                   radios_per_node)
    else:
        channels = _explicit_groups(channel_plan, n, radios_per_node)
    nodes = [Node(i, CHAIN_SPACING_M * i, 0.0, channels[i]) for i in range(n)]
    topo = Topology(nodes, gateway=n - 1, width=width)
    # neighbours sit CHAIN_SPACING_M apart, within TX_RANGE_M, so a link is
    # in the communication graph exactly when its nodes share a channel
    for i in range(n - 1):
        if i + 1 not in topo.comm_adjacency[i]:
            raise ConfigError([f"chain link {i}-{i + 1} has no shared channel under "
                               f"this channel plan"])
    return topo


def _placed(points: List[Tuple[float, float]], channels: List[Tuple[int, ...]],
            channel_sets: Dict[int, Set[int]]) -> Optional[Topology]:
    """The topology of a placement whose communication graph is connected,
    else None.  A placement is judged on that graph alone; the kept one's
    Topology is handed the graph, and nodes are made only for it.  The sweep
    stops at the first node with no link, or at the first point in x order
    that no link crosses, and the placement is rejected there, with no BFS;
    the verdict, and so every later draw and the kept placement, is the one
    the whole graph gives.  Called with two or more points."""
    by_x = sorted((x, y, i) for i, (x, y) in enumerate(points))
    adjacency = _within(by_x, channel_sets, TX_RANGE_M, channel_sets,
                        stop_when_split=True)
    if adjacency is None or not _connected(adjacency):
        return None
    return Topology([Node(i, x, y, channels[i]) for i, (x, y) in enumerate(points)],
                    gateway=0, comm_adjacency=adjacency)


def build_random(n: int, seed: int, radios_per_node: int, channel_plan: str) -> Topology:
    if n < 2:
        raise ConfigError(["random topology needs at least 2 nodes"])
    rng = random.Random(seed)
    if channel_plan in NAMED_CHANNEL_PLANS:
        channels = _named_channels(channel_plan, range(n), radios_per_node)
    else:
        channels = _explicit_groups(channel_plan, n, radios_per_node)
    channel_sets = {i: set(c) for i, c in enumerate(channels)}
    for _ in range(MAX_PLACEMENT_ATTEMPTS):
        # x then y, node by node: every seed's layout rests on this draw order
        points = [(rng.uniform(0.0, AREA_WIDTH_M), rng.uniform(0.0, AREA_HEIGHT_M))
                  for _ in range(n)]
        topo = _placed(points, channels, channel_sets)
        if topo is not None:
            return topo
    # Sparse populations rarely connect under pure uniform draws (under 1% at
    # 20 nodes in the full area), so anchor each node within range of an
    # earlier one; still seeded and deterministic.
    positions = [(rng.uniform(0.0, AREA_WIDTH_M), rng.uniform(0.0, AREA_HEIGHT_M))]
    while len(positions) < n:
        ax, ay = positions[rng.randrange(len(positions))]
        for _ in range(1000):
            x = rng.uniform(max(0.0, ax - 0.9 * TX_RANGE_M),
                            min(AREA_WIDTH_M, ax + 0.9 * TX_RANGE_M))
            y = rng.uniform(max(0.0, ay - 0.9 * TX_RANGE_M),
                            min(AREA_HEIGHT_M, ay + 0.9 * TX_RANGE_M))
            if math.hypot(x - ax, y - ay) <= 0.9 * TX_RANGE_M:
                positions.append((x, y))
                break
    topo = _placed(positions, channels, channel_sets)
    if topo is not None:
        return topo
    # the communication graph with no range limit, where placement is moot
    if not _connected(_within([(0.0, 0.0, u) for u in channel_sets], channel_sets,
                              math.inf, channel_sets)):
        raise ConfigError([f"no connected placement of {n} nodes can exist: the "
                           f"channel plan splits them into groups that share no "
                           f"channel"])
    raise ConfigError([f"no connected placement of {n} nodes in "
                       f"{MAX_PLACEMENT_ATTEMPTS} attempts; density too low for "
                       f"{TX_RANGE_M} m range"])


def build_mesh8() -> Topology:
    """Eight-node demonstration mesh: a square with two gateway paths plus an
    isolated bystander cluster, sized so bystander traffic cannot reach the
    square even as interference."""
    nodes = [
        Node(5, 0.0, 0.0, (1, 7)),
        Node(4, 200.0, 0.0, (1, 6)),      # gateway
        Node(7, 0.0, 200.0, (7, 11)),
        Node(6, 200.0, 200.0, (6, 11)),
        Node(1, 800.0, 200.0, (2, 9)),
        Node(2, 950.0, 200.0, (2, 9)),
        Node(3, 1100.0, 200.0, (2, 9)),
        Node(8, 800.0, 350.0, (2, 9)),
    ]
    return Topology(nodes, gateway=4)


def build_topology(config: ScenarioConfig) -> Topology:
    spec = config.topology
    if spec.kind == "chain":
        return build_chain(spec.n, config.radios_per_node, config.channel_plan)
    if spec.kind == "random":
        seed = spec.placement_seed if spec.placement_seed is not None else config.seed
        return build_random(spec.n, seed, config.radios_per_node, config.channel_plan)
    if spec.kind == "mesh8":
        # the layout fixes two channels per node; only pcl may retune them
        if config.radios_per_node != 2 or config.channel_plan not in ("orthogonal", "pcl"):
            raise ConfigError(["mesh8 has two fixed channels per node: it needs "
                               "radios_per_node = 2 and channel_plan orthogonal or pcl"])
        return build_mesh8()
    raise ConfigError([f"unknown topology kind {spec.kind!r}"])


def resolve_flows(config: ScenarioConfig, topo: Topology) -> Tuple[Tuple[int, int], ...]:
    if config.flows:
        for src, dst in config.flows:
            if src not in topo.by_id or dst not in topo.by_id:
                raise ConfigError([f"flow {src}>{dst} names a node the topology lacks"])
        return config.flows
    gw = topo.gateway
    if config.topology.kind == "chain":
        return ((0, gw),)
    if config.topology.kind == "mesh8":
        return ((5, 4),)
    sources = [i for i in sorted(topo.by_id, reverse=True) if i != gw][:3]
    return tuple((src, gw) for src in sorted(sources))
