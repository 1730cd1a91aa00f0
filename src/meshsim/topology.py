"""Topology construction: node placement, per-radio channel assignment, and
the two neighbour tables derived from them.

The engine reads only a Topology's neighbour tables; distances are computed
on demand.  Each table maps a node id to other node ids:

- `comm_adjacency`, the communication graph: the nodes within TX_RANGE_M
  that share a channel with it (a set);
- `interference_candidates`: the nodes within INTERFERENCE_RANGE_M, whose
  transmissions can matter there (a list sorted by id).

The constructor builds each table by one pass over the nodes in x order.
`build_random` accepts or rejects each uniform placement on its
communication graph alone, so a rejected placement costs its draws and that
graph, with no Node objects; the kept placement's Topology is handed that
graph and builds only its interference lists.

Named channel plans are per-link cycles for chains and per-node cycles for
random layouts; with two radios and a three-channel cycle every node pair
shares at least one channel, so reachability reduces to geometry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .channel import ALL_CHANNELS
from .config import NAMED_CHANNEL_PLANS, ScenarioConfig

TX_RANGE_M = 250.0
INTERFERENCE_RANGE_M = 550.0
AREA_WIDTH_M = 1500.0
AREA_HEIGHT_M = 800.0
CHAIN_SPACING_M = 150.0

ORTHOGONAL_CYCLE = (1, 6, 11)
OVERLAPPING_CYCLE = (1, 3, 5)

MAX_PLACEMENT_ATTEMPTS = 100


class BuildError(ValueError):
    """Topology cannot be constructed from this configuration."""


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
            raise BuildError(f"gateway {gateway} is not a node")
        for n in self.nodes:
            if not (0.0 <= n.x <= width and 0.0 <= n.y <= AREA_HEIGHT_M):
                raise BuildError(f"node {n.node_id} at ({n.x}, {n.y}) outside "
                                 f"{width} x {AREA_HEIGHT_M} area")
        by_x = sorted([(n.x, n.y, n.node_id) for n in self.nodes])
        if comm_adjacency is None:
            comm_adjacency = _comm_adjacency(
                by_x, {n.node_id: set(n.channels) for n in self.nodes})
        self.comm_adjacency = comm_adjacency
        self.interference_candidates = _interference_lists(by_x, self.by_id)

    def distance(self, u: int, v: int) -> float:
        a, b = self.by_id[u], self.by_id[v]
        return math.hypot(a.x - b.x, a.y - b.y)


def _comm_adjacency(by_x: List[Tuple[float, float, int]],
                    channel_sets: Dict[int, Set[int]]) -> Dict[int, Set[int]]:
    """The communication graph: nodes within TX_RANGE_M that share a channel
    are linked.  by_x holds (x, y, node_id) in x order; channel_sets maps each
    node id, in id order, to its channels."""
    adjacency: Dict[int, Set[int]] = {u: set() for u in channel_sets}
    reach = TX_RANGE_M
    for k, (ax, ay, u) in enumerate(by_x):
        for bx, by, v in by_x[k + 1:]:
            dx = bx - ax
            if dx > reach:      # so is every later node: hypot is never below |dx|
                break
            dy = by - ay
            if -reach <= dy <= reach and math.hypot(dx, dy) <= reach \
                    and not channel_sets[u].isdisjoint(channel_sets[v]):
                adjacency[u].add(v)
                adjacency[v].add(u)
    return adjacency


def _interference_lists(by_x: List[Tuple[float, float, int]],
                        ids: Iterable[int]) -> Dict[int, List[int]]:
    """Everyone within INTERFERENCE_RANGE_M of each node (whose transmissions
    can matter there), sorted by id; by_x as for _comm_adjacency, and ids
    gives the keys in id order."""
    lists: Dict[int, List[int]] = {u: [] for u in ids}
    reach = INTERFERENCE_RANGE_M
    for k, (ax, ay, u) in enumerate(by_x):
        near = lists[u]
        for bx, by, v in by_x[k + 1:]:
            dx = bx - ax
            if dx > reach:      # as in _comm_adjacency
                break
            dy = by - ay
            if -reach <= dy <= reach and math.hypot(dx, dy) <= reach:
                near.append(v)
                lists[v].append(u)
    for others in lists.values():
        others.sort()
    return lists


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


def _cycle_for_plan(plan: str) -> Tuple[int, ...]:
    return OVERLAPPING_CYCLE if plan == "overlapping" else ORTHOGONAL_CYCLE


def _pad_channels(wanted: List[int], cycle: Tuple[int, ...], start: int, count: int) -> Tuple[int, ...]:
    """The wanted channels, then the plan's cycle from start, then the lowest
    channels of the band, each once, up to count."""
    order = dict.fromkeys(wanted)
    for ch in (*cycle[start:], *cycle[:start], *ALL_CHANNELS):
        if len(order) >= count:
            break
        order.setdefault(ch)
    return tuple(order)[:count]


def _explicit_groups(plan: str, n: int, radios: int) -> List[Tuple[int, ...]]:
    groups = [tuple(int(c) for c in g.split(",")) for g in plan.split(";")]
    if len(groups) != n:
        raise BuildError(f"explicit channel_plan has {len(groups)} node groups, "
                         f"topology has {n} nodes")
    for i, g in enumerate(groups):
        if len(g) != radios:
            raise BuildError(f"node {i} channel group {g} does not match "
                             f"radios_per_node = {radios}")
    return groups


def _chain_channels(i: int, n: int, cycle: Tuple[int, ...], radios: int) -> Tuple[int, ...]:
    wanted: List[int] = []
    if i > 0:
        wanted.append(cycle[(i - 1) % len(cycle)])       # link to the previous node
    if i < n - 1:
        forward = cycle[i % len(cycle)]                  # link to the next node
        if forward not in wanted:
            wanted.append(forward)
    if len(wanted) > radios:
        raise BuildError("named channel plans on a chain need radios_per_node >= 2")
    return _pad_channels(wanted, cycle, i % len(cycle), radios)


def build_chain(n: int, radios_per_node: int, channel_plan: str) -> Topology:
    if n < 2:
        raise BuildError("chain needs at least 2 nodes")
    width = max(AREA_WIDTH_M, CHAIN_SPACING_M * (n - 1))
    if channel_plan in NAMED_CHANNEL_PLANS:
        cycle = _cycle_for_plan(channel_plan)
        channels = [_chain_channels(i, n, cycle, radios_per_node) for i in range(n)]
    else:
        channels = _explicit_groups(channel_plan, n, radios_per_node)
    nodes = [Node(i, CHAIN_SPACING_M * i, 0.0, channels[i]) for i in range(n)]
    topo = Topology(nodes, gateway=n - 1, width=width)
    # neighbours sit CHAIN_SPACING_M apart, within TX_RANGE_M, so a link is
    # in the communication graph exactly when its nodes share a channel
    for i in range(n - 1):
        if i + 1 not in topo.comm_adjacency[i]:
            raise BuildError(f"chain link {i}-{i + 1} has no shared channel under "
                             f"this channel plan")
    return topo


def _random_node_channels(i: int, plan: str, radios: int) -> Tuple[int, ...]:
    cycle = _cycle_for_plan(plan)
    return _pad_channels([], cycle, i % len(cycle), radios)


def _placed(points: List[Tuple[float, float]], channels: List[Tuple[int, ...]],
            channel_sets: Dict[int, Set[int]]) -> Optional[Topology]:
    """The topology of a placement whose communication graph is connected,
    else None.  A placement is judged on that graph alone; the kept one's
    Topology is handed the graph, and nodes are made only for it."""
    by_x = sorted((x, y, i) for i, (x, y) in enumerate(points))
    adjacency = _comm_adjacency(by_x, channel_sets)
    if not _connected(adjacency):
        return None
    return Topology([Node(i, x, y, channels[i]) for i, (x, y) in enumerate(points)],
                    gateway=0, comm_adjacency=adjacency)


def build_random(n: int, seed: int, radios_per_node: int, channel_plan: str) -> Topology:
    if n < 2:
        raise BuildError("random topology needs at least 2 nodes")
    rng = random.Random(seed)
    if channel_plan in NAMED_CHANNEL_PLANS:
        channels = [_random_node_channels(i, channel_plan, radios_per_node)
                    for i in range(n)]
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
    sharing = {u: {v for v in channel_sets
                   if v != u and not mine.isdisjoint(channel_sets[v])}
               for u, mine in channel_sets.items()}
    if not _connected(sharing):
        raise BuildError(f"no connected placement of {n} nodes can exist: the "
                         f"channel plan splits them into groups that share no "
                         f"channel")
    raise BuildError(f"no connected placement of {n} nodes in "
                     f"{MAX_PLACEMENT_ATTEMPTS} attempts; density too low for "
                     f"{TX_RANGE_M} m range")


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
            raise BuildError("mesh8 has two fixed channels per node: it needs "
                             "radios_per_node = 2 and channel_plan orthogonal or pcl")
        return build_mesh8()
    raise BuildError(f"unknown topology kind {spec.kind!r}")


def resolve_flows(config: ScenarioConfig, topo: Topology) -> Tuple[Tuple[int, int], ...]:
    if config.flows:
        for src, dst in config.flows:
            if src not in topo.by_id or dst not in topo.by_id:
                raise BuildError(f"flow {src}>{dst} names a node the topology lacks")
        return config.flows
    gw = topo.gateway
    if config.topology.kind == "chain":
        return ((0, gw),)
    if config.topology.kind == "mesh8":
        return ((5, 4),)
    sources = [i for i in sorted(topo.by_id, reverse=True) if i != gw][:3]
    return tuple((src, gw) for src in sorted(sources))
