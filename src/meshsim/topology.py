"""Topology construction: node placement, per-radio channel assignment, and
the derived communication graph (in range and sharing a channel).

The engine reads only a Topology's two neighbour tables (communication
adjacency, interference candidates); distances are computed on demand.

Named channel plans are per-link cycles for chains and per-node cycles for
random layouts; with two radios and a three-channel cycle every node pair
shares at least one channel, so reachability reduces to geometry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

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
    def __init__(self, nodes: List[Node], gateway: int,
                 width: float = AREA_WIDTH_M):
        self.nodes = sorted(nodes, key=lambda n: n.node_id)
        self.gateway = gateway
        self.width = width
        self.by_id: Dict[int, Node] = {n.node_id: n for n in self.nodes}
        if gateway not in self.by_id:
            raise BuildError(f"gateway {gateway} is not a node")
        for n in self.nodes:
            if not (0.0 <= n.x <= width and 0.0 <= n.y <= AREA_HEIGHT_M):
                raise BuildError(f"node {n.node_id} at ({n.x}, {n.y}) outside "
                                 f"{width} x {AREA_HEIGHT_M} area")
        self.comm_adjacency: Dict[int, Set[int]] = {n.node_id: set() for n in self.nodes}
        # everyone whose transmissions can matter at this node; the pair loop
        # below visits nodes in id order, so each list comes out sorted
        self.interference_candidates: Dict[int, List[int]] = {
            n.node_id: [] for n in self.nodes}
        for i, a in enumerate(self.nodes):
            for b in self.nodes[i + 1:]:
                u, v = a.node_id, b.node_id
                d = math.hypot(a.x - b.x, a.y - b.y)
                if d <= TX_RANGE_M and self.shared_channels(u, v):
                    self.comm_adjacency[u].add(v)
                    self.comm_adjacency[v].add(u)
                if d <= INTERFERENCE_RANGE_M:
                    self.interference_candidates[u].append(v)
                    self.interference_candidates[v].append(u)

    def distance(self, u: int, v: int) -> float:
        a, b = self.by_id[u], self.by_id[v]
        return math.hypot(a.x - b.x, a.y - b.y)

    def shared_channels(self, u: int, v: int) -> List[int]:
        return sorted(set(self.by_id[u].channels) & set(self.by_id[v].channels))

    def node_ids(self) -> List[int]:
        return [n.node_id for n in self.nodes]

    def is_connected(self) -> bool:
        ids = self.node_ids()
        seen = {ids[0]}
        frontier = [ids[0]]
        while frontier:
            u = frontier.pop()
            for v in self.comm_adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == len(ids)


def _cycle_for_plan(plan: str) -> Tuple[int, ...]:
    return OVERLAPPING_CYCLE if plan == "overlapping" else ORTHOGONAL_CYCLE


def _pad_channels(wanted: List[int], cycle: Tuple[int, ...], start: int, count: int) -> Tuple[int, ...]:
    channels = list(wanted)
    idx = start
    guard = 0
    while len(channels) < count and guard < 40:
        cand = cycle[idx % len(cycle)]
        idx += 1
        guard += 1
        if cand not in channels:
            channels.append(cand)
    extra = 1
    while len(channels) < count:   # cycle exhausted; fill from the full band
        if extra not in channels:
            channels.append(extra)
        extra += 1
    return tuple(channels[:count])


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
    nodes = [Node(node_id=i, x=CHAIN_SPACING_M * i, y=0.0, channels=channels[i])
             for i in range(n)]
    topo = Topology(nodes, gateway=n - 1, width=width)
    for i in range(n - 1):
        if not topo.shared_channels(i, i + 1):
            raise BuildError(f"chain link {i}-{i + 1} has no shared channel under "
                             f"this channel plan")
    return topo


def _random_node_channels(i: int, plan: str, radios: int) -> Tuple[int, ...]:
    cycle = _cycle_for_plan(plan)
    return _pad_channels([], cycle, i % len(cycle), radios)


def build_random(n: int, seed: int, radios_per_node: int, channel_plan: str) -> Topology:
    if n < 2:
        raise BuildError("random topology needs at least 2 nodes")
    rng = random.Random(seed)
    if channel_plan in NAMED_CHANNEL_PLANS:
        channels = [_random_node_channels(i, channel_plan, radios_per_node)
                    for i in range(n)]
    else:
        channels = _explicit_groups(channel_plan, n, radios_per_node)
    for attempt in range(MAX_PLACEMENT_ATTEMPTS):
        nodes = [Node(node_id=i,
                      x=rng.uniform(0.0, AREA_WIDTH_M),
                      y=rng.uniform(0.0, AREA_HEIGHT_M),
                      channels=channels[i])
                 for i in range(n)]
        topo = Topology(nodes, gateway=0)
        if topo.is_connected():
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
    nodes = [Node(node_id=i, x=positions[i][0], y=positions[i][1],
                  channels=channels[i]) for i in range(n)]
    topo = Topology(nodes, gateway=0)
    if topo.is_connected():
        return topo
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
