"""The shared radio medium: the frames on the air, who hears whom, and the
jammer.  Every time is an argument, so each query can be asked at any
instant, without a running simulation.

Medium model: a reception is corrupted when a transmission on a conflicting
channel (interference factor above theta) from a sender within
INTERFERENCE_RANGE_M of the receiver overlaps any part of its airtime, or
when the jammer does.  In-flight transmissions of every channel are kept in
one list ordered by end time, beside a list of those end times.  A query
bisects the end times and visits only the frames that end after the instant
it asks about (now for carrier sense, the reception's start for corruption),
testing each one's channel against the receiver's conflicting set and its
sender against the receiver's precomputed hearing set.  Registering a frame
drops from the head of the list the transmissions that ended more than the
largest frame's airtime ago: those can no longer overlap any reception still
pending, so no interferer is lost to a time-horizon shortcut.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import Dict, FrozenSet, List, Tuple

from .channel import ALL_CHANNELS, CHANNEL_MAX, INTERFERENCE_BY_SEPARATION
from .config import ScenarioConfig
from .topology import INTERFERENCE_RANGE_M, Topology


@functools.lru_cache(maxsize=None)
def conflicting_channels(theta: float) -> Tuple[FrozenSet[int], ...]:
    """conflicting[b]: the channels whose transmissions disturb a radio on
    channel b (symmetric); channels index it directly, so entry 0 is empty
    padding."""
    return tuple(
        frozenset(a for a in ALL_CHANNELS
                  if b > 0 and INTERFERENCE_BY_SEPARATION[abs(a - b)] > theta)
        for b in range(CHANNEL_MAX + 1))


class Jammer:
    """Analytic periodic interferer: on for on_s, silent for off_s, from t=0."""

    def __init__(self, channel: int, on_s: float, off_s: float):
        self.channel = channel
        self.on_s = on_s
        self.period = on_s + off_s

    def active(self, t: float) -> bool:
        return (t % self.period) < self.on_s

    def busy_end(self, t: float) -> float:
        try:
            return math.floor(t / self.period) * self.period + self.on_s
        except OverflowError:   # period < 2**-1024 t: while active, the end rounds to t
            return t

    def overlaps(self, t0: float, t1: float) -> bool:
        """Whether [t0, t1) meets an on-period: the first one that ends
        after t0 must start before t1, and that is the on-period of the
        cycle t0 falls in or of the next."""
        try:
            k = math.floor(t0 / self.period)
        except OverflowError:   # period < 2**-1024 t0: t1 > t0 spans a cycle
            return t1 > t0
        for start in (k * self.period, (k + 1) * self.period):
            if start >= t1:
                return False
            if start + self.on_s > t0:
                return True
        # reached only when the period is below the float spacing of t0, so
        # that (k + 1) * period rounds back to k * period: an interval
        # longer than the silent gap then meets an on-period
        return t1 - t0 > self.period - self.on_s


class Transmission:
    __slots__ = ("sender", "channel", "t_start", "t_end")

    def __init__(self, sender: int, channel: int, t_start: float, t_end: float):
        self.sender = sender
        self.channel = channel
        self.t_start = t_start
        self.t_end = t_end


class Medium:
    """The frames on the air, who hears whom and the jammer, asked about
    carrier sense and corruption; horizon is at least the longest airtime."""

    def __init__(self, topology: Topology, config: ScenarioConfig, horizon: float):
        self.conflicting = conflicting_channels(config.theta)
        # in-flight transmissions of every channel, ordered by t_end, and
        # their end times, so a query can bisect to the frames still on air
        self.on_air: List[Transmission] = []
        self.on_air_ends: List[float] = []
        # every sender whose transmissions reach node u, u itself included
        self.hears: Dict[int, FrozenSet[int]] = {
            u: frozenset((u, *others))
            for u, others in topology.interference_candidates.items()}
        self.horizon = horizon
        self.jammer = None
        self.jammed: FrozenSet[int] = frozenset()   # nodes within the jammer's reach
        if config.jammer_channel is not None:
            self.jammer = Jammer(config.jammer_channel, config.jammer_on_s,
                                 config.jammer_off_s)
            self.jammed = frozenset(
                n.node_id for n in topology.nodes
                if math.hypot(n.x - config.jammer_x, n.y - config.jammer_y)
                <= INTERFERENCE_RANGE_M)

    def register(self, sender: int, channel: int, t_start: float, t_end: float,
                 now: float) -> Transmission:
        """Put a frame on the air; now never decreases from call to call."""
        tx = Transmission(sender, channel, t_start, t_end)
        on_air = self.on_air
        ends = self.on_air_ends
        expired = bisect_right(ends, now - self.horizon)
        if expired:
            del on_air[:expired]
            del ends[:expired]
        at = bisect_right(ends, t_end)
        on_air.insert(at, tx)
        ends.insert(at, t_end)
        return tx

    def carrier_busy(self, node_id: int, channel: int, now: float) -> Tuple[bool, float]:
        """Whether a radio on channel hears the air busy, and until when."""
        busy = False
        free_at = now
        hears = self.hears[node_id]
        conflicting = self.conflicting[channel]
        # every frame visited ends after now; the list ascends by t_end, so
        # the last one that disturbs the radio ends last
        for tx in self.on_air[bisect_right(self.on_air_ends, now):]:
            if tx.t_start <= now and tx.channel in conflicting and tx.sender in hears:
                busy = True
                free_at = tx.t_end
        if node_id in self.jammed and self.jammer.channel in conflicting \
                and self.jammer.active(now):
            busy = True
            free_at = max(free_at, self.jammer.busy_end(now))
        return busy, free_at

    def corrupted(self, node_id: int, channel: int, subject: Transmission) -> bool:
        """Whether subject, received on channel at node_id, is corrupted."""
        t0, t1 = subject.t_start, subject.t_end
        hears = self.hears[node_id]
        conflicting = self.conflicting[channel]
        # every frame visited ends after the subject started
        for tx in self.on_air[bisect_right(self.on_air_ends, t0):]:
            if tx.t_start < t1 and tx.channel in conflicting and tx.sender in hears \
                    and tx is not subject:
                return True
        return node_id in self.jammed and self.jammer.channel in conflicting \
            and self.jammer.overlaps(t0, t1)
