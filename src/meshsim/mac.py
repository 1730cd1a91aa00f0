"""Per-radio MAC primitives: modified RTS/CTS admission, FIFO queue with
delay instrumentation, and binary exponential backoff.

Each queued frame carries its own hop stamps: queue arrival ``t_i``,
head-of-queue ``t_h`` and handed-to-medium ``t_next``.  ``hop_delay(frame,
rate_bps)`` splits one hop's delay into queue, contention and transmission
parts from those stamps and the frame's size.

The RTS/CTS decision functions are pure; the receiver consults them with the
channels its *other* radios are actively using.  Two rule sets exist for each
traffic class: ``literal`` reproduces the published pseudocode equality tests
verbatim (including their asymmetries), ``symmetric`` applies the equivalent
separation thresholds in both directions and is the default.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .channel import separation, validate_channel

# 802.11b DCF timing; the spectrum model fixes behaviour, these fix the clock.
SLOT_TIME = 20e-6
SIFS = 10e-6
DIFS = 50e-6
CW_MIN = 31
CW_MAX = 1023
RETRY_LIMIT = 7

RTS_BYTES = 20
CTS_BYTES = 14
MAC_ACK_BYTES = 14
HELLO_BYTES = 32
TRANSPORT_ACK_BYTES = 40
# a run's longest frame is its data frame or the longest of these
LONGEST_FIXED_BYTES = max(RTS_BYTES, CTS_BYTES, MAC_ACK_BYTES, HELLO_BYTES,
                          TRANSPORT_ACK_BYTES)


class SimulationFault(RuntimeError):
    """Internal invariant violation; aborts the run rather than degrade."""


class FrameKind(enum.Enum):
    """Kinds of queued frames.  RTS, CTS and MAC acknowledgements go on the
    air without being queued, and route control travels out of band."""

    DATA = "DATA"
    ACK = "ACK"
    HELLO = "HELLO"


@dataclass(slots=True)
class Frame:
    kind: FrameKind
    src: int
    dst: int
    size_bytes: int
    flow_id: int = -1
    seq: int = -1
    uid: int = -1          # engine-unique id, used for duplicate suppression
    born: float = 0.0      # first-injection time of the end-to-end packet
    # this hop's queue arrival, head-of-queue and handed-to-medium instants,
    # stamped by the radio that queues the frame
    t_i: float = 0.0
    t_h: Optional[float] = None
    t_next: Optional[float] = None

    def mark_head(self, now: float):
        if now < self.t_i:
            raise SimulationFault(f"head time {now} precedes arrival {self.t_i}")
        if self.t_h is None:
            self.t_h = now

    def mark_released(self, now: float):
        if self.t_h is None:
            raise SimulationFault("frame released to medium before reaching queue head")
        if now < self.t_h:
            raise SimulationFault(f"release time {now} precedes head time {self.t_h}")
        self.t_next = now


class RtsDecision(enum.Enum):
    SEND_CTS = "SendCts"
    DEFER = "Defer"


def _literal_match(c1: int, local: int, offset: int) -> bool:
    # Pseudocode branches: channels 1-6 test c1 == local+offset, channels
    # 7-11 test c1 == (local+offset) mod 11.  For offset 4 the local=7 branch
    # yields 0, which no channel equals; that dead branch is kept as written.
    if local <= 6:
        return c1 == local + offset
    return c1 == (local + offset) % 11


def _decide(c1, local_channels, mode, threshold):
    # threshold: the literal rule's channel offset, the symmetric rule's least
    # separation.  Both rules defer c1 == local at thresholds 4 and 5.
    validate_channel(c1)
    if mode not in ("literal", "symmetric"):
        raise ValueError(f"unknown rts mode {mode!r}")
    for local in local_channels:
        validate_channel(local)
        if mode == "literal":
            if not _literal_match(c1, local, threshold):
                return RtsDecision.DEFER
        elif separation(c1, local) < threshold:
            return RtsDecision.DEFER
    return RtsDecision.SEND_CTS


def handle_rts_qos(c1: int, local_channels: Iterable[int], mode: str = "symmetric") -> RtsDecision:
    """Admission test for QoS traffic: every local channel must be orthogonal.

    An empty ``local_channels`` means the receiver has no conflicting
    activity, which admits the transmission.
    """
    return _decide(c1, local_channels, mode, threshold=5)


def handle_rts_delay_tolerant(c1: int, local_channels: Iterable[int], mode: str = "symmetric") -> RtsDecision:
    """Admission test for delay-tolerant traffic: separation 4 is also allowed."""
    return _decide(c1, local_channels, mode, threshold=4)


def rts_handler(traffic_class: str):
    if traffic_class == "qos":
        return handle_rts_qos
    if traffic_class == "delay_tolerant":
        return handle_rts_delay_tolerant
    raise ValueError(f"unknown traffic class {traffic_class!r}")


def hop_delay(frame: Frame, rate_bps: float):
    """Split one hop's delay into queue, contention, and transmission parts."""
    if rate_bps <= 0:
        raise ValueError("rate_bps must be positive")
    if frame.t_h is None or frame.t_next is None:
        raise SimulationFault("hop_delay requires fully stamped timestamps")
    queue_delay = frame.t_h - frame.t_i
    contention_delay = frame.t_next - frame.t_h
    transmission_delay = frame.size_bytes * 8 / rate_bps
    return (queue_delay, contention_delay, transmission_delay,
            queue_delay + contention_delay + transmission_delay)


class BackoffOutcome(enum.Enum):
    BUSY = "Busy"
    SUCCESS = "Success"


@dataclass(slots=True)
class BackoffState:
    cw: int = CW_MIN
    retries: int = 0

    def reset(self):
        """Back to the minimum window with no retries: after a success, or
        after the head frame is discarded at the retry limit."""
        self.cw = CW_MIN
        self.retries = 0

    def next(self, outcome: BackoffOutcome, rng) -> int:
        """Advance state for one access outcome; returns the slots to wait."""
        if outcome is BackoffOutcome.SUCCESS:
            self.reset()
            return 0
        wait = rng.randrange(self.cw + 1)     # the draw of randint(0, cw)
        self.cw = min(2 * self.cw + 1, CW_MAX)
        self.retries += 1
        return wait


class EnqueueResult(enum.Enum):
    ACCEPTED = "Accepted"
    DROPPED_QUEUE_FULL = "DroppedQueueFull"


class MacRadioState:
    """One radio: a channel, a bounded FIFO of frames, its backoff state,
    and the engine's handshake and reception state."""

    def __init__(self, node_id: int, channel: int, capacity: int):
        validate_channel(channel)
        self.node_id = node_id
        self.channel = channel
        self.capacity = capacity
        self.queue = deque()
        self.backoff = BackoffState()
        self._last_time = 0.0
        self.exchange = None            # the engine's open handshake, if any
        self.rx_engaged_until = 0.0
        self.access_pending = False
        # last frame uid handed up, per sending node: a sender retries one
        # head frame until it pops it, so one slot per sender suffices to
        # drop the duplicates that lost acknowledgements produce
        self.delivered_uid_from: Dict[int, int] = {}

    def _check_clock(self, now: float):
        if now < self._last_time:
            raise SimulationFault(f"radio clock moved backwards: {now} < {self._last_time}")
        self._last_time = now

    def enqueue(self, frame: Frame, now: float) -> EnqueueResult:
        self._check_clock(now)
        if len(self.queue) >= self.capacity:
            return EnqueueResult.DROPPED_QUEUE_FULL
        frame.t_i = now
        frame.t_h = frame.t_next = None
        if not self.queue:
            frame.mark_head(now)
        self.queue.append(frame)
        return EnqueueResult.ACCEPTED

    def release_head_to_medium(self, now: float) -> Frame:
        self._check_clock(now)
        frame = self.queue[0]
        frame.mark_released(now)
        return frame

    def pop_head(self, now: float) -> Frame:
        self._check_clock(now)
        frame = self.queue.popleft()
        if self.queue:
            self.queue[0].mark_head(now)
        return frame
