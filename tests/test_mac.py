"""RTS/CTS admission rules, queue timestamping, delay split, backoff."""

import pathlib
import random

import pytest

from meshsim.mac import (
    BackoffOutcome,
    BackoffState,
    EnqueueResult,
    Frame,
    FrameKind,
    MacRadioState,
    RtsDecision,
    SimulationFault,
    handle_rts_delay_tolerant,
    handle_rts_qos,
    hop_delay,
    rts_handler,
)

DATA = pathlib.Path(__file__).parent / "data"
ALL_CHANNELS = range(1, 12)


def _golden_rows():
    rows = []
    for line in (DATA / "rts_literal_decisions.txt").read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        c1, local, qos, dt = line.split()
        rows.append((int(c1), int(local), qos, dt))
    return rows


def test_literal_single_local_matches_golden_table():
    rows = _golden_rows()
    assert len(rows) == 121
    for c1, local, qos, dt in rows:
        got_qos = handle_rts_qos(c1, [local], mode="literal")
        got_dt = handle_rts_delay_tolerant(c1, [local], mode="literal")
        assert got_qos.value == qos, (c1, local)
        assert got_dt.value == dt, (c1, local)


def test_literal_grant_pairs_enumerated():
    qos_grants = {(c1, local) for c1, local, qos, _ in _golden_rows() if qos == "SendCts"}
    dt_grants = {(c1, local) for c1, local, _, dt in _golden_rows() if dt == "SendCts"}
    assert qos_grants == {(6, 1), (7, 2), (8, 3), (9, 4), (10, 5), (11, 6),
                          (1, 7), (2, 8), (3, 9), (4, 10), (5, 11)}
    assert dt_grants == {(5, 1), (6, 2), (7, 3), (8, 4), (9, 5), (10, 6),
                         (1, 8), (2, 9), (3, 10), (4, 11)}
    # a receiver busy on channel 7 never grants delay-tolerant traffic
    assert not any(local == 7 for _, local in dt_grants)


def test_symmetric_rules_are_separation_thresholds():
    for c1 in ALL_CHANNELS:
        for local in ALL_CHANNELS:
            sep = abs(c1 - local)
            want_qos = RtsDecision.SEND_CTS if sep >= 5 else RtsDecision.DEFER
            want_dt = RtsDecision.SEND_CTS if sep >= 4 else RtsDecision.DEFER
            assert handle_rts_qos(c1, [local]) is want_qos
            assert handle_rts_delay_tolerant(c1, [local]) is want_dt


def test_literal_grants_are_symmetric_grants():
    # the pseudocode equalities are a strict subset of the threshold rule
    for c1, local, qos, dt in _golden_rows():
        if qos == "SendCts":
            assert handle_rts_qos(c1, [local], mode="symmetric") is RtsDecision.SEND_CTS
        if dt == "SendCts":
            assert handle_rts_delay_tolerant(c1, [local], mode="symmetric") is RtsDecision.SEND_CTS


def test_rts_no_local_activity_grants():
    for mode in ("literal", "symmetric"):
        assert handle_rts_qos(3, [], mode=mode) is RtsDecision.SEND_CTS
        assert handle_rts_delay_tolerant(3, [], mode=mode) is RtsDecision.SEND_CTS


def test_rts_same_channel_always_defers():
    for mode in ("literal", "symmetric"):
        for ch in ALL_CHANNELS:
            assert handle_rts_qos(ch, [ch], mode=mode) is RtsDecision.DEFER
            assert handle_rts_delay_tolerant(ch, [ch], mode=mode) is RtsDecision.DEFER


def test_rts_every_local_must_clear():
    # 1 vs 6 clears qos, but adding a conflicting radio on 3 vetoes it
    assert handle_rts_qos(6, [1]) is RtsDecision.SEND_CTS
    assert handle_rts_qos(6, [1, 3]) is RtsDecision.DEFER
    assert handle_rts_qos(6, [1, 11]) is RtsDecision.SEND_CTS
    assert handle_rts_delay_tolerant(5, [1, 9]) is RtsDecision.SEND_CTS
    assert handle_rts_delay_tolerant(5, [1, 9, 4]) is RtsDecision.DEFER


def test_rts_rejects_bad_inputs():
    with pytest.raises(ValueError):
        handle_rts_qos(0, [1])
    with pytest.raises(ValueError):
        handle_rts_qos(6, [12])
    with pytest.raises(ValueError):
        handle_rts_qos(6, [1], mode="loose")
    with pytest.raises(ValueError):
        handle_rts_qos(1, [], mode="bogus")


def test_rts_handler_rejects_an_unknown_traffic_class():
    assert rts_handler("qos") is handle_rts_qos
    with pytest.raises(ValueError, match="unknown traffic class 'bulk'"):
        rts_handler("bulk")


def _stamped(t_i=0.0, t_h=None, t_next=None):
    return Frame(kind=FrameKind.DATA, src=1, dst=2, size_bytes=1000,
                 t_i=t_i, t_h=t_h, t_next=t_next)


def test_timestamps_enforce_order():
    frame = _stamped(t_i=1.0)
    with pytest.raises(SimulationFault):
        frame.mark_head(0.5)
    frame.mark_head(1.2)
    frame.mark_head(1.4)  # idempotent: first head time sticks
    assert frame.t_h == 1.2
    with pytest.raises(SimulationFault):
        frame.mark_released(1.1)
    frame.mark_released(1.25)
    assert frame.t_next == 1.25
    bare = _stamped(t_i=0.0)
    with pytest.raises(SimulationFault):
        bare.mark_released(1.0)


def test_hop_delay_decomposition():
    frame = _stamped(t_i=1.0, t_h=1.2, t_next=1.25)
    queue, contention, transmission, total = hop_delay(frame, 1_000_000)
    assert queue == pytest.approx(0.2)
    assert contention == pytest.approx(0.05)
    assert transmission == pytest.approx(0.008)  # 1000 bytes at 1 Mbps
    assert total == pytest.approx(0.258)


def test_hop_delay_requires_stamps_and_rate():
    with pytest.raises(SimulationFault):
        hop_delay(_stamped(t_i=0.0), 1_000_000)
    with pytest.raises(ValueError):
        hop_delay(_stamped(t_i=0.0, t_h=0.0, t_next=0.0), 0)


def test_backoff_window_doubles_then_caps():
    state = BackoffState()
    rng = random.Random(7)
    seen_cw = []
    for _ in range(8):
        seen_cw.append(state.cw)
        wait = state.next(BackoffOutcome.BUSY, rng)
        assert 0 <= wait <= seen_cw[-1]
    assert seen_cw == [31, 63, 127, 255, 511, 1023, 1023, 1023]
    assert state.retries == 8


def test_backoff_success_resets():
    state = BackoffState()
    rng = random.Random(3)
    for _ in range(4):
        state.next(BackoffOutcome.BUSY, rng)
    assert state.cw == 511 and state.retries == 4
    assert state.next(BackoffOutcome.SUCCESS, rng) == 0
    assert state.cw == 31 and state.retries == 0
    # the retry-limit discard resets without a success and draws nothing
    for _ in range(3):
        state.next(BackoffOutcome.BUSY, rng)
    before = rng.getstate()
    state.reset()
    assert state.cw == 31 and state.retries == 0
    assert rng.getstate() == before


def test_backoff_draws_are_seed_deterministic():
    waits_a = []
    waits_b = []
    for waits in (waits_a, waits_b):
        state = BackoffState()
        rng = random.Random(42)
        for _ in range(20):
            outcome = BackoffOutcome.BUSY if rng.random() < 0.7 else BackoffOutcome.SUCCESS
            waits.append(state.next(outcome, rng))
    assert waits_a == waits_b


def _frame(seq=0):
    return Frame(kind=FrameKind.DATA, src=1, dst=2, size_bytes=1000, seq=seq)


def test_enqueue_to_empty_queue_is_instant_head():
    radio = MacRadioState(node_id=1, channel=6, capacity=50)
    frame = _frame()
    assert radio.enqueue(frame, 2.5) is EnqueueResult.ACCEPTED
    head = radio.queue[0]
    assert head is frame
    assert head.t_i == 2.5 and head.t_h == 2.5


def test_queue_capacity_drops_excess():
    radio = MacRadioState(node_id=1, channel=6, capacity=50)
    for i in range(50):
        assert radio.enqueue(_frame(i), float(i)) is EnqueueResult.ACCEPTED
    assert radio.enqueue(_frame(50), 50.0) is EnqueueResult.DROPPED_QUEUE_FULL
    assert len(radio.queue) == 50


def test_pop_head_promotes_successor():
    radio = MacRadioState(node_id=1, channel=6, capacity=50)
    radio.enqueue(_frame(0), 1.0)
    radio.enqueue(_frame(1), 1.5)
    second = radio.queue[1]
    assert second.t_h is None
    radio.release_head_to_medium(2.0)
    done = radio.pop_head(3.0)
    assert done.seq == 0 and done.t_next == 2.0
    assert radio.queue[0] is second
    assert second.t_h == 3.0
    # waiting behind a busy head is pure queue delay
    second.mark_released(3.4)
    q, c, _, _ = hop_delay(second, 1_000_000)
    assert q == pytest.approx(1.5)
    assert c == pytest.approx(0.4)
    # a frame queued again starts a new hop: its old stamps are cleared
    radio.enqueue(done, 3.5)
    assert (done.t_i, done.t_h, done.t_next) == (3.5, None, None)


def test_radio_clock_must_not_rewind():
    radio = MacRadioState(node_id=1, channel=6, capacity=50)
    radio.enqueue(_frame(), 5.0)
    rewound = "radio clock moved backwards: 4.0 < 5.0"
    # each primitive checks the radio's clock before it touches the queue
    with pytest.raises(SimulationFault, match=rewound):
        radio.enqueue(_frame(1), 4.0)
    with pytest.raises(SimulationFault, match=rewound):
        radio.release_head_to_medium(4.0)
    assert radio.queue[0].t_next is None
    with pytest.raises(SimulationFault, match=rewound):
        radio.pop_head(4.0)
    assert len(radio.queue) == 1
    # the clock stays where it was: the same instant is accepted by all three
    assert radio.release_head_to_medium(5.0).t_next == 5.0
    assert radio.pop_head(5.0).seq == 0
    assert radio.enqueue(_frame(2), 5.0) is EnqueueResult.ACCEPTED
