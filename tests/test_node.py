"""Relay state machine: stepping, sensor sampling, slot scheduling."""

import random

import numpy as np
import pytest

from uwocnet import frame as fr
from uwocnet.node import (
    BytesArrived,
    DeliverToMonitor,
    DropPacket,
    DropReason,
    NodeIdentity,
    NodeRole,
    NodeState,
    Phase,
    ProtocolViolation,
    SensorProfile,
    SlotEnd,
    SlotStart,
    SlotTooShort,
    TransmitBytes,
    min_slot_duration,
    sample_sensor,
    schedule,
    step,
)

QUIET = SensorProfile(baseline_c=20.0, amplitude_c=0.0, noise_std_c=0.0)


def originator(profile=QUIET) -> NodeState:
    return NodeState(NodeIdentity(0, NodeRole.ORIGINATOR, 180, (), profile))


def relay(profile=QUIET) -> NodeState:
    return NodeState(NodeIdentity(1, NodeRole.RELAY, 170, (180,), profile))


def sink(profile=QUIET) -> NodeState:
    return NodeState(NodeIdentity(2, NodeRole.SINK, 154, (180, 170), profile))


# --- sensor -------------------------------------------------------------------


def test_sample_sensor_constant_profile():
    for clock in (0.0, 10.0, 1234.5):
        reading = sample_sensor(3, clock, QUIET)
        assert reading.temperature_c == 20.0
        assert reading.node_id == 3


def test_sample_sensor_is_the_record_the_node_appends():
    assert sample_sensor(3, 0.0, QUIET) == fr.SensorRecord(3, 20.0)
    with pytest.raises(ValueError):
        sample_sensor(255, 0.0, QUIET)  # records carry the id in one byte, 0..254


def test_sample_sensor_sine_peak():
    profile = SensorProfile(baseline_c=20.0, amplitude_c=1.5, period_s=100.0,
                            noise_std_c=0.0)
    assert sample_sensor(0, 25.0, profile).temperature_c == pytest.approx(21.5)


def test_sample_sensor_deterministic():
    profile = SensorProfile(noise_std_c=0.5, seed=99)
    a = sample_sensor(2, 17.25, profile)
    b = sample_sensor(2, 17.25, profile)
    assert a == b
    c = sample_sensor(2, 17.2500001, profile)
    d = sample_sensor(3, 17.25, profile)
    assert c != a and d != a


def test_sensor_profile_validation():
    with pytest.raises(ValueError):
        SensorProfile(period_s=0.0)
    with pytest.raises(ValueError):
        SensorProfile(noise_std_c=-1.0)


# --- step: originate -------------------------------------------------------------


def test_originator_transmits_one_key_frame():
    state, actions = step(originator(), SlotStart("tx", 0.0))
    assert state.phase is Phase.TRANSMITTING
    assert len(actions) == 1 and isinstance(actions[0], TransmitBytes)
    reading = sample_sensor(0, 0.0, QUIET)
    expected = fr.encode_frame(
        fr.Frame((180,), (fr.SensorRecord(0, reading.temperature_c),))
    )
    assert actions[0].data == expected
    state, actions = step(state, SlotEnd(1.0))
    assert state.phase is Phase.IDLE and actions == []


# --- step: relay -------------------------------------------------------------------


def test_relay_timeout_on_empty_slot():
    state, _ = step(relay(), SlotStart("rx", 0.0))
    state, actions = step(state, SlotEnd(1.0))
    assert state.phase is Phase.IDLE
    assert actions == [DropPacket(DropReason.TIMEOUT, "empty rx slot")]
    # a tx slot after a dropped round transmits nothing
    state, actions = step(state, SlotStart("tx", 1.0))
    assert actions == []
    assert state.phase is Phase.IDLE


def test_relay_receive_append_retransmit():
    upstream = fr.encode_frame(
        fr.Frame((180,), (fr.SensorRecord(0, 19.5),))
    )
    state, _ = step(relay(), SlotStart("rx", 0.0))
    state, _ = step(state, BytesArrived(upstream, 0.5))
    state, actions = step(state, SlotEnd(1.0))
    assert actions == []
    assert state.pending_frame is not None
    state, actions = step(state, SlotStart("tx", 1.0))
    assert len(actions) == 1 and isinstance(actions[0], TransmitBytes)
    assert state.pending_frame is None
    # cross-check against the codec: two keys, two records in hop order
    out = fr.decode_frame(actions[0].data, (180, 170))
    assert out.key_chain == (180, 170)
    assert out.records[0] == fr.SensorRecord(0, 19.5)
    assert out.records[1].node_id == 1
    assert out.records[1].temperature_c == pytest.approx(20.0, abs=1 / 256)


def test_relay_fragmented_bytes_are_buffered():
    upstream = fr.encode_frame(fr.Frame((180,), (fr.SensorRecord(0, 19.5),)))
    state, _ = step(relay(), SlotStart("rx", 0.0))
    state, _ = step(state, BytesArrived(upstream[:3], 0.2))
    state, _ = step(state, BytesArrived(upstream[3:], 0.4))
    state, actions = step(state, SlotEnd(1.0))
    assert actions == [] and state.pending_frame is not None


def test_relay_failstop_on_tampered_key():
    data = bytearray(fr.encode_frame(fr.Frame((180,), (fr.SensorRecord(0, 19.5),))))
    data[2] ^= 0x01  # corrupt the upstream authentication key
    state, _ = step(relay(), SlotStart("rx", 0.0))
    state, _ = step(state, BytesArrived(bytes(data), 0.5))
    state, actions = step(state, SlotEnd(1.0))
    assert len(actions) == 1
    assert isinstance(actions[0], DropPacket)
    assert actions[0].reason is DropReason.AUTH_MISMATCH
    assert state.pending_frame is None
    _, actions = step(state, SlotStart("tx", 1.0))
    assert actions == []


@pytest.mark.parametrize(
    "data, reason",
    [
        (bytes([1, 2, 3]), DropReason.BAD_HEADER),
        (bytes([255, 80, 180]), DropReason.TRUNCATED),
        (bytes([255, 80, 180, 0x7D, 0x00]), DropReason.MALFORMED_ESCAPE),
        (bytes([255, 80, 180, 0x41, 0x00]), DropReason.BAD_PAYLOAD_LENGTH),
    ],
)
def test_relay_drop_reasons(data, reason):
    state, _ = step(relay(), SlotStart("rx", 0.0))
    state, _ = step(state, BytesArrived(data, 0.5))
    _, actions = step(state, SlotEnd(1.0))
    assert actions[0].reason is reason


@pytest.mark.parametrize(
    "data",
    [
        bytes.fromhex("ff50b47ddf3c8000"),  # record node id 0xFF
        bytes.fromhex("ff50b4017ddf7ddf00"),  # raw 0xFFFF, above 32000
    ],
    ids=["id_0xff", "raw_above_32000"],
)
def test_relay_drops_a_record_no_encoder_writes(data):
    state, _ = step(relay(), SlotStart("rx", 0.0))
    state, _ = step(state, BytesArrived(data, 0.5))
    state, actions = step(state, SlotEnd(1.0))
    assert len(actions) == 1 and isinstance(actions[0], DropPacket)
    assert actions[0].reason is DropReason.BAD_RECORD
    assert state.pending_frame is None
    _, actions = step(state, SlotStart("tx", 1.0))
    assert actions == []


@pytest.mark.parametrize("role", [NodeRole.RELAY, NodeRole.SINK])
def test_frame_with_fewer_records_than_keys_is_dropped(role):
    # two keys, one record: decode_frame accepts it, the relay invariant does not
    data = bytes.fromhex("ff50b4aa7d203b8000")
    assert len(fr.decode_frame(data, (180, 170)).records) == 1
    state = NodeState(NodeIdentity(2, role, 154, (180, 170), QUIET))
    state, _ = step(state, SlotStart("rx", 0.0))
    state, _ = step(state, BytesArrived(data, 0.5))
    state, actions = step(state, SlotEnd(1.0))
    assert len(actions) == 1 and isinstance(actions[0], DropPacket)
    assert actions[0].reason is DropReason.BAD_PAYLOAD_LENGTH
    assert state.pending_frame is None


def test_a_frame_error_no_drop_reason_names_propagates(monkeypatch):
    def decode_fails(data, expected_keys):
        raise fr.FrameError("no drop reason for this")

    monkeypatch.setattr(fr, "decode_frame", decode_fails)
    state, _ = step(relay(), SlotStart("rx", 0.0))
    state, _ = step(state, BytesArrived(b"\xff", 0.5))
    emitted = None
    with pytest.raises(fr.FrameError, match="no drop reason") as raised:
        emitted = step(state, SlotEnd(1.0))
    assert type(raised.value) is fr.FrameError
    assert emitted is None  # no DropPacket stands in for the error


def test_every_relay_transition_returns_a_checked_state(post_inits):
    checked = post_inits(NodeState)
    upstream = fr.encode_frame(fr.Frame((180,), (fr.SensorRecord(0, 19.5),)))
    state = relay()
    round_events = [
        SlotStart("rx", 0.0),
        BytesArrived(upstream, 0.5),
        SlotEnd(1.0),
        SlotStart("tx", 1.0),
        SlotEnd(2.0),
    ]
    for event in round_events:
        checked.clear()
        state, _ = step(state, event)
        assert any(s is state for s in checked), event
    assert state.phase is Phase.IDLE


# --- step: sink ----------------------------------------------------------------


def test_sink_appends_own_record_and_delivers():
    two_hop = fr.encode_frame(
        fr.Frame((180, 170), (fr.SensorRecord(0, 19.5), fr.SensorRecord(1, 20.25)))
    )
    state, _ = step(sink(), SlotStart("rx", 2.0))
    state, _ = step(state, BytesArrived(two_hop, 2.5))
    state, actions = step(state, SlotEnd(3.0))
    assert len(actions) == 1 and isinstance(actions[0], DeliverToMonitor)
    delivered = actions[0].frame
    assert delivered.key_chain == (180, 170, 154)
    assert len(delivered.records) == 3
    assert [r.node_id for r in delivered.records] == [0, 1, 2]
    assert actions[0].time == 3.0
    assert state.pending_frame is None


# --- role safety ------------------------------------------------------------------


def test_originator_never_receives():
    with pytest.raises(ProtocolViolation):
        step(originator(), SlotStart("rx", 0.0))
    with pytest.raises(ProtocolViolation):
        step(originator(), BytesArrived(b"\xff\x50", 0.0))


def test_sink_never_transmits():
    with pytest.raises(ProtocolViolation):
        step(sink(), SlotStart("tx", 0.0))


def test_bytes_outside_rx_slot_rejected():
    with pytest.raises(ProtocolViolation):
        step(relay(), BytesArrived(b"\x00", 0.0))


def test_unknown_slot_kind_and_event_rejected():
    with pytest.raises(ProtocolViolation, match="unknown slot kind"):
        step(relay(), SlotStart("sleep", 0.0))
    with pytest.raises(ProtocolViolation, match="unknown event"):
        step(relay(), "tick")


def test_role_safety_over_random_event_logs():
    rng = random.Random(1234)
    frame_bytes = fr.encode_frame(fr.Frame((180,), (fr.SensorRecord(0, 19.5),)))
    for make_state in (originator, relay, sink):
        for _ in range(60):
            state = make_state()
            clock = 0.0
            for _ in range(30):
                clock += rng.uniform(0.0, 1.0)
                event = rng.choice(
                    [
                        SlotStart("tx", clock),
                        SlotStart("rx", clock),
                        BytesArrived(frame_bytes, clock),
                        SlotEnd(clock),
                    ]
                )
                try:
                    state, actions = step(state, event)
                except ProtocolViolation:
                    continue
                if state.identity.role is NodeRole.ORIGINATOR:
                    assert state.rx_buffer == b""
                if state.identity.role is NodeRole.SINK:
                    assert not any(isinstance(a, TransmitBytes) for a in actions)


def test_step_replay_reproduces_action_log():
    events = [
        SlotStart("rx", 0.0),
        BytesArrived(fr.encode_frame(fr.Frame((180,), (fr.SensorRecord(0, 19.5),))), 0.5),
        SlotEnd(1.0),
        SlotStart("tx", 1.0),
        SlotEnd(2.0),
    ]

    def run():
        state = relay(SensorProfile(noise_std_c=0.3, seed=5))
        log = []
        for event in events:
            state, actions = step(state, event)
            log.append((state, tuple(actions)))
        return log

    assert run() == run()


# --- schedule ----------------------------------------------------------------------


def test_schedule_five_nodes():
    slots = schedule(range(5), 1.0, 0)
    assert len(slots) == 8  # one tx and one rx assignment per hop window
    windows = sorted({(s.start, s.end) for s in slots})
    assert windows == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]
    first = [s for s in slots if s.start == 0.0]
    assert {(s.node_id, s.kind) for s in first} == {(0, "tx"), (1, "rx")}
    last = [s for s in slots if s.start == 3.0]
    assert {(s.node_id, s.kind) for s in last} == {(3, "tx"), (4, "rx")}
    # round time = hop_count * slot_duration
    assert max(s.end for s in slots) - min(s.start for s in slots) == 4.0


def test_schedule_two_nodes_single_window():
    slots = schedule([0, 1], 0.5, 0)
    assert len(slots) == 2
    assert {(s.node_id, s.kind) for s in slots} == {(0, "tx"), (1, "rx")}


def test_schedule_round_offset():
    slots = schedule(range(3), 2.0, 5)
    assert min(s.start for s in slots) == 5 * 2 * 2.0


def test_schedule_slot_too_short():
    # worst-case 5-record frame, fully escaped, from the codec oracle
    worst_bits = 10 * fr.worst_case_frame_length(5)
    threshold = worst_bits / 9600.0
    with pytest.raises(SlotTooShort):
        schedule(range(5), threshold * 0.999, 0)
    schedule(range(5), threshold, 0)  # exactly enough passes
    assert min_slot_duration(5) == threshold


def test_schedule_validation():
    with pytest.raises(ValueError):
        schedule([0], 1.0, 0)
    with pytest.raises(ValueError):
        schedule(range(3), 0.0, 0)


def test_node_identity_validation():
    with pytest.raises(ValueError):
        NodeIdentity(0, NodeRole.ORIGINATOR, 180, (170,))
    with pytest.raises(ValueError):
        NodeIdentity(1, NodeRole.RELAY, 170, ())
    with pytest.raises(ValueError):
        NodeIdentity(0, NodeRole.ORIGINATOR, 0, ())
    # the id and the upstream chain are checked too, and held as Python ints
    with pytest.raises(ValueError, match="node id"):
        NodeIdentity(255, NodeRole.ORIGINATOR, 180, ())
    with pytest.raises(ValueError, match="auth key"):
        NodeIdentity(1, NodeRole.RELAY, 170, (180, 0xFF))
    # the key chain repeats no key: not the node's own, nor an upstream one
    with pytest.raises(ValueError, match="distinct"):
        NodeIdentity(5, NodeRole.RELAY, 170, (180, 170))
    with pytest.raises(ValueError, match="distinct"):
        NodeIdentity(5, NodeRole.SINK, 170, (180, 180))
    identity = NodeIdentity(np.int64(1), NodeRole.RELAY, np.uint8(170), [np.int64(180)])
    assert identity == NodeIdentity(1, NodeRole.RELAY, 170, (180,))
    assert type(identity.node_id) is int and type(identity.own_key) is int
    assert [type(k) for k in identity.expected_upstream_keys] == [int]


def test_node_state_refuses_anything_but_an_identity():
    identity = relay().identity
    assert NodeState(identity).identity is identity
    for fake in (None, (1, NodeRole.RELAY, 170, (180,)), object()):
        with pytest.raises(TypeError, match="NodeIdentity"):
            NodeState(fake)
