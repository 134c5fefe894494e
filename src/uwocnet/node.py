"""Half-duplex relay state machine for one sensor node.

Each node runs the same loop: receive the upstream frame during its rx
slot, authenticate it against the expected key chain, append its own key
and a fresh sensor reading, and transmit downstream in its tx slot.  The
first node on the line originates frames instead of receiving; the last
node delivers to the monitor instead of transmitting.  A frame that fails
authentication (or never arrives) is dropped for the round - there are no
retransmissions or NACKs.

step() is a pure function of (state, event): it returns a new state plus
the actions the node emits, never mutating its inputs, so replaying an
event log reproduces the action log exactly and states for different
nodes can be advanced concurrently between slot boundaries.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import frame as fr
from .rng import Substream, derive_states, uniform_at

_SENSOR_STREAM_TAG = 0x5E_45_0001
DEFAULT_BIT_RATE = 9600.0


class NodeRole(Enum):
    ORIGINATOR = "originator"
    RELAY = "relay"
    SINK = "sink"


class Phase(Enum):
    IDLE = "idle"
    RECEIVING = "receiving"
    TRANSMITTING = "transmitting"


class DropReason(Enum):
    TIMEOUT = "timeout"
    BAD_HEADER = "bad_header"
    AUTH_MISMATCH = "auth_mismatch"
    TRUNCATED = "truncated"
    MALFORMED_ESCAPE = "malformed_escape"
    BAD_PAYLOAD_LENGTH = "bad_payload_length"


_DROP_REASONS = {
    fr.BadHeader: DropReason.BAD_HEADER,
    fr.AuthMismatch: DropReason.AUTH_MISMATCH,
    fr.TruncatedFrame: DropReason.TRUNCATED,
    fr.MalformedEscape: DropReason.MALFORMED_ESCAPE,
    fr.BadPayloadLength: DropReason.BAD_PAYLOAD_LENGTH,
}


class ProtocolViolation(Exception):
    """An event arrived that is invalid for the node's role or phase."""


@dataclass(frozen=True, slots=True)
class SensorProfile:
    """Synthetic temperature source: slow sine drift plus Gaussian noise.

    Defaults give a gentle diurnal-style wobble around 20 degC; they are
    synthetic values, not measurements.
    """

    baseline_c: float = 20.0
    amplitude_c: float = 1.5
    period_s: float = 3600.0
    noise_std_c: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        values = (self.baseline_c, self.amplitude_c, self.period_s, self.noise_std_c)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("sensor profile values must be finite")
        if self.period_s <= 0:
            raise ValueError("period_s must be > 0")
        if self.noise_std_c < 0:
            raise ValueError("noise_std_c must be >= 0")


@dataclass(frozen=True, slots=True)
class SensorReading:
    node_id: int
    temperature_c: float
    timestamp_s: float


def sample_sensor(node_id: int, clock: float, profile: SensorProfile) -> SensorReading:
    """Deterministic reading: identical (seed, node_id, clock) -> identical value."""
    temp = profile.baseline_c + profile.amplitude_c * math.sin(
        2.0 * math.pi * clock / profile.period_s
    )
    if profile.noise_std_c > 0.0:
        (clock_bits,) = struct.unpack("<Q", struct.pack("<d", clock))
        stream = Substream(profile.seed, _SENSOR_STREAM_TAG, node_id, clock_bits)
        temp += profile.noise_std_c * stream.gauss()
    return SensorReading(node_id, temp, clock)


def _noise_words(node_ids, clocks: np.ndarray, profile: SensorProfile):
    """The two uniforms gauss() takes first in sample_sensor's noise streams.

    Returns (u1, u2), arrays of the broadcast shape of node_ids and clocks.
    They are gauss()'s words only where u1 > 0: otherwise gauss() redraws
    u1, and the reading must be taken with sample_sensor.
    """
    ids = np.asarray(node_ids)
    ids = int(ids) if ids.ndim == 0 else ids  # scalar words fold in as ints
    states = derive_states(
        profile.seed, _SENSOR_STREAM_TAG, ids, clocks.view(np.uint64)
    )
    return uniform_at(states, 0), uniform_at(states, 1)


def _temperatures(node_ids, clocks: np.ndarray, profile: SensorProfile, sin, log, cos):
    """sample_sensor's temperatures over arrays, with the given sin, log and cos.

    Every other operation is exactly rounded in numpy as in Python and runs
    in sample_sensor's and gauss()'s order, so with libm's sin/log/cos the
    values are the scalar readings bit for bit.  Returns (temperatures,
    mask of the cells where gauss() redraws u1, left for sample_sensor).
    """
    temp = profile.baseline_c + profile.amplitude_c * sin(
        2.0 * math.pi * clocks / profile.period_s
    )
    redo = np.zeros(temp.shape, dtype=bool)
    if profile.noise_std_c > 0.0:
        u1, u2 = _noise_words(node_ids, clocks, profile)
        redo = u1 <= 0.0  # gauss() redraws u1, shifting u2 by one word
        gauss = np.sqrt(-2.0 * log(np.where(redo, 1.0, u1))) * cos(
            2.0 * math.pi * u2
        )
        temp = temp + profile.noise_std_c * gauss
    return temp, redo


def _libm(f):
    """The scalar math function f over a 1-d float array, one call per value."""
    return lambda x: np.fromiter(map(f, x.tolist()), np.float64, len(x))


# Distance from a .5 rounding tie inside which sensor_raw recomputes a
# reading with sample_sensor: numpy's sin/log/cos may differ from libm's by
# an ulp, which moves (temp + 40) * 256 by far less than this.
_TIE_MARGIN = 1e-6


def sensor_raw(node_ids, clocks: np.ndarray, profile: SensorProfile) -> np.ndarray:
    """Fixed-point values of sample_sensor(node_id, clock, profile) readings.

    node_ids is an int or an integer array that broadcasts to the shape of
    clocks, a float64 array.  The values equal round(fr.fixed_point(temperature)) of
    the scalar readings exactly; they are not checked against the record
    range, which is the encoder's job.
    """
    temp, redo = _temperatures(node_ids, clocks, profile, np.sin, np.log, np.cos)
    x = fr.fixed_point(temp)
    raw = np.rint(x).astype(np.int64)
    redo |= np.abs(x - np.floor(x) - 0.5) < _TIE_MARGIN
    if redo.any():
        ids = np.broadcast_to(node_ids, raw.shape)
        for i in zip(*np.nonzero(redo)):
            reading = sample_sensor(int(ids[i]), float(clocks[i]), profile)
            raw[i] = round(fr.fixed_point(reading.temperature_c))
    return raw


def sensor_temperatures(
    node_id: int, clocks: np.ndarray, profile: SensorProfile
) -> list[float]:
    """sample_sensor(node_id, clock, profile).temperature_c for each of clocks.

    clocks is a 1-d float64 array.  The noise words are drawn for the whole
    array at once and only libm's sin, log and cos run per value, so every
    value is bit-identical to the scalar reading.
    """
    temp, redo = _temperatures(
        node_id, clocks, profile, _libm(math.sin), _libm(math.log), _libm(math.cos)
    )
    temps = temp.tolist()
    for i in np.flatnonzero(redo).tolist():
        temps[i] = sample_sensor(node_id, float(clocks[i]), profile).temperature_c
    return temps


# --- events ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SlotStart:
    kind: str  # "tx" or "rx"
    time: float


@dataclass(frozen=True, slots=True)
class BytesArrived:
    data: bytes
    time: float


@dataclass(frozen=True, slots=True)
class SlotEnd:
    time: float


NodeEvent = SlotStart | BytesArrived | SlotEnd


# --- actions ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TransmitBytes:
    data: bytes


@dataclass(frozen=True, slots=True)
class DeliverToMonitor:
    frame: fr.Frame
    time: float


@dataclass(frozen=True, slots=True)
class DropPacket:
    reason: DropReason
    detail: str = ""


NodeAction = TransmitBytes | DeliverToMonitor | DropPacket


@dataclass(frozen=True, slots=True)
class NodeState:
    """Relay position plus buffered frame and timing context."""

    node_id: int
    role: NodeRole
    own_key: int
    expected_upstream_keys: tuple[int, ...]
    profile: SensorProfile = SensorProfile()
    phase: Phase = Phase.IDLE
    rx_buffer: bytes = b""
    pending_frame: fr.Frame | None = None
    clock: float = 0.0

    def __post_init__(self) -> None:
        fr.validate_auth_key(self.own_key)
        if self.role is NodeRole.ORIGINATOR and self.expected_upstream_keys:
            raise ValueError("an originator expects no upstream keys")
        if self.role is not NodeRole.ORIGINATOR and not self.expected_upstream_keys:
            raise ValueError("relay/sink nodes need the expected upstream key chain")


def _advance(
    state: NodeState,
    *,
    phase: Phase,
    clock: float,
    rx_buffer: bytes = b"",
    pending_frame: fr.Frame | None = None,
) -> NodeState:
    # Transition fast path: identity fields are copied unchanged from an
    # already-validated state, so __init__/__post_init__ are skipped.
    new = object.__new__(NodeState)
    set_ = object.__setattr__
    set_(new, "node_id", state.node_id)
    set_(new, "role", state.role)
    set_(new, "own_key", state.own_key)
    set_(new, "expected_upstream_keys", state.expected_upstream_keys)
    set_(new, "profile", state.profile)
    set_(new, "phase", phase)
    set_(new, "rx_buffer", rx_buffer)
    set_(new, "pending_frame", pending_frame)
    set_(new, "clock", clock)
    return new


def _own_record(state: NodeState, time: float) -> fr.SensorRecord:
    reading = sample_sensor(state.node_id, time, state.profile)
    return fr.SensorRecord(reading.node_id, reading.temperature_c)


def step(state: NodeState, event: NodeEvent) -> tuple[NodeState, list[NodeAction]]:
    """Advance one node by one event; returns (new state, emitted actions)."""
    event_type = type(event)
    if event_type is SlotStart:
        if state.phase is not Phase.IDLE:
            raise ProtocolViolation(
                f"node {state.node_id}: slot start while {state.phase.value}"
            )
        if event.kind == "tx":
            if state.role is NodeRole.SINK:
                raise ProtocolViolation("a sink never transmits")
            if state.role is NodeRole.ORIGINATOR:
                frame = fr.Frame((state.own_key,), (_own_record(state, event.time),))
                new = _advance(state, phase=Phase.TRANSMITTING, clock=event.time)
                return new, [TransmitBytes(fr.encode_frame(frame))]
            if state.pending_frame is None:
                # Nothing survived the rx slot; hold the slot silently.
                return _advance(state, phase=Phase.IDLE, clock=event.time), []
            data = fr.encode_frame(state.pending_frame)
            new = _advance(state, phase=Phase.TRANSMITTING, clock=event.time)
            return new, [TransmitBytes(data)]
        if event.kind == "rx":
            if state.role is NodeRole.ORIGINATOR:
                raise ProtocolViolation("an originator never receives")
            return _advance(state, phase=Phase.RECEIVING, clock=event.time), []
        raise ProtocolViolation(f"unknown slot kind {event.kind!r}")

    if event_type is BytesArrived:
        if state.role is NodeRole.ORIGINATOR:
            raise ProtocolViolation("bytes arrived at an originator")
        if state.phase is not Phase.RECEIVING:
            raise ProtocolViolation(
                f"node {state.node_id}: bytes outside an rx slot"
            )
        return (
            _advance(
                state,
                phase=Phase.RECEIVING,
                clock=event.time,
                rx_buffer=state.rx_buffer + event.data,
            ),
            [],
        )

    if event_type is SlotEnd:
        if state.phase is Phase.TRANSMITTING:
            return _advance(state, phase=Phase.IDLE, clock=event.time), []
        if state.phase is Phase.RECEIVING:
            idle = _advance(state, phase=Phase.IDLE, clock=event.time)
            if not state.rx_buffer:
                return idle, [DropPacket(DropReason.TIMEOUT, "empty rx slot")]
            try:
                frame = fr.decode_frame(state.rx_buffer, state.expected_upstream_keys)
            except fr.FrameError as exc:
                reason = _DROP_REASONS.get(type(exc))
                if reason is None:
                    raise
                return idle, [DropPacket(reason, str(exc))]
            extended = fr.append_hop(frame, state.own_key, _own_record(state, event.time))
            if state.role is NodeRole.SINK:
                return idle, [DeliverToMonitor(extended, event.time)]
            return (
                _advance(
                    state,
                    phase=Phase.IDLE,
                    clock=event.time,
                    pending_frame=extended,
                ),
                [],
            )
        return _advance(state, phase=Phase.IDLE, clock=event.time), []

    raise ProtocolViolation(f"unknown event {event!r}")


# --- slot schedule ----------------------------------------------------------


class SlotTooShort(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Slot:
    node_id: int
    kind: str  # "tx" or "rx"
    start: float
    end: float


def schedule(
    node_ids,
    slot_duration: float,
    round_index: int,
    bit_rate: float = DEFAULT_BIT_RATE,
) -> list[Slot]:
    """Pipeline TDMA schedule for one end-to-end round over a line.

    Hop i occupies slot window i: node i transmits while node i+1 receives.
    Windows are disjoint, so exactly one link is active at a time and each
    node is in at most one slot per window.  Total round time is
    hop_count * slot_duration.

    Raises SlotTooShort when the worst-case frame (every node's record
    accumulated, every payload byte escaped) cannot be serialized at
    bit_rate within one slot.
    """
    ids = tuple(node_ids)
    if len(ids) < 2:
        raise ValueError("a schedule needs at least two nodes")
    if not (math.isfinite(slot_duration) and slot_duration > 0):
        raise ValueError("slot_duration must be finite and > 0")
    needed = min_slot_duration(len(ids), bit_rate)
    if needed > slot_duration:
        raise SlotTooShort(
            f"largest frame needs {needed:.6g} s at {bit_rate:g} bit/s, "
            f"slot is {slot_duration:.6g} s"
        )
    hops = len(ids) - 1
    t0 = round_index * hops * slot_duration
    slots: list[Slot] = []
    for i in range(hops):
        start = t0 + i * slot_duration
        end = start + slot_duration
        slots.append(Slot(ids[i], "tx", start, end))
        slots.append(Slot(ids[i + 1], "rx", start, end))
    return slots


def min_slot_duration(node_count: int, bit_rate: float = DEFAULT_BIT_RATE) -> float:
    """Smallest slot that passes the schedule() worst-case frame check."""
    if not (math.isfinite(bit_rate) and bit_rate > 0):
        raise ValueError("bit_rate must be finite and > 0")
    return 10 * fr.worst_case_frame_length(node_count) / bit_rate
