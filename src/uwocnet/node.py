"""Half-duplex relay state machine for one sensor node.

Each node runs the same loop: receive the upstream frame during its rx
slot, authenticate it against the expected key chain, append its own key
and a fresh sensor reading, and transmit downstream in its tx slot.  The
first node on the line originates frames instead of receiving; the last
node delivers to the monitor instead of transmitting.  A frame that fails
to decode or to authenticate (or never arrives) is dropped for the round -
there are no retransmissions or NACKs.

A state is a NodeIdentity, checked once, plus phase, rx buffer and pending
frame.  step() is a pure function of (state, event): it returns a new state
on the same identity plus the actions the node emits, never mutating its
inputs, so replaying an event log reproduces the action log exactly and
states for different nodes can be advanced concurrently between slots.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import frame as fr
from .channel import BITS_PER_BYTE_ON_WIRE
from .rng import Substream, as_float, derive_state, derive_states, seed_word, uniform_at

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


# The members that step and NodeState read, bound once: on Python 3.11 each
# read of an enum class attribute goes through EnumType.__getattr__'s slot
# (~0.1 us), and one canary round of a 5-node line makes ~180 such reads.
_ORIGINATOR, _SINK = NodeRole.ORIGINATOR, NodeRole.SINK
_IDLE, _RECEIVING, _TRANSMITTING = Phase.IDLE, Phase.RECEIVING, Phase.TRANSMITTING


class DropReason(Enum):
    TIMEOUT = "timeout"
    BAD_HEADER = "bad_header"
    AUTH_MISMATCH = "auth_mismatch"
    TRUNCATED = "truncated"
    MALFORMED_ESCAPE = "malformed_escape"
    BAD_PAYLOAD_LENGTH = "bad_payload_length"
    BAD_RECORD = "bad_record"


_DROP_REASONS = {
    fr.BadHeader: DropReason.BAD_HEADER,
    fr.AuthMismatch: DropReason.AUTH_MISMATCH,
    fr.TruncatedFrame: DropReason.TRUNCATED,
    fr.MalformedEscape: DropReason.MALFORMED_ESCAPE,
    fr.BadPayloadLength: DropReason.BAD_PAYLOAD_LENGTH,
    fr.RecordOutOfRange: DropReason.BAD_RECORD,
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
        seed_word(self.seed)  # TypeError unless an integer (bool is not one)
        for name in ("baseline_c", "amplitude_c", "period_s", "noise_std_c"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        if self.period_s <= 0:
            raise ValueError("period_s must be > 0")
        if self.noise_std_c < 0:
            raise ValueError("noise_std_c must be >= 0")


def sample_sensor(node_id: int, clock: float, profile: SensorProfile) -> fr.SensorRecord:
    """The record node_id appends at time clock.

    Deterministic: identical (seed, node_id, clock) -> identical value.
    """
    temp = profile.baseline_c + profile.amplitude_c * math.sin(
        2.0 * math.pi * clock / profile.period_s
    )
    if profile.noise_std_c > 0.0:
        (clock_bits,) = struct.unpack("<Q", struct.pack("<d", clock))
        stream = Substream(profile.seed, _SENSOR_STREAM_TAG, node_id, clock_bits)
        temp += profile.noise_std_c * stream.gauss()
    return fr.SensorRecord(node_id, temp)


def _noise_words(node_ids, clocks: np.ndarray, profile: SensorProfile):
    """The two uniforms gauss() takes first in sample_sensor's noise streams.

    Returns (u1, u2), arrays of the broadcast shape of node_ids and clocks.
    They are gauss()'s words only where u1 > 0: otherwise gauss() redraws
    u1, and the reading must be taken with sample_sensor.
    """
    ids = np.asarray(node_ids)
    head = derive_state(profile.seed, _SENSOR_STREAM_TAG)
    folds = [derive_state(head, i) for i in ids.ravel().tolist()]
    prefix = np.array(folds, np.uint64).reshape(ids.shape)  # each node's stream prefix
    states = derive_states(prefix, clocks.view(np.uint64))
    return uniform_at(states, 0), uniform_at(states, 1)


def _temperatures(node_ids, clocks: np.ndarray, profile: SensorProfile, sin, log, cos):
    """sample_sensor's temperatures over arrays, with the given sin, log and cos.

    Every other operation is exactly rounded in numpy as in Python and runs
    in sample_sensor's and gauss()'s order, so with libm's sin/log/cos the
    values are the scalar readings bit for bit; other forms move them by
    their error times amplitude_c and noise_std_c * |gauss|.  Returns
    (temperatures, mask of the cells where gauss() redraws u1, left for
    sample_sensor).
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


def _half_tan_sin(x):
    """sin x as 2t / (1 + t**2), t = tan(x / 2).  numpy vectorises tan, but
    calls libm once per value for float64 sin and cos: ~10x slower than tan
    on an AVX-512 host."""
    t = np.tan(0.5 * x)
    return 2.0 * t / (1.0 + t * t)


def _half_tan_cos(x):
    """cos x as (1 - t**2) / (1 + t**2), t = tan(x / 2)."""
    t = np.tan(0.5 * x)
    t *= t
    return (1.0 - t) / (1.0 + t)


def _libm(f):
    """The scalar math function f over a 1-d float array, one call per value."""
    return lambda x: np.fromiter(map(f, x.tolist()), np.float64, len(x))


# Distance from a .5 rounding tie inside which sensor_raw recomputes a
# reading with sample_sensor.  The tan forms came within 2.2e-16 (absolute)
# of math.sin on 2e5 drift angles up to round 10**9 and of math.cos on 2e5
# values of 2 pi u2 and at u2 = 0, 1/4, 1/2, 3/4 and 1 - 2**-53; numpy's log
# is within an ulp of libm's.  With the default profile that moves
# (temp + 40) * 256 by ~1e-13, seven orders of magnitude inside this.
_TIE_MARGIN = 1e-6


def sensor_raw(node_ids, clocks: np.ndarray, profile: SensorProfile) -> np.ndarray:
    """Fixed-point values of sample_sensor(node_id, clock, profile) readings.

    node_ids is an int or an integer array that broadcasts to the shape of
    clocks, a float64 array.  The values equal round(fr.fixed_point(temperature)) of
    the scalar readings exactly; they are not checked against the record
    range, which is the encoder's job.  The sine drift and gauss()'s cosine
    are taken in their tan(x / 2) forms, which may differ from libm's in
    the last bit or two; a reading within _TIE_MARGIN of a rounding tie is
    recomputed with sample_sensor, so no such difference reaches a value.
    """
    temp, redo = _temperatures(
        node_ids, clocks, profile, _half_tan_sin, np.log, _half_tan_cos
    )
    x = fr.fixed_point(temp)
    raw = np.rint(x).astype(np.int64)
    redo |= np.abs(x - raw) > 0.5 - _TIE_MARGIN
    if redo.any():
        ids = np.broadcast_to(node_ids, raw.shape)
        for i in zip(*np.nonzero(redo)):
            record = sample_sensor(int(ids[i]), float(clocks[i]), profile)
            raw[i] = round(fr.fixed_point(record.temperature_c))
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
class NodeIdentity:
    """A node's place on the line, checked once; ids and keys are held as
    the Python ints frame.validate_node_id/validate_auth_key return."""

    node_id: int
    role: NodeRole
    own_key: int
    expected_upstream_keys: tuple[int, ...]
    profile: SensorProfile = SensorProfile()

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_id", fr.validate_node_id(self.node_id))
        object.__setattr__(self, "own_key", fr.validate_auth_key(self.own_key))
        upstream = tuple(map(fr.validate_auth_key, self.expected_upstream_keys))
        object.__setattr__(self, "expected_upstream_keys", upstream)
        if self.role is _ORIGINATOR and upstream:
            raise ValueError("an originator expects no upstream keys")
        if self.role is not _ORIGINATOR and not upstream:
            raise ValueError("relay/sink nodes need the expected upstream key chain")
        if len({self.own_key, *upstream}) <= len(upstream):
            raise ValueError("a node's own and upstream keys must be distinct")


@dataclass(frozen=True, slots=True)
class NodeState:
    """A node's checked identity plus its phase, rx buffer and pending frame."""

    identity: NodeIdentity
    phase: Phase = Phase.IDLE
    rx_buffer: bytes = b""
    pending_frame: fr.Frame | None = None

    def __post_init__(self) -> None:
        if type(self.identity) is not NodeIdentity:
            raise TypeError(f"a node state needs a NodeIdentity, got {self.identity!r}")


def step(state: NodeState, event: NodeEvent) -> tuple[NodeState, list[NodeAction]]:
    """Advance one node by one event; returns (new state, emitted actions)."""
    identity = state.identity
    event_type = type(event)
    if event_type is SlotStart:
        if state.phase is not _IDLE:
            raise ProtocolViolation(
                f"node {identity.node_id}: slot start while {state.phase.value}"
            )
        if event.kind == "tx":
            if identity.role is _SINK:
                raise ProtocolViolation("a sink never transmits")
            if identity.role is _ORIGINATOR:
                record = sample_sensor(identity.node_id, event.time, identity.profile)
                data = fr.encode_frame(fr.Frame((identity.own_key,), (record,)))
                return NodeState(identity, _TRANSMITTING), [TransmitBytes(data)]
            if state.pending_frame is None:
                # Nothing survived the rx slot; hold the slot silently.
                return NodeState(identity), []
            data = fr.encode_frame(state.pending_frame)
            return NodeState(identity, _TRANSMITTING), [TransmitBytes(data)]
        if event.kind == "rx":
            if identity.role is _ORIGINATOR:
                raise ProtocolViolation("an originator never receives")
            return NodeState(identity, _RECEIVING), []
        raise ProtocolViolation(f"unknown slot kind {event.kind!r}")

    if event_type is BytesArrived:
        if identity.role is _ORIGINATOR:
            raise ProtocolViolation("bytes arrived at an originator")
        if state.phase is not _RECEIVING:
            raise ProtocolViolation(
                f"node {identity.node_id}: bytes outside an rx slot"
            )
        return NodeState(identity, _RECEIVING, state.rx_buffer + event.data), []

    if event_type is SlotEnd:
        if state.phase is _RECEIVING:
            if not state.rx_buffer:
                drop = DropPacket(DropReason.TIMEOUT, "empty rx slot")
                return NodeState(identity), [drop]
            try:
                frame = fr.decode_frame(state.rx_buffer, identity.expected_upstream_keys)
            except fr.FrameError as exc:
                reason = _DROP_REASONS.get(type(exc))
                if reason is None:
                    raise
                return NodeState(identity), [DropPacket(reason, str(exc))]
            if len(frame.records) != len(frame.key_chain):  # each hop adds one of each
                detail = f"{len(frame.records)} records, {len(frame.key_chain)} keys"
                drop = DropPacket(DropReason.BAD_PAYLOAD_LENGTH, detail)
                return NodeState(identity), [drop]
            record = sample_sensor(identity.node_id, event.time, identity.profile)
            extended = fr.append_hop(frame, identity.own_key, record)
            if identity.role is _SINK:
                return NodeState(identity), [DeliverToMonitor(extended, event.time)]
            return NodeState(identity, pending_frame=extended), []
        return NodeState(identity), []  # the end of a tx slot, or of no slot

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


def slot_start(round_index, hop, hops: int, slot_duration: float):
    """When hop's slot window opens in round round_index of a line of hops
    hops: the one slot clock of schedule and both simulation engines.  It
    uses operators only, so scalars and numpy arrays round alike."""
    return round_index * (hops * slot_duration) + hop * slot_duration


def schedule(
    node_ids,
    slot_duration: float,
    round_index: int,
    bit_rate: float = DEFAULT_BIT_RATE,
) -> list[Slot]:
    """Pipeline TDMA schedule for one end-to-end round over a line.

    Hop i occupies slot window i: node i transmits while node i+1 receives.
    Windows are disjoint, so exactly one link is active at a time and each
    node is in at most one slot per window.  Window i of the round opens
    at slot_start(round_index, i, hop_count, slot_duration).

    Raises SlotTooShort when the worst-case frame (every node's record
    accumulated, every payload byte escaped) cannot be serialized at
    bit_rate within one slot.
    """
    ids = tuple(node_ids)
    if len(ids) < 2:
        raise ValueError("a schedule needs at least two nodes")
    slot_duration = checked_slot(len(ids), slot_duration, bit_rate)
    hops = len(ids) - 1
    slots: list[Slot] = []
    for i in range(hops):
        start = slot_start(round_index, i, hops, slot_duration)
        end = start + slot_duration
        slots.append(Slot(ids[i], "tx", start, end))
        slots.append(Slot(ids[i + 1], "rx", start, end))
    return slots


def checked_slot(
    node_count: int, slot_duration, bit_rate: float = DEFAULT_BIT_RATE
) -> float:
    """slot_duration as a Python float (rng.as_float), checked to be > 0 and
    to fit the worst-case frame of a line of node_count nodes at bit_rate:
    schedule's slot check, which the simulation engines run without a
    schedule.  Raises SlotTooShort when the frame does not fit."""
    slot = as_float(slot_duration, "slot_duration")
    if slot <= 0:
        raise ValueError("slot_duration must be > 0")
    needed = min_slot_duration(node_count, bit_rate)
    if needed > slot:
        raise SlotTooShort(
            f"largest frame needs {needed:.6g} s at {bit_rate:g} bit/s, "
            f"slot is {slot:.6g} s"
        )
    return slot


def min_slot_duration(node_count: int, bit_rate: float = DEFAULT_BIT_RATE) -> float:
    """Smallest slot that passes the schedule() worst-case frame check."""
    if as_float(bit_rate, "bit_rate") <= 0:
        raise ValueError("bit_rate must be > 0")
    return BITS_PER_BYTE_ON_WIRE * fr.worst_case_frame_length(node_count) / bit_rate
