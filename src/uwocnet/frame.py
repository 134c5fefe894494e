"""Relay data frame codec with accumulating per-node authentication keys.

Wire format (one frame)::

    [0xFF] [0x50] [key_0 .. key_{k-1}] [escaped payload ...] [0x00]
     header sync   authentication keys  sensor records         end

Each node on the relay path appends its own one-byte authentication key to
the key chain and one sensor record to the payload, so a frame that has
crossed k nodes carries k keys and k records in hop order.  A receiver
authenticates by comparing the key chain byte-for-byte against the chain it
expects for its upstream path.

A sensor record is three payload bytes before escaping, struct layout ``>BH``::

    [node_id] [raw_hi] [raw_lo]      raw = round((temp_C + 40) * 256)

which spans -40.0 .. +85.0 degC at 1/256 degC resolution (raw 0 .. 32000).

The payload region is byte-stuffed so the frame's structural bytes stay
unambiguous: 0x00, 0xFF and the escape byte 0x7D are each replaced by
0x7D followed by the byte XOR 0x20.  Keys are never escaped; key values
0x00 and 0xFF are invalid, so the region between sync and end byte can
contain 0x00/0xFF only inside a (0x7D, x) escape pair - i.e. never bare.
There is no length field: the decoder is parameterized by the expected
key chain (static in a fixed linear topology) and the end byte delimits
the payload.

All functions are pure and operate on immutable values; they are safe to
call concurrently.  record_length looks escape costs up in read-only numpy
tables, one per id byte and one per 16-bit value, so no caller can change them.
hop_frame_lengths, built on it, is the one formula for the length of the
frame on each hop: the simulator's counting engine and the closed-form link
budget both take their lengths from it.
"""

from __future__ import annotations

import numbers
import re
import struct
from dataclasses import dataclass

import numpy as np

from .rng import as_int

HEADER_BYTE = 0xFF
SYNC_BYTE = 0x50
END_BYTE = 0x00
ESCAPE_BYTE = 0x7D
ESCAPE_XOR = 0x20
_HEADER = bytes((HEADER_BYTE, SYNC_BYTE))
# The payload bytes that are never bare, the escape byte first: escape_payload's
# order, so that no pair put in is escaped again.  _STUFFING: (byte, its pair).
_RESERVED = bytes((ESCAPE_BYTE, 0x00, 0xFF))
_STUFFING = tuple((bytes((b,)), bytes((ESCAPE_BYTE, b ^ ESCAPE_XOR))) for b in _RESERVED)
# A malformed payload's first fault: whole pairs and plain bytes, then the
# first byte that is neither, and the byte after it if there is one.
_FIRST_FAULT = re.compile(b"(?:%s[%s]|[^%s])*(.)(.)?" % tuple(map(re.escape, (
    _RESERVED[:1], bytes(b ^ ESCAPE_XOR for b in _RESERVED), _RESERVED))), re.DOTALL)
# _ESCAPE_COST[b]: the extra bytes that escaping payload byte b costs.
_ESCAPE_COST = np.zeros(256, dtype=np.int64)
_ESCAPE_COST[list(_RESERVED)] = 1
_ESCAPE_COST.flags.writeable = False
# _VALUE_COST[v]: the cost of both bytes of 16-bit value v, summed in uint8 (64 KiB).
_VALUE_COST = _ESCAPE_COST.astype(np.uint8)
_VALUE_COST = np.add.outer(_VALUE_COST, _VALUE_COST).ravel()
_VALUE_COST.flags.writeable = False

KEY_MIN = 0x01
KEY_MAX = 0xFE

TEMP_MIN_C = -40.0
TEMP_MAX_C = 85.0
_RAW_MAX = 32000  # (85 + 40) * 256
_RECORD = struct.Struct(">BH")  # node id, raw
_BYTES_PER_RECORD = _RECORD.size

# Default key assignment for a five-node line: the first three are the
# protocol's published example keys, the last two fill out five nodes.
DEFAULT_KEY_TABLE = (180, 170, 154, 140, 120)


class FrameError(Exception):
    """Base class for codec failures."""


class RecordOutOfRange(FrameError):
    pass


class BadHeader(FrameError):
    pass


class AuthMismatch(FrameError):
    def __init__(self, position: int, got: int, want: int) -> None:
        super().__init__(
            f"auth key mismatch at position {position}: got {got}, want {want}"
        )
        self.position = position
        self.got = got
        self.want = want


class TruncatedFrame(FrameError):
    pass


class MalformedEscape(FrameError):
    pass


class BadPayloadLength(FrameError):
    pass


class DuplicateKey(FrameError):
    pass


def validate_auth_key(value) -> int:
    """A key byte as a Python int (rng.as_int), checked to be in [1, 254]:
    0x00/0xFF collide with framing."""
    key = value if type(value) is int else as_int(value, "auth key")  # fast path
    if not KEY_MIN <= key <= KEY_MAX:
        raise ValueError(f"auth key must be an integer in [1, 254], got {value!r}")
    return key


def validate_node_id(value) -> int:
    """A node id as a Python int (rng.as_int), checked to fit the record's
    one id byte, [0, 254]."""
    node_id = value if type(value) is int else as_int(value, "node id")  # fast path
    if not 0 <= node_id <= 254:
        raise ValueError(f"node id must be an integer in [0, 254], got {value!r}")
    return node_id


@dataclass(frozen=True, slots=True)
class SensorRecord:
    """One node's contribution to the payload: who measured what, in degC
    as a Python float (nan and inf too: encode_frame rejects them)."""

    node_id: int
    temperature_c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_id", validate_node_id(self.node_id))
        t = self.temperature_c
        if type(t) is not float:  # fast path: a Python float, nan and inf too
            if isinstance(t, bool) or not isinstance(t, numbers.Real):
                raise TypeError(f"temperature_c must be a real number, got {t!r}")
            object.__setattr__(self, "temperature_c", float(t))


def fixed_point(temperature_c):
    """(temp_C + 40) * 256 before rounding; elementwise on numpy arrays."""
    return (temperature_c + 40.0) * 256.0


def raw_in_range(raw):
    """Whether temperature_to_raw accepts raw; elementwise on numpy arrays."""
    return (raw >= 0) & (raw <= _RAW_MAX)


def temperature_to_raw(temperature_c: float) -> int:
    """Quantize degC to the 16-bit fixed-point wire value."""
    x = fixed_point(temperature_c)
    # round() is half-to-even, so this is round(x) in [0, _RAW_MAX]; it also
    # rejects nan and the infinities, which round() cannot take.
    if not -0.5 <= x <= _RAW_MAX + 0.5:
        raise RecordOutOfRange(
            f"temperature {temperature_c} degC outside [-40, 85] fixed-point range"
        )
    return round(x)


def raw_to_temperature(raw: int) -> float:
    """Inverse of temperature_to_raw (exact in binary floating point)."""
    return raw / 256.0 - 40.0


@dataclass(frozen=True, slots=True)
class Frame:
    """A relay frame: ordered key chain plus ordered sensor records.

    key_chain[i] is the i-th node on the relay path.  The relay algorithm
    keeps len(records) == len(key_chain), and node.step drops a frame that
    breaks it; the decoder tolerates any record count (no count field).
    """

    key_chain: tuple[int, ...]
    records: tuple[SensorRecord, ...] = ()

    def __post_init__(self) -> None:
        keys = tuple(map(validate_auth_key, self.key_chain))
        object.__setattr__(self, "key_chain", keys)
        object.__setattr__(self, "records", tuple(self.records))
        if not all(type(rec) is SensorRecord for rec in self.records):
            raise TypeError(f"frame records must be SensorRecords, got {self.records!r}")
        if len(self.key_chain) < 1:
            raise ValueError("frame needs at least one authentication key")


def record_length(node_id, raw):
    """Encoded bytes of one in-range record, escapes included.

    raw may be a numpy array of fixed-point values (one per record), and
    node_id an integer array that broadcasts against it (one id per
    column).  Out-of-range raw values give a length too, never an error:
    rejecting them is the encoder's job.
    """
    return _BYTES_PER_RECORD + _ESCAPE_COST[node_id] + _VALUE_COST[raw & 0xFFFF]


def escape_payload(raw: bytes | bytearray) -> bytes:
    """Byte-stuff a payload so it contains no bare 0x00, 0xFF or 0x7D: each
    becomes (0x7D, b ^ 0x20).  One C-level bytes.replace per reserved byte,
    the escape byte's first, so that no pair put in is escaped again."""
    out = bytes(raw)
    for byte, pair in _STUFFING:
        out = out.replace(byte, pair)
    return out


def unescape_payload(data: bytes | bytearray) -> bytes:
    """Invert escape_payload.

    Raises MalformedEscape on a dangling escape byte, an escape pair that
    does not decode to a reserved byte, or a bare reserved byte: the first
    fault in payload order.  A payload is decoded at C level, each pair
    replaced, the escape byte's last; it is well formed exactly when
    escape_payload gives it back, and only a malformed one is matched
    against _FIRST_FAULT, to name that fault.
    """
    out = bytes(data)
    for byte, pair in reversed(_STUFFING):
        out = out.replace(pair, byte)
    if escape_payload(out) == data:
        return out
    fault, after = _FIRST_FAULT.match(data).groups()
    if fault[0] != ESCAPE_BYTE:
        raise MalformedEscape(f"bare reserved byte 0x{fault[0]:02X} in payload")
    if after is None:
        raise MalformedEscape("escape byte at end of payload")
    raise MalformedEscape(f"invalid escape pair 0x7D 0x{after[0]:02X}")


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame: header, sync, keys, escaped records, end byte."""
    payload = b"".join([_RECORD.pack(rec.node_id, temperature_to_raw(rec.temperature_c))
                        for rec in frame.records])
    return _HEADER + bytes(frame.key_chain) + escape_payload(payload) + bytes((END_BYTE,))


def decode_frame(data: bytes | bytearray, expected_keys) -> Frame:
    """Parse and authenticate a complete frame.

    expected_keys is the full key chain the receiver expects on this link
    (known from the static topology; the wire has no count field).

    Raises BadHeader, AuthMismatch, TruncatedFrame, MalformedEscape,
    BadPayloadLength (also for bytes after the end byte) or RecordOutOfRange
    (a record no encoder writes: id 0xFF, or raw above 32000).
    """
    expected = tuple(map(validate_auth_key, expected_keys))
    if len(expected) < 1:
        raise ValueError("expected_keys must name at least one key")
    if data[:2] != _HEADER:
        got = data[:2].hex() or "<empty>"
        raise BadHeader(f"frame must start {_HEADER.hex(' ')}, got {got}")
    for i, want in enumerate(expected):
        pos = len(_HEADER) + i
        if pos >= len(data):
            raise TruncatedFrame(f"frame ends inside key chain (position {i})")
        if data[pos] != want:
            raise AuthMismatch(i, data[pos], want)
    payload_start = len(_HEADER) + len(expected)
    try:
        end = data.index(END_BYTE, payload_start)
    except ValueError:
        raise TruncatedFrame("no end byte") from None
    if end != len(data) - 1:
        raise BadPayloadLength(f"bytes after the end byte: {len(data) - end - 1}")
    payload = unescape_payload(data[payload_start:end])
    if len(payload) % _BYTES_PER_RECORD != 0:
        raise BadPayloadLength(
            f"payload is {len(payload)} bytes, not a multiple of {_BYTES_PER_RECORD}"
        )
    records = []
    for i, (node_id, raw) in enumerate(_RECORD.iter_unpack(payload)):
        if node_id == 0xFF or not raw_in_range(raw):
            raise RecordOutOfRange(f"record at payload byte {i * _BYTES_PER_RECORD}: "
                                   f"node id {node_id}, raw {raw}")
        records.append(SensorRecord(node_id, raw_to_temperature(raw)))
    return Frame(expected, records)


def append_hop(frame: Frame, key: int, record: SensorRecord) -> Frame:
    """Return a new frame extended with this hop's key and record."""
    if key in frame.key_chain:
        raise DuplicateKey(f"key {key} already present in chain")
    return Frame(frame.key_chain + (key,), frame.records + (record,))


# Temperature whose fixed-point bytes (0x3C, 0x80) never need escaping:
# hop_frame_lengths' default reading, which gives the nominal lengths.
REFERENCE_TEMP_C = 20.5
FRAME_OVERHEAD = 3  # header, sync and end bytes


def hop_frame_lengths(node_ids, raw=temperature_to_raw(REFERENCE_TEMP_C)):
    """Encoded length of the frame on each hop of a relay line.

    node_ids are the transmitters in hop order.  The frame on hop j carries
    the key and the record of each of nodes 0..j, so its length is
    FRAME_OVERHEAD + cumsum(1 + record_length) up to j.  raw holds the
    transmitters' fixed-point readings, one per id on its last axis; a
    leading axis of rounds broadcasts, giving one row of lengths per round.
    The default, REFERENCE_TEMP_C, needs no escape byte: the nominal lengths
    of the closed-form link budget (node ids 0x00 and 0x7D still cost one).
    """
    lengths = record_length(np.asarray(node_ids, dtype=np.int64), raw) + 1
    hop = lengths.T  # row j: hop j of every round (np.cumsum loops per round)
    for j in range(1, len(hop)):
        hop[j] += hop[j - 1]
    lengths += FRAME_OVERHEAD
    return lengths


def worst_case_frame_length(record_count: int) -> int:
    """Upper bound on encoded length: every payload byte escaped."""
    return FRAME_OVERHEAD + record_count + 2 * _BYTES_PER_RECORD * record_count
