"""Relay data frame codec with accumulating per-node authentication keys.

Wire format (one frame)::

    [0xFF] [0x50] [key_0 .. key_{k-1}] [escaped payload ...] [0x00]
     header sync   authentication keys  sensor records         end

Each node on the relay path appends its own one-byte authentication key to
the key chain and one sensor record to the payload, so a frame that has
crossed k nodes carries k keys and k records in hop order.  A receiver
authenticates by comparing the key chain byte-for-byte against the chain it
expects for its upstream path.

A sensor record is three payload bytes before escaping::

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
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

HEADER_BYTE = 0xFF
SYNC_BYTE = 0x50
END_BYTE = 0x00
ESCAPE_BYTE = 0x7D
ESCAPE_XOR = 0x20
_ESCAPED = frozenset((0x00, 0xFF, ESCAPE_BYTE))

KEY_MIN = 0x01
KEY_MAX = 0xFE

TEMP_MIN_C = -40.0
TEMP_MAX_C = 85.0
_RAW_MAX = 32000  # (85 + 40) * 256
_BYTES_PER_RECORD = 3

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


def validate_auth_key(value: int) -> int:
    """Check a key byte is in [1, 254]; 0x00/0xFF collide with framing."""
    if not isinstance(value, int) or not KEY_MIN <= value <= KEY_MAX:
        raise ValueError(f"auth key must be an integer in [1, 254], got {value!r}")
    return value


def validate_node_id(value: int) -> int:
    """Check a node id fits the record's one id byte, [0, 254]."""
    if not isinstance(value, int) or not 0 <= value <= 254:
        raise ValueError(f"node id must be an integer in [0, 254], got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class SensorRecord:
    """One node's contribution to the payload: who measured what."""

    node_id: int
    temperature_c: float

    def __post_init__(self) -> None:
        validate_node_id(self.node_id)


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
    keeps len(records) == len(key_chain); the decoder tolerates any record
    count (the wire carries no count field).
    """

    key_chain: tuple[int, ...]
    records: tuple[SensorRecord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "key_chain", tuple(self.key_chain))
        object.__setattr__(self, "records", tuple(self.records))
        if len(self.key_chain) < 1:
            raise ValueError("frame needs at least one authentication key")
        for key in self.key_chain:
            validate_auth_key(key)


def _escaped(b):
    """1 where byte b needs escaping, else 0; elementwise on numpy arrays."""
    return sum((b == e) * 1 for e in _ESCAPED)


def record_length(node_id: int, raw):
    """Encoded bytes of one in-range record, escapes included.

    raw may be a numpy array of fixed-point values (one per record).
    """
    hi, lo = raw >> 8, raw & 0xFF
    return _BYTES_PER_RECORD + _escaped(node_id) + _escaped(hi) + _escaped(lo)


def escape_payload(raw: bytes | bytearray) -> bytes:
    """Byte-stuff a payload so it contains no bare 0x00, 0xFF or 0x7D."""
    out = bytearray()
    for b in raw:
        if b in _ESCAPED:
            out.append(ESCAPE_BYTE)
            out.append(b ^ ESCAPE_XOR)
        else:
            out.append(b)
    return bytes(out)


def unescape_payload(data: bytes | bytearray) -> bytes:
    """Invert escape_payload.

    Raises MalformedEscape on a dangling escape byte, an escape pair that
    does not decode to a reserved byte, or a bare reserved byte.
    """
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        if b == ESCAPE_BYTE:
            if i + 1 >= n:
                raise MalformedEscape("escape byte at end of payload")
            decoded = data[i + 1] ^ ESCAPE_XOR
            if decoded not in _ESCAPED:
                raise MalformedEscape(
                    f"invalid escape pair 0x7D 0x{data[i + 1]:02X}"
                )
            out.append(decoded)
            i += 2
        elif b in _ESCAPED:
            raise MalformedEscape(f"bare reserved byte 0x{b:02X} in payload")
        else:
            out.append(b)
            i += 1
    return bytes(out)


def _frame_unchecked(keys: tuple[int, ...], records: tuple[SensorRecord, ...]) -> Frame:
    # Internal fast path for inputs already validated by the caller.
    f = object.__new__(Frame)
    object.__setattr__(f, "key_chain", keys)
    object.__setattr__(f, "records", records)
    return f


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame: header, sync, keys, escaped records, end byte."""
    out = bytearray((HEADER_BYTE, SYNC_BYTE))
    out.extend(frame.key_chain)
    payload = bytearray()
    for rec in frame.records:
        raw = temperature_to_raw(rec.temperature_c)
        payload.append(rec.node_id)
        payload.append(raw >> 8)
        payload.append(raw & 0xFF)
    out.extend(escape_payload(payload))
    out.append(END_BYTE)
    return bytes(out)


def decode_frame(data: bytes | bytearray, expected_keys) -> Frame:
    """Parse and authenticate a complete frame.

    expected_keys is the full key chain the receiver expects on this link
    (known from the static topology; the wire has no count field).

    Raises BadHeader, AuthMismatch, TruncatedFrame, MalformedEscape or
    BadPayloadLength.
    """
    expected = tuple(expected_keys)
    if len(expected) < 1:
        raise ValueError("expected_keys must name at least one key")
    for key in expected:
        validate_auth_key(key)
    if len(data) < 2 or data[0] != HEADER_BYTE or data[1] != SYNC_BYTE:
        got = bytes(data[:2]).hex() if len(data) >= 2 else bytes(data).hex()
        raise BadHeader(f"frame must start ff 50, got {got or '<empty>'}")
    for i, want in enumerate(expected):
        pos = 2 + i
        if pos >= len(data):
            raise TruncatedFrame(f"frame ends inside key chain (position {i})")
        if data[pos] != want:
            raise AuthMismatch(i, data[pos], want)
    payload_start = 2 + len(expected)
    try:
        end = data.index(END_BYTE, payload_start)
    except ValueError:
        raise TruncatedFrame("no end byte") from None
    payload = unescape_payload(data[payload_start:end])
    if len(payload) % _BYTES_PER_RECORD != 0:
        raise BadPayloadLength(
            f"payload is {len(payload)} bytes, not a multiple of 3"
        )
    records = []
    for off in range(0, len(payload), _BYTES_PER_RECORD):
        raw = (payload[off + 1] << 8) | payload[off + 2]
        records.append(SensorRecord(payload[off], raw_to_temperature(raw)))
    return _frame_unchecked(expected, tuple(records))


def append_hop(frame: Frame, key: int, record: SensorRecord) -> Frame:
    """Return a new frame extended with this hop's key and record."""
    validate_auth_key(key)
    if key in frame.key_chain:
        raise DuplicateKey(f"key {key} already present in chain")
    return _frame_unchecked(frame.key_chain + (key,), frame.records + (record,))


# Temperature whose fixed-point bytes (0x3C, 0x80) never need escaping;
# used to define the deterministic "skeleton" frame length below.
REFERENCE_TEMP_C = 20.5
FRAME_OVERHEAD = 3  # header, sync and end bytes


def nominal_frame_length(node_ids) -> int:
    """Encoded length of a frame carrying one record per given node id.

    Assumes temperature bytes that need no escaping (node ids 0x00/0x7D
    still cost an extra escape byte each).  This is the deterministic
    frame-size model used by the closed-form link budget; actual frames
    differ only when a temperature byte happens to land on a reserved
    value.
    """
    ids = tuple(node_ids)
    payload = sum(3 + (1 if i in _ESCAPED else 0) for i in ids)
    return FRAME_OVERHEAD + len(ids) + payload


def worst_case_frame_length(record_count: int) -> int:
    """Upper bound on encoded length: every payload byte escaped."""
    return FRAME_OVERHEAD + record_count + 2 * _BYTES_PER_RECORD * record_count
