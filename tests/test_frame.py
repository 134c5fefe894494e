"""Frame codec: escaping, encode/decode, authentication, key accumulation."""

import math
import random

import numpy as np
import pytest

from uwocnet.frame import (
    DEFAULT_KEY_TABLE,
    REFERENCE_TEMP_C,
    AuthMismatch,
    BadHeader,
    BadPayloadLength,
    DuplicateKey,
    Frame,
    MalformedEscape,
    RecordOutOfRange,
    SensorRecord,
    TruncatedFrame,
    append_hop,
    decode_frame,
    encode_frame,
    escape_payload,
    hop_frame_lengths,
    raw_to_temperature,
    temperature_to_raw,
    unescape_payload,
    worst_case_frame_length,
)


def quantized(temp: float) -> float:
    """Snap a temperature onto the wire's fixed-point lattice."""
    return raw_to_temperature(temperature_to_raw(temp))


def random_frame(rng: random.Random, max_keys: int = 5) -> Frame:
    n = rng.randint(1, max_keys)
    keys = tuple(rng.sample(range(1, 255), n))
    records = tuple(
        SensorRecord(rng.randint(0, 254), quantized(rng.uniform(-40.0, 85.0)))
        for _ in range(n)
    )
    return Frame(keys, records)


# --- escaping ---------------------------------------------------------------


def test_escape_empty():
    assert escape_payload(b"") == b""


def test_escape_passthrough():
    assert escape_payload(bytes([0x41, 0x42])) == bytes([0x41, 0x42])


def test_escape_reserved_bytes():
    # XOR-0x20 rule applied by hand: 00->20, FF->DF, 7D->5D.
    assert escape_payload(bytes([0x00, 0xFF, 0x7D])) == bytes(
        [0x7D, 0x20, 0x7D, 0xDF, 0x7D, 0x5D]
    )


def test_escape_roundtrip_all_single_bytes():
    for b in range(256):
        raw = bytes([b])
        assert unescape_payload(escape_payload(raw)) == raw


def test_escape_roundtrip_random_sequences():
    rng = random.Random(2024)
    for _ in range(500):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
        assert unescape_payload(escape_payload(raw)) == raw


def test_escape_output_has_no_bare_reserved_bytes():
    rng = random.Random(7)
    for _ in range(200):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
        out = escape_payload(raw)
        i = 0
        while i < len(out):
            if out[i] == 0x7D:
                i += 2  # escape pair
            else:
                assert out[i] not in (0x00, 0xFF, 0x7D)
                i += 1


def test_escape_injective():
    rng = random.Random(99)
    seen = {}
    for _ in range(2000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randint(0, 16)))
        out = escape_payload(raw)
        if out in seen:
            assert seen[out] == raw
        seen[out] = raw


RESERVED = (0x00, 0xFF, 0x7D)


def loop_escape(raw: bytes) -> bytes:
    """escape_payload one byte at a time: the reference of its C-level passes."""
    out = bytearray()
    for b in raw:
        out += bytes((0x7D, b ^ 0x20)) if b in RESERVED else bytes((b,))
    return bytes(out)


def loop_unescape(data: bytes) -> bytes:
    """unescape_payload one byte at a time, raising MalformedEscape with its
    texts at the first fault."""
    out, i = bytearray(), 0
    while i < len(data):
        b = data[i]
        if b == 0x7D:
            if i + 1 >= len(data):
                raise MalformedEscape("escape byte at end of payload")
            if data[i + 1] ^ 0x20 not in RESERVED:
                raise MalformedEscape(f"invalid escape pair 0x7D 0x{data[i + 1]:02X}")
            out.append(data[i + 1] ^ 0x20)
            i += 2
        elif b in RESERVED:
            raise MalformedEscape(f"bare reserved byte 0x{b:02X} in payload")
        else:
            out.append(b)
            i += 1
    return bytes(out)


def loop_result(data: bytes):
    """loop_unescape's result, or the text of the MalformedEscape it raises."""
    try:
        return loop_unescape(data)
    except MalformedEscape as exc:
        return str(exc)


def unescaped_or_error(data):
    try:
        return unescape_payload(data)
    except MalformedEscape as exc:
        return str(exc)


@pytest.mark.parametrize("reserved", [(), (0x00,), (0xFF,), (0x7D,), RESERVED])
def test_codec_equals_the_byte_loop(reserved):
    # payloads without a reserved byte pass through unchanged; with any of
    # them, escaping and unescaping match the loop byte for byte
    rng = random.Random(f"codec/{reserved}")
    plain = [b for b in range(256) if b not in RESERVED]
    for _ in range(300):
        alphabet = plain + list(reserved) * 40
        raw = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        for payload in (raw, bytearray(raw)):
            escaped = escape_payload(payload)
            assert type(escaped) is bytes and escaped == loop_escape(raw)
            for data in (escaped, bytearray(escaped)):
                decoded = unescape_payload(data)
                assert type(decoded) is bytes and decoded == raw
        assert (escaped == raw) == (not set(raw) & set(RESERVED))


def test_unescape_equals_the_byte_loop_on_any_input():
    # every 0-2 byte input, and longer ones over the bytes that escaping
    # writes or must not leave bare: the same bytes or the same first fault
    inputs = [b""] + [bytes([b]) for b in range(256)]
    inputs += [bytes([a, b]) for a in range(256) for b in range(256)]
    rng = random.Random(30)
    alphabet = [0x00, 0xFF, 0x7D, 0x20, 0xDF, 0x5D, 0x41]
    inputs += [bytes(rng.choice(alphabet) for _ in range(rng.randint(3, 12)))
               for _ in range(5000)]
    for data in inputs:
        assert unescaped_or_error(data) == loop_result(data), data.hex()


@pytest.mark.parametrize(
    "bad",
    [
        bytes([0x7D]),  # dangling escape
        bytes([0x41, 0x7D]),
        bytes([0x7D, 0x41]),  # pair decodes to a non-reserved byte
        bytes([0x00]),  # bare reserved byte
        bytes([0xFF]),
    ],
)
def test_unescape_rejects_malformed(bad):
    with pytest.raises(MalformedEscape):
        unescape_payload(bad)


# --- fixed-point temperature -------------------------------------------------


def test_temperature_fixed_point_bounds():
    assert temperature_to_raw(-40.0) == 0
    assert temperature_to_raw(85.0) == 32000
    assert temperature_to_raw(20.0) == 0x3C00
    with pytest.raises(RecordOutOfRange):
        temperature_to_raw(85.01)
    with pytest.raises(RecordOutOfRange):
        temperature_to_raw(-40.01)
    for bad in (math.nan, math.inf, -math.inf, 1e308):
        with pytest.raises(RecordOutOfRange):
            temperature_to_raw(bad)


def test_temperature_roundtrip_within_resolution():
    rng = random.Random(5)
    for _ in range(1000):
        t = rng.uniform(-40.0, 85.0)
        back = raw_to_temperature(temperature_to_raw(t))
        assert abs(back - t) <= 1.0 / 256.0


def test_record_node_id_validated():
    with pytest.raises(ValueError):
        SensorRecord(255, 20.0)
    with pytest.raises(ValueError):
        SensorRecord(-1, 20.0)
    with pytest.raises(TypeError):
        SensorRecord(True, 20.0)  # bool is no id, though isinstance(True, int)


# --- encode ------------------------------------------------------------------


def test_encode_worked_example():
    # 20.0 degC -> raw 15360 = 0x3C00; low byte 0x00 is escaped.
    frame = Frame((180,), (SensorRecord(1, 20.0),))
    assert encode_frame(frame) == bytes([255, 80, 180, 0x01, 0x3C, 0x7D, 0x20, 0x00])


def test_encode_three_key_chain_empty_payload():
    frame = Frame((180, 170, 154))
    assert encode_frame(frame) == bytes([255, 80, 180, 170, 154, 0])


def test_encode_minimal_frame():
    assert encode_frame(Frame((180,))) == bytes([255, 80, 180, 0])


def test_encode_rejects_out_of_range_temperature():
    frame = Frame((180,), (SensorRecord(1, 200.0),))
    with pytest.raises(RecordOutOfRange):
        encode_frame(frame)


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(())
    with pytest.raises(ValueError):
        Frame((0,))
    with pytest.raises(ValueError):
        Frame((255,))
    with pytest.raises(TypeError):
        Frame((True,))  # bool is no key, though isinstance(True, int)
    with pytest.raises(TypeError, match="records"):
        Frame((180,), ((1, 20.0),))  # a (node id, temperature) pair is no SensorRecord


def test_numpy_ids_and_keys_are_python_ints():
    record = SensorRecord(np.uint8(7), 20.0)
    frame = Frame((np.int64(180), 170), (record,))
    assert frame == Frame((180, 170), (SensorRecord(7, 20.0),))
    assert type(record.node_id) is int and type(frame.key_chain[0]) is int
    decoded = decode_frame(encode_frame(frame), np.array([180, 170]))
    assert decoded == frame and type(decoded.key_chain[0]) is int
    for bad in (lambda: SensorRecord(7.0, 20.0), lambda: Frame((np.float64(180),)),
                lambda: decode_frame(encode_frame(frame), (np.True_, 170))):
        with pytest.raises(TypeError):
            bad()


# --- decode ------------------------------------------------------------------


def test_decode_three_key_frame():
    frame = decode_frame(bytes([255, 80, 180, 170, 154, 0]), (180, 170, 154))
    assert frame.key_chain == (180, 170, 154)
    assert frame.records == ()


def test_decode_reports_tampered_key():
    with pytest.raises(AuthMismatch) as exc:
        decode_frame(bytes([255, 80, 181, 0]), (180,))
    assert exc.value.position == 0
    assert exc.value.got == 181
    assert exc.value.want == 180


def test_decode_roundtrip_1000_random_frames():
    rng = random.Random(31337)
    for _ in range(1000):
        frame = random_frame(rng)
        assert decode_frame(encode_frame(frame), frame.key_chain) == frame


@pytest.mark.parametrize(
    "data, err",
    [
        (b"", BadHeader),
        (bytes([255]), BadHeader),
        (bytes([255, 81, 180, 0]), BadHeader),
        (bytes([1, 80, 180, 0]), BadHeader),
        (bytes([255, 80]), TruncatedFrame),  # ends inside key chain
        (bytes([255, 80, 180]), TruncatedFrame),  # no end byte
        (bytes([255, 80, 180, 0x41, 0x42]), TruncatedFrame),
        (bytes([255, 80, 180, 0x41, 0x7D, 0x00]), MalformedEscape),
        (bytes([255, 80, 180, 0x41, 0x00]), BadPayloadLength),
        (bytes([255, 80, 180, 0x41, 0x42, 0x00]), BadPayloadLength),
        (bytes.fromhex("ff50b47ddf3c8000"), RecordOutOfRange),  # node id 0xFF
        (bytes.fromhex("ff50b4017ddf7ddf00"), RecordOutOfRange),  # raw > 32000
    ],
)
def test_decode_error_taxonomy(data, err):
    with pytest.raises(err):
        decode_frame(data, (180,))


def test_decode_names_the_offending_records_offset():
    # records 1 and 2 are in range; record 3 has raw 32001 (0x7D01, escaped)
    payload = bytes([1, 0x3C, 0x80, 2, 0x3C, 0x80, 3, 0x7D, 0x01])
    data = bytes([255, 80, 180]) + escape_payload(payload) + bytes([0])
    with pytest.raises(RecordOutOfRange) as exc:
        decode_frame(data, (180,))
    assert str(exc.value) == "record at payload byte 6: node id 3, raw 32001"


def test_decode_validates_expected_keys():
    with pytest.raises(ValueError):
        decode_frame(bytes([255, 80, 180, 0]), ())
    with pytest.raises(ValueError):
        decode_frame(bytes([255, 80, 0, 0]), (0,))


def test_tamper_any_single_key_byte_detected():
    rng = random.Random(4242)
    for _ in range(100):
        frame = random_frame(rng)
        encoded = bytearray(encode_frame(frame))
        for i in range(len(frame.key_chain)):
            pos = 2 + i
            original = encoded[pos]
            for bit in range(8):
                encoded[pos] = original ^ (1 << bit)
                with pytest.raises(AuthMismatch) as exc:
                    decode_frame(bytes(encoded), frame.key_chain)
                assert exc.value.position == i
            encoded[pos] = original


def test_no_bare_reserved_bytes_between_sync_and_end():
    rng = random.Random(11)
    for _ in range(300):
        encoded = encode_frame(random_frame(rng))
        body = encoded[2:-1]
        assert 0x00 not in body
        assert 0xFF not in body


# --- append_hop ---------------------------------------------------------------


def test_append_hop_accumulates():
    r1 = SensorRecord(1, 20.0)
    r2 = SensorRecord(2, 21.0)
    frame = Frame((180,), (r1,))
    out = append_hop(frame, 170, r2)
    assert out.key_chain == (180, 170)
    assert out.records == (r1, r2)
    # value semantics: the input frame is untouched
    assert frame.key_chain == (180,)
    assert frame.records == (r1,)


def test_append_hop_rejects_duplicate_key():
    with pytest.raises(DuplicateKey):
        append_hop(Frame((180,)), 180, SensorRecord(1, 20.0))


def test_decode_and_append_hop_return_checked_frames(post_inits):
    checked = post_inits(Frame)
    data = encode_frame(Frame((180,), (SensorRecord(0, 19.5),)))
    decoded = decode_frame(data, (180,))
    assert any(f is decoded for f in checked)
    extended = append_hop(decoded, 170, SensorRecord(1, 20.0))
    assert any(f is extended for f in checked)
    with pytest.raises(ValueError):
        append_hop(decoded, 0, SensorRecord(1, 20.0))  # 0x00 collides with framing


def test_append_hop_chain_length_induction():
    frame = Frame((1,), (SensorRecord(0, 20.0),))
    for k in range(2, 12):
        frame = append_hop(frame, k, SensorRecord(k, 20.0))
        assert len(frame.key_chain) == k
        assert len(frame.records) == k


# --- default keys -------------------------------------------------------------


def test_default_key_table():
    # valid, distinct keys for a five-node line
    assert Frame(DEFAULT_KEY_TABLE).key_chain == DEFAULT_KEY_TABLE
    assert len(set(DEFAULT_KEY_TABLE)) == 5
    assert DEFAULT_KEY_TABLE[:3] == (180, 170, 154)


# --- length models -------------------------------------------------------------


# Readings with bytes the encoder escapes (0x00, 0x7D or 0xFF, in either
# byte), among them both ends of the range: 0x0000 and 0x7D00 = 32000.
SPECIAL_RAWS = (0x0000, 0x007D, 0x00FF, 0x3C00, 0x7C7D, 0x7CFF, 0x7D00)


def test_hop_frame_lengths_match_encoder():
    rng = random.Random(88)

    def encoded_lengths(ids, raws):
        """The length encode_frame gives the frame on each hop of the line."""
        keys = tuple(range(1, len(ids) + 1))  # keys are never escaped
        records = [SensorRecord(i, raw_to_temperature(r)) for i, r in zip(ids, raws)]
        return [
            len(encode_frame(Frame(keys[: j + 1], records[: j + 1])))
            for j in range(len(ids))
        ]

    def draw_raw():
        return rng.choice(SPECIAL_RAWS) if rng.random() < 0.3 else rng.randint(0, 32000)

    reference = temperature_to_raw(REFERENCE_TEMP_C)
    assert reference == 0x3C80  # neither byte is escaped
    for _ in range(100):
        n = rng.randint(1, 30)
        ids = rng.sample(range(255), n)
        for escaped_id in (0x00, 0x7D):
            if escaped_id not in ids and rng.random() < 0.5:
                ids[rng.randrange(n)] = escaped_id
        # the default reading gives the nominal lengths
        assert hop_frame_lengths(ids).tolist() == encoded_lengths(ids, [reference] * n)
        raw = [draw_raw() for _ in range(n)]
        assert hop_frame_lengths(ids, np.array(raw)).tolist() == encoded_lengths(ids, raw)
        # a block of rounds: one row of readings, and of lengths, per round
        block = np.array([[draw_raw() for _ in range(n)] for _ in range(4)])
        lengths = hop_frame_lengths(np.array(ids), block)
        assert lengths.tolist() == [encoded_lengths(ids, row) for row in block.tolist()]


def test_worst_case_length_reached_by_all_escaping_payload():
    # node id 0 and temperature -40.0 (raw 0x0000) escape all three bytes
    for k in range(1, 6):
        keys = tuple(range(1, k + 1))
        records = tuple(SensorRecord(0, -40.0) for _ in range(k))
        assert len(encode_frame(Frame(keys, records))) == worst_case_frame_length(k)
