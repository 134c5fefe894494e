"""Frame codec: escaping, encode/decode, authentication, key accumulation."""

import math
import random

import pytest

from uwocnet.frame import (
    DEFAULT_KEY_TABLE,
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
    nominal_frame_length,
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
    ],
)
def test_decode_error_taxonomy(data, err):
    with pytest.raises(err):
        decode_frame(data, (180,))


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


def test_nominal_length_matches_codec_at_reference_temperature():
    rng = random.Random(88)
    for _ in range(200):
        n = rng.randint(1, 5)
        ids = rng.sample(range(0, 255), n)
        keys = tuple(rng.sample(range(1, 255), n))
        records = tuple(SensorRecord(i, 20.5) for i in ids)
        assert len(encode_frame(Frame(keys, records))) == nominal_frame_length(ids)


def test_worst_case_length_reached_by_all_escaping_payload():
    # node id 0 and temperature -40.0 (raw 0x0000) escape all three bytes
    for k in range(1, 6):
        keys = tuple(range(1, k + 1))
        records = tuple(SensorRecord(0, -40.0) for _ in range(k))
        assert len(encode_frame(Frame(keys, records))) == worst_case_frame_length(k)
