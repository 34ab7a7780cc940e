"""Codec unit and property tests."""

import re
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpcast import (
    DEFAULT_MARKER,
    PAYLOAD_OCTETS,
    CodecConfig,
    InvalidMarker,
    MalformedUuid,
    NotAPayloadUuid,
    PayloadTooLong,
    PayloadTooShort,
    decode,
    detect,
    encode,
    is_well_formed_v4,
    printable_text,
)

TEXT = CodecConfig(text_mode=True)

CANONICAL = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-4[0-9a-f]{3}-8[0-9a-f]{3}-[0-9a-f]{12}")

KNOWN_ANCHOR = "ff724081-fe5d-4fb2-8745-af149cc2c0de"
KNOWN_PAYLOAD = bytes.fromhex("ff724081fe5dfb2745af149cc2")
WELLKNOWN_SPP = "00001101-0000-1000-8000-00805f9b34fb"


def test_zero_payload_encodes_to_fixed_string():
    assert encode(b"\x00" * 13) == "00000000-0000-4000-8000-00000000c0de"


def test_known_text_payload():
    assert encode(b"Hello, world!") == "48656c6c-6f2c-4207-876f-726c6421c0de"


def test_known_anchor_uuid_round_trips_exactly():
    payload = detect(KNOWN_ANCHOR)
    assert payload == KNOWN_PAYLOAD
    assert encode(payload) == KNOWN_ANCHOR


def test_encode_rejects_long_payload():
    with pytest.raises(PayloadTooLong):
        encode(b"x" * 14)
    with pytest.raises(PayloadTooLong):
        encode(b"fourteen chars", TEXT)


def test_encode_rejects_short_payload_in_raw_mode():
    with pytest.raises(PayloadTooShort):
        encode(b"short")


def test_text_mode_pads_short_payload():
    u = encode(b"abcde", TEXT)
    assert decode(u, TEXT) == b"abcde"
    assert decode(u) == b"abcde" + b"\x00" * 8


def test_text_mode_strips_all_zero_payload_to_empty():
    u = encode(b"", TEXT)
    assert decode(u, TEXT) == b""
    assert decode(u) == b"\x00" * 13


def test_detect_rejects_wellknown_record():
    assert detect(WELLKNOWN_SPP) is None


def test_detect_rejects_marker_mismatch():
    assert detect("aaaaaaaa-bbbb-4ccc-8ddd-eeeeeeeec0df") is None


def test_detect_rejects_wrong_version_or_variant():
    assert detect("aaaaaaaa-bbbb-5ccc-8ddd-eeeeeeeec0de") is None
    assert detect("aaaaaaaa-bbbb-4ccc-9ddd-eeeeeeeec0de") is None


def test_detect_raises_on_malformed_input():
    # Records read back from a log may be any JSON value; only strings are UUIDs.
    malformed = ("", "not a uuid", "aaaaaaaa-bbbb-4ccc-8ddd-eeeeeeeec0d", "g" * 36)
    for bad in malformed + (5, None, KNOWN_ANCHOR.encode()):
        with pytest.raises(MalformedUuid):
            detect(bad)


def test_detect_is_case_insensitive():
    assert detect(KNOWN_ANCHOR.upper()) == KNOWN_PAYLOAD


def test_decode_raises_on_non_payload_uuid():
    with pytest.raises(NotAPayloadUuid):
        decode(WELLKNOWN_SPP)


def test_custom_marker():
    config = CodecConfig(marker="beef")
    u = encode(KNOWN_PAYLOAD, config)
    assert u.endswith("beef")
    assert detect(u, config) == KNOWN_PAYLOAD
    assert detect(u) is None  # default marker no longer matches


def test_marker_is_case_normalized():
    assert CodecConfig(marker="BEEF").marker == "beef"


def test_invalid_marker_rejected():
    for bad in ("", "xyz", "c0d", "c0dec", "zzzz"):
        with pytest.raises(InvalidMarker):
            CodecConfig(marker=bad)


def test_non_string_marker_rejected():
    for bad in (123, None, b"c0de", 0xC0DE, ["c0de"]):
        with pytest.raises(InvalidMarker, match="marker must be 4 hex digits"):
            CodecConfig(marker=bad)


def test_is_well_formed_v4():
    assert is_well_formed_v4("00000000-0000-4000-8000-00000000c0de")
    assert not is_well_formed_v4("00000000-0000-1000-8000-00000000c0de")
    assert not is_well_formed_v4("")
    # full RFC variant range accepted, unlike detect()
    for variant in "89ab":
        assert is_well_formed_v4(f"00000000-0000-4000-{variant}000-00000000c0de")
    for variant in "01234567cdef":
        assert not is_well_formed_v4(f"00000000-0000-4000-{variant}000-00000000c0de")


def test_leading_zeros_preserved():
    payload = b"\x00\x00\x01" + b"\x00" * 10
    assert detect(encode(payload)) == payload


def test_printable_text():
    assert printable_text(b"hello") == "hello"
    assert printable_text(b"\xff\x00") is None


@given(st.binary(min_size=PAYLOAD_OCTETS, max_size=PAYLOAD_OCTETS))
def test_round_trip_property(payload):
    u = encode(payload)
    assert detect(u) == payload
    assert decode(u) == payload


@given(st.binary(min_size=PAYLOAD_OCTETS, max_size=PAYLOAD_OCTETS))
def test_encode_output_shape_property(payload):
    s = encode(payload)
    assert isinstance(s, str)
    assert CANONICAL.fullmatch(s)
    assert str(uuid.UUID(s)) == s
    assert s.endswith(DEFAULT_MARKER)
    assert is_well_formed_v4(s)


@given(
    st.binary(min_size=PAYLOAD_OCTETS, max_size=PAYLOAD_OCTETS),
    st.text(alphabet="0123456789abcdef", min_size=4, max_size=4),
)
def test_round_trip_with_any_marker(payload, marker):
    config = CodecConfig(marker=marker)
    assert detect(encode(payload, config), config) == payload


@given(st.binary(min_size=PAYLOAD_OCTETS, max_size=PAYLOAD_OCTETS))
def test_case_insensitivity_property(payload):
    s = encode(payload)
    assert detect(s.upper()) == detect(s)


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=13))
def test_text_mode_round_trip_property(text):
    raw = text.encode("ascii")
    u = encode(raw, TEXT)
    assert decode(u, TEXT) == raw
