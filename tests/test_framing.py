"""Framing unit and property tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpcast import (
    CHUNK_BODY_OCTETS,
    DEFAULT_LIMITS,
    MAX_CHUNKS,
    PAYLOAD_OCTETS,
    CapacityLimits,
    ConflictingDuplicate,
    FrameHeader,
    IncompleteSet,
    InconsistentTotals,
    MessageTooLong,
    PayloadTooLong,
    frame,
    raw_read,
    unframe,
)
from sdpcast.codec import detect, encode
from sdpcast.framing import raw_payloads, reassemble

WELLKNOWN_SPP = "00001101-0000-1000-8000-00805f9b34fb"


def test_capacity_constants():
    assert PAYLOAD_OCTETS == 13
    assert DEFAULT_LIMITS.outbound_ceiling == 91
    assert DEFAULT_LIMITS.inbound_ceiling == 273
    assert DEFAULT_LIMITS.framed_capacity == 82
    assert CHUNK_BODY_OCTETS == 12
    assert MAX_CHUNKS == 15


def test_capacity_limits_validation():
    with pytest.raises(ValueError):
        CapacityLimits(max_outbound_slots=0)
    with pytest.raises(ValueError):
        CapacityLimits(max_outbound_slots=16)
    with pytest.raises(ValueError):
        CapacityLimits(max_inbound_records=0)
    with pytest.raises(TypeError):  # 13 octets per UUID is fixed by the UUID layout
        CapacityLimits(payload_per_uuid=14)


def test_header_pack_unpack():
    for total in range(1, 16):
        for index in range(total):
            header = FrameHeader(index, total)
            assert FrameHeader.unpack(header.pack()) == header
            assert header.valid


def test_header_rejects_invalid():
    with pytest.raises(ValueError):
        FrameHeader(3, 3).pack()
    with pytest.raises(ValueError):
        FrameHeader(0, 0).pack()
    assert not FrameHeader(3, 3).valid
    assert not FrameHeader(0, 0).valid


def test_empty_message_frames_to_single_zero_chunk():
    chunks = frame(b"")
    assert len(chunks) == 1
    payload = detect(chunks[0])
    assert payload == bytes([FrameHeader(0, 1).pack()]) + b"\x00" * 12
    assert unframe([chunks[0]]) == b""


def test_chunk_count_boundaries():
    assert len(frame(b"x" * 10)) == 1  # 12-octet body fits one chunk
    assert len(frame(b"x" * 11)) == 2
    assert len(frame(b"x" * 82)) == 7
    with pytest.raises(MessageTooLong):
        frame(b"x" * 83)


def test_frame_chunk_headers_and_payload_layout():
    message = bytes(range(30))
    chunks = frame(message)
    body = b""
    for i, chunk in enumerate(chunks):
        payload = detect(chunk)
        header = FrameHeader.unpack(payload[0])
        assert header == FrameHeader(i, len(chunks))
        body += payload[1:]
    declared = int.from_bytes(body[:2], "big")
    assert declared == len(message)
    assert body[2:2 + declared] == message


def test_unframe_filters_wellknown_records():
    message = b"mixed with wellknown records"
    records = frame(message) + [WELLKNOWN_SPP]
    assert unframe(records) == message


def test_unframe_missing_chunk_raises_incomplete():
    chunks = frame(b"q" * 40)
    assert len(chunks) == 4
    with pytest.raises(IncompleteSet):
        unframe(chunks[:-1])
    with pytest.raises(IncompleteSet):
        unframe(chunks[1:])


def test_unframe_empty_input_raises_incomplete():
    with pytest.raises(IncompleteSet):
        unframe([])
    with pytest.raises(IncompleteSet):
        unframe([WELLKNOWN_SPP])


def test_reassemble_skips_empty_payloads():
    # an empty payload has no header octet, so it is skipped like an invalid one
    with pytest.raises(IncompleteSet, match="^no frame chunks found$"):
        reassemble([b""])
    payloads = raw_read(frame(b"q" * 40))
    assert reassemble([b"", *payloads, b""]) == b"q" * 40
    with pytest.raises(IncompleteSet, match=r"^missing chunk indices \[3\] of 4$"):
        reassemble([b""] + payloads[:-1])


def test_unframe_mixed_totals_raises():
    a = frame(b"a" * 40)  # 4 chunks
    b = frame(b"b" * 50)  # 5 chunks
    with pytest.raises(InconsistentTotals):
        unframe(a[:2] + b[2:])


def test_unframe_conflicting_duplicate_raises():
    chunks = frame(b"c" * 40)
    body = bytes([FrameHeader(1, 4).pack()]) + b"Z" * 12
    tampered = chunks + [encode(body)]
    with pytest.raises(ConflictingDuplicate):
        unframe(tampered)


def test_unframe_identical_duplicate_accepted():
    chunks = frame(b"d" * 40)
    assert unframe(chunks + [chunks[2]]) == b"d" * 40


def test_unframe_declared_length_must_match_chunk_count():
    # single chunk claiming a 20-octet message needs two chunks: inconsistent
    body = (20).to_bytes(2, "big") + b"e" * 10
    chunk = bytes([FrameHeader(0, 1).pack()]) + body
    with pytest.raises(InconsistentTotals):
        unframe([encode(chunk)])


def test_unframe_error_type_is_permutation_independent():
    chunks = frame(b"f" * 40)
    conflicting = encode(bytes([FrameHeader(1, 4).pack()]) + b"Z" * 12)
    records = chunks[:2] + [conflicting]  # both a gap and a conflict present
    rng = random.Random(7)
    seen = set()
    for _ in range(20):
        rng.shuffle(records)
        with pytest.raises((ConflictingDuplicate,)) as err:
            unframe(records)
        seen.add(type(err.value))
    assert seen == {ConflictingDuplicate}


def test_same_total_mixed_generations_reassemble_silently():
    # Two 3-chunk generations of equal length: a prefix/suffix mix forms a
    # complete consistent set, so it reassembles without error even though
    # the bytes belong to neither generation.  Known protocol limitation.
    old = b"o" * 30
    new = b"n" * 30
    old_chunks = frame(old)
    new_chunks = frame(new)
    assert len(old_chunks) == len(new_chunks) == 3
    mixed = old_chunks[:2] + new_chunks[2:]
    result = unframe(mixed)
    assert result not in (old, new)
    assert result == b"o" * 22 + b"n" * 8


def _raw_slots(message):
    return [encode(payload) for payload in raw_payloads(message)]


def test_raw_slot_round_trip():
    message = b"thirteen-byte"
    assert len(message) == 13
    assert raw_read(_raw_slots(message)) == [message]


def test_raw_slot_pads_short_message():
    assert raw_read(_raw_slots(b"ab")) == [b"ab" + b"\x00" * 11]


def test_raw_slot_rejects_long_message():
    # A slot holds 13 octets: raw_payloads splits a longer message, encode refuses it.
    assert raw_payloads(b"x" * 14) == [b"x" * 13, b"x" + b"\x00" * 12]
    with pytest.raises(PayloadTooLong):
        encode(b"x" * 14)


def test_raw_read_multiple_and_empty():
    (a,), (b,) = _raw_slots(b"a" * 13), _raw_slots(b"b" * 13)
    assert raw_read([a, b]) == [b"a" * 13, b"b" * 13]
    assert raw_read([b, a]) == [b"b" * 13, b"a" * 13]
    assert raw_read([WELLKNOWN_SPP]) == []
    assert raw_read([]) == []


def test_raw_read_skips_malformed_strings():
    assert raw_read(["garbage", *_raw_slots(b"ok")]) == [b"ok" + b"\x00" * 11]


@given(st.binary(max_size=82), st.randoms(use_true_random=False))
def test_permutation_round_trip_property(message, rng):
    records = frame(message)
    rng.shuffle(records)
    assert unframe(records) == message
    assert len(records) == max(1, math.ceil((len(message) + 2) / 12))
    assert len(records) <= 7


@settings(max_examples=200)
@given(st.binary(min_size=11, max_size=82), st.data())
def test_dropping_any_proper_subset_raises_incomplete(message, data):
    records = frame(message)
    n = len(records)
    assert n >= 2
    keep = data.draw(
        st.lists(st.sampled_from(range(n)), min_size=1, max_size=n - 1, unique=True)
    )
    subset = [records[i] for i in sorted(keep)]
    with pytest.raises(IncompleteSet):
        unframe(subset)
