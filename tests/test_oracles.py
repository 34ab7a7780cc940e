"""The one-pass codec and framing against the straightforward versions they replaced.

`_reference_*` below are the former bodies of `encode`, `detect`, `frame`
and `reassemble`, kept here step for step as oracles: per UUID they
lower-case, shape-check, strip hyphens and test the version, variant and
marker digits one at a time, and per chunk they build a `FrameHeader` and
call `encode`. The package's versions must return equal results, or raise
the same exception class with the same message, on every input.
"""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdpcast import (
    DEFAULT_LIMITS,
    MAX_CHUNKS,
    PAYLOAD_OCTETS,
    CapacityLimits,
    CodecConfig,
    ConflictingDuplicate,
    FrameHeader,
    IncompleteSet,
    InconsistentTotals,
    MalformedUuid,
    MessageTooLong,
    PayloadTooLong,
    PayloadTooShort,
    detect,
    encode,
    frame,
)
from sdpcast.framing import CHUNK_BODY_OCTETS, LENGTH_PREFIX_OCTETS, chunk_count, reassemble

_UUID_SHAPE = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}")
DEFAULT = CodecConfig()


def _reference_hex32(uuid_str):
    s = uuid_str.lower() if isinstance(uuid_str, str) else ""
    if not _UUID_SHAPE.fullmatch(s):
        raise MalformedUuid(f"not a valid UUID string: {uuid_str!r}")
    return s.replace("-", "")


def _reference_encode(payload, config=DEFAULT):
    payload = bytes(payload)
    if len(payload) > PAYLOAD_OCTETS:
        raise PayloadTooLong(f"payload is {len(payload)} octets, capacity is {PAYLOAD_OCTETS}")
    if len(payload) < PAYLOAD_OCTETS:
        if not config.text_mode:
            raise PayloadTooShort(
                f"raw mode needs exactly {PAYLOAD_OCTETS} octets, got {len(payload)}"
            )
        payload = payload.ljust(PAYLOAD_OCTETS, b"\x00")
    d = payload.hex()
    return f"{d[0:8]}-{d[8:12]}-4{d[12:15]}-8{d[15:18]}-{d[18:26]}{config.marker}"


def _reference_detect(uuid_str, config=DEFAULT):
    digits = _reference_hex32(uuid_str)
    if digits[12] != "4":
        return None
    if digits[16] != "8":
        return None
    if digits[28:32] != config.marker:
        return None
    data = digits[0:12] + digits[13:16] + digits[17:20] + digits[20:28]
    return bytes.fromhex(data)


def _reference_frame(message, limits=DEFAULT_LIMITS, codec=DEFAULT):
    message = bytes(message)
    if len(message) > limits.framed_capacity:
        raise MessageTooLong(
            f"message is {len(message)} octets, framed capacity is {limits.framed_capacity}"
        )
    body = len(message).to_bytes(LENGTH_PREFIX_OCTETS, "big") + message
    total = chunk_count(len(message))
    uuids = []
    for index in range(total):
        chunk = body[index * CHUNK_BODY_OCTETS:(index + 1) * CHUNK_BODY_OCTETS]
        chunk = chunk.ljust(CHUNK_BODY_OCTETS, b"\x00")
        header = FrameHeader(index, total).pack()
        uuids.append(_reference_encode(bytes([header]) + chunk, codec))
    return uuids


def _reference_reassemble(payloads):
    chunks = {}
    conflicts = set()
    totals = set()
    for payload in payloads:
        header = FrameHeader.unpack(payload[0])
        if not header.valid:
            continue
        body = payload[1:]
        if header.index in chunks and chunks[header.index] != body:
            conflicts.add(header.index)
        chunks[header.index] = body
        totals.add(header.total)
    if conflicts:
        raise ConflictingDuplicate(f"conflicting bodies for chunk indices {sorted(conflicts)}")
    if len(totals) > 1:
        raise InconsistentTotals(f"mixed chunk totals {sorted(totals)}")
    if not chunks:
        raise IncompleteSet("no frame chunks found")
    total = totals.pop()
    missing = sorted(set(range(total)) - chunks.keys())
    if missing:
        raise IncompleteSet(f"missing chunk indices {missing} of {total}")
    body = b"".join(chunks[i] for i in range(total))
    declared = int.from_bytes(body[:LENGTH_PREFIX_OCTETS], "big")
    if chunk_count(declared) != total:
        raise InconsistentTotals(f"declared length {declared} inconsistent with {total} chunks")
    return body[LENGTH_PREFIX_OCTETS:LENGTH_PREFIX_OCTETS + declared]


def _outcome(fn, *args):
    """What `fn(*args)` does: its result, or the class and message of what it raised."""
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the class and message are what is compared
        return "raised", type(exc), str(exc)


def _same(new, reference, *args):
    assert _outcome(new, *args) == _outcome(reference, *args)


class _Str(str):
    pass


KELVIN = "\u212a"  # the Kelvin sign; lower-cases to an ASCII "k"
FULL_WIDTH = "".join(chr(0xFF10 + k) for k in range(10)) + "ＡＢＣａｂｃ"
NASTY = "0123456789abcdefABCDEFgG48-_ " + KELVIN + FULL_WIDTH + "İſ\n"

markers = st.text(alphabet="0123456789abcdefABCDEF", min_size=4, max_size=4)
configs = st.one_of(st.just(DEFAULT), markers.map(lambda m: CodecConfig(marker=m)))
payloads13 = st.binary(min_size=PAYLOAD_OCTETS, max_size=PAYLOAD_OCTETS)


@st.composite
def near_uuids(draw, marker):
    """A payload UUID under `marker` or another, then recased and with a few characters replaced."""
    marker = draw(st.one_of(st.just(marker), markers))
    chars = list(encode(draw(payloads13), CodecConfig(marker=marker)))
    if draw(st.booleans()):
        chars = [c.upper() if draw(st.booleans()) else c for c in chars]
    for _ in range(draw(st.integers(0, 3))):
        chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(NASTY))
    if draw(st.booleans()):  # the version or variant digit
        chars[draw(st.sampled_from((14, 19)))] = draw(st.sampled_from("0123456789abcdefA"))
    return "".join(chars)


def _texts(config):
    """Text for `detect` under `config`, paired with it."""
    near = near_uuids(config.marker)
    text = st.one_of(
        near,
        near.map(_Str),
        st.text(),
        st.text(alphabet=NASTY, min_size=36, max_size=36),
        st.text(alphabet=NASTY),
    )
    return st.tuples(text, st.just(config))


def _non_strings(config):
    value = st.one_of(
        st.none(),
        st.integers(),
        st.binary(),
        near_uuids(config.marker).map(str.encode),
        st.lists(st.integers(0, 9), max_size=3),
    )
    return st.tuples(value, st.just(config))


ANCHOR = "ff724081-fe5d-4fb2-8745-af149cc2c0de"


@settings(max_examples=400)
@given(configs.flatmap(_texts))
@example((ANCHOR.upper(), DEFAULT))
@example((_Str(ANCHOR), DEFAULT))
@example((ANCHOR[:-1] + "E", DEFAULT))
@example((ANCHOR[:32] + KELVIN + "0de", DEFAULT))
@example((ANCHOR[:32] + "００de", DEFAULT))
@example((ANCHOR[:14] + "5" + ANCHOR[15:], DEFAULT))
@example((ANCHOR[:19] + "9" + ANCHOR[20:], DEFAULT))
@example((ANCHOR[:2] + "g" + ANCHOR[3:], DEFAULT))
@example((ANCHOR[:30] + "G" + ANCHOR[31:], DEFAULT))
@example((ANCHOR, CodecConfig(marker="BEEF")))
@example((ANCHOR[:-4] + "BEEF", CodecConfig(marker="beef")))
@example((ANCHOR + "\n", DEFAULT))
def test_detect_matches_reference_on_text(case):
    _same(detect, _reference_detect, *case)


@given(configs.flatmap(_non_strings))
def test_detect_matches_reference_on_non_strings(case):
    _same(detect, _reference_detect, *case)


@given(st.binary(max_size=PAYLOAD_OCTETS + 2), configs, st.booleans())
def test_encode_matches_reference(payload, config, text_mode):
    config = CodecConfig(marker=config.marker, text_mode=text_mode)
    _same(encode, _reference_encode, payload, config)


LIMITS = [DEFAULT_LIMITS] + [CapacityLimits(max_outbound_slots=k) for k in (1, 2, 5, MAX_CHUNKS)]


@pytest.mark.parametrize("limits", LIMITS, ids=lambda lim: f"slots{lim.max_outbound_slots}")
@pytest.mark.parametrize("codec", [DEFAULT, CodecConfig(marker="BEEF")], ids=["c0de", "beef"])
def test_frame_matches_reference_at_every_length(limits, codec):
    rng = random.Random(limits.max_outbound_slots)
    for length in range(max(83, limits.framed_capacity + 2)):
        message = rng.randbytes(length)
        _same(frame, _reference_frame, message, limits, codec)
        _same(frame, _reference_frame, bytes(length), limits, codec)


@given(st.binary(max_size=200), st.integers(1, MAX_CHUNKS), configs)
def test_frame_matches_reference_property(message, slots, codec):
    _same(frame, _reference_frame, message, CapacityLimits(max_outbound_slots=slots), codec)


def _chunk_payloads(message):
    return [_reference_detect(u) for u in _reference_frame(message)]


@st.composite
def payload_multisets(draw):
    """Chunks of two generations, some dropped or repeated, plus conflicting and invalid ones."""
    old = draw(st.binary(max_size=82))
    new = draw(st.one_of(st.binary(max_size=82), st.just(old[::-1]), st.just(old)))
    pool = _chunk_payloads(old) + _chunk_payloads(new)
    picked = draw(st.lists(st.sampled_from(pool), max_size=2 * len(pool)))
    for _ in range(draw(st.integers(0, 2))):  # a conflicting body under a real header
        header = draw(st.sampled_from(pool))[0]
        picked.append(bytes([header]) + draw(st.binary(min_size=12, max_size=12)))
    for _ in range(draw(st.integers(0, 2))):  # index >= total, or total 0
        total = draw(st.integers(0, 15))
        index = draw(st.integers(total, 15))
        picked.append(bytes([index << 4 | total]) + draw(st.binary(min_size=12, max_size=12)))
    picked += draw(st.lists(st.binary(min_size=1, max_size=14), max_size=2))
    return draw(st.permutations(picked))


@settings(max_examples=500)
@given(payload_multisets())
def test_reassemble_matches_reference(payloads):
    _same(reassemble, _reference_reassemble, payloads)


def test_reassemble_matches_reference_on_every_frame_length():
    for length in range(83):
        payloads = _chunk_payloads(bytes(range(length)))
        assert reassemble(payloads) == bytes(range(length))
        for drop in range(len(payloads)):
            _same(reassemble, _reference_reassemble, payloads[:drop] + payloads[drop + 1:])
