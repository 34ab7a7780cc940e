"""The one-pass codec, framing, scenario writer and log reader against the
straightforward versions they replaced.

`_reference_*` below are the former bodies of `encode`, `detect`, `frame`,
`reassemble`, `scenario_to_json` and `SimEvent.from_array`, kept here step
for step as oracles: per UUID they lower-case, shape-check, strip hyphens
and test the version, variant and marker digits one at a time; per chunk
they build a `FrameHeader` and call `encode`; a scenario is first turned
into a tree of dicts, which `json.dumps` then writes; and a log line goes
through the former check table, frozen here with its predicates, one item
and one detail key at a time, with no fast path before it.
The package's versions must return equal results, or raise the same
exception class with the same message, on every input.

`_reference_report` is the report as the README defines it, with no memo
and no per-pair record: each fetch is unframed or raw-read again.
`build_report` must give its figures on every golden log and on drawn runs.
"""

import dataclasses
import json
import math
import random
import re
from dataclasses import fields
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdpcast
from sdpcast import (
    BUILTIN_SCENARIOS,
    DEFAULT_LIMITS,
    FRAMED,
    MAX_CHUNKS,
    PAYLOAD_OCTETS,
    RAW,
    CapacityLimits,
    CodecConfig,
    ConflictingDuplicate,
    Device,
    DeviceBandwidth,
    FetchBandwidth,
    FrameHeader,
    IncompleteSet,
    InconsistentTotals,
    MalformedUuid,
    MessageTooLong,
    Mutation,
    PairLatency,
    PayloadTooLong,
    PayloadTooShort,
    ReassemblyError,
    Scenario,
    SimEvent,
    TimingModel,
    build_report,
    detect,
    encode,
    frame,
    raw_read,
    run,
    scenario_from_json,
    scenario_gen,
    scenario_to_json,
    unframe,
)
from sdpcast.framing import (
    CHUNK_BODY_OCTETS, LENGTH_PREFIX_OCTETS, chunk_count, raw_payloads, reassemble,
)
from sdpcast.log import (
    _ENCODER, FETCH_ABORTED, MESSAGE_CHANGED, MESSAGE_REASSEMBLED, RUN_STARTED, UUIDS_FETCHED,
)
from sdpcast.model import MAX_SEED, MODES
from sdpcast.scenarios import _NESTED, _write
from test_golden import CASES as GOLDEN_CASES
from test_golden import _scenario as _golden_scenario
from test_report import _edited, _log_edits
from test_sim import _bench_workloads, _grid_scenarios

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
@example((ANCHOR, DEFAULT))
@example((ANCHOR[:-4] + "BEEF", DEFAULT))
@example(("0000110a-0000-1000-8000-00805f9b34fb", DEFAULT))
@example(("not a uuid", DEFAULT))
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


# -- scenario files -------------------------------------------------------------


def _reference_dump(obj):
    out = {f.name: getattr(obj, f.name) for f in fields(obj)}
    for name, kind in _NESTED.items():
        if name not in out:
            continue
        value = out[name]
        if kind is bytes:
            out[name] = None if value is None else value.hex()
        elif isinstance(kind, list):
            out[name] = [_reference_dump(item) for item in value]
        else:
            out[name] = _reference_dump(value)
    return out


def _reference_to_json(sc):
    return json.dumps(_reference_dump(sc), indent=2, sort_keys=True) + "\n"


def _same_file(sc):
    text = scenario_to_json(sc)
    assert text == _reference_to_json(sc)
    assert scenario_to_json(scenario_from_json(text)) == text


class _Seed(IntEnum):
    LOWEST = 0
    HIGHEST = MAX_SEED


class _Slots(IntEnum):
    FEWEST = 1
    MOST = MAX_CHUNKS


class _Records(IntEnum):
    FEWEST = 1
    PAST_64_BITS = 2**64


@pytest.mark.parametrize("value", [
    math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1,
    2**70, -1, _Seed.HIGHEST, _Records.PAST_64_BITS, True, False, None,
    "", "é\x00\u2028\U0001f600\ud800\"\\", _Str("x"),
    (), [], [1, [2.5, ()], "x"], (None,),
    object(), {1}, 1j,  # json cannot write these either
])
def test_write_formats_leaves_as_json_does(value):
    def write(value):
        out = []
        _write(value, out, "\n")
        return "".join(out)

    _same(write, lambda v: json.dumps(v, indent=2), value)


# every code point, control characters and lone surrogates included
texts = st.text(st.characters(exclude_categories=()), max_size=12)
magnitudes = st.floats(1e-300, 1e300)
coordinates = st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))


@st.composite
def timings(draw):
    fresh, cached = sorted(draw(st.lists(magnitudes, min_size=2, max_size=2, unique=True)))[::-1]
    return TimingModel(
        inquiry_duration_s=draw(magnitudes),
        fetch_latency_fresh_s=fresh,
        fetch_latency_cached_s=cached,
    )


@st.composite
def scenarios(draw):
    """A valid scenario: every field drawn, near its limits as often as not."""
    limits = CapacityLimits(
        max_outbound_slots=draw(st.one_of(st.integers(1, MAX_CHUNKS), st.sampled_from(_Slots))),
        max_inbound_records=draw(st.one_of(st.integers(1, 2**64), st.sampled_from(_Records))),
    )
    duration = draw(magnitudes)
    capacity = {FRAMED: limits.framed_capacity, RAW: limits.outbound_ceiling}
    addresses = draw(st.lists(st.integers(0, 2**48 - 1), max_size=4, unique=True))
    addresses = [":".join(f"{k:012x}"[i:i + 2] for i in range(0, 12, 2)) for k in addresses]
    devices = []
    for address in addresses:
        mode = draw(st.sampled_from((RAW, FRAMED)))
        # at most 1 000 rounds of scans each, within the scan budget
        interval = draw(st.one_of(st.none(), st.floats(1e-3, 1e300).map(lambda f: duration * f)))
        devices.append(Device(
            address=address.upper() if draw(st.booleans()) else address,
            position=draw(coordinates),
            range_m=draw(st.floats(1.0, 100.0)),
            scan_interval_s=None if interval is None else min(max(interval, 1e-300), 1e300),
            discoverable=draw(st.booleans()),
            message=draw(st.one_of(st.none(), st.binary(max_size=capacity[mode]))),
            mode=mode,
            wellknown_records=tuple(draw(st.lists(texts, max_size=3))),
        ))
    schedule = []
    for _ in range(draw(st.integers(0, 4) if addresses else st.just(0))):
        t, device = draw(st.floats(0.0, duration)), draw(st.sampled_from(addresses))
        action = draw(st.sampled_from(("set_message", "set_position", "set_discoverable")))
        if action == "set_message":  # fits in either mode
            value = {
                "message": draw(st.binary(max_size=limits.framed_capacity)),
                "mode": draw(st.sampled_from((None, RAW, FRAMED))),
            }
        elif action == "set_position":
            value = {"position": draw(coordinates)}
        else:
            value = {"discoverable": draw(st.booleans())}
        schedule.append(Mutation(t=t, device=device, action=action, **value))
    return Scenario(
        devices=devices,
        duration_s=duration,
        timing=draw(timings()),
        limits=limits,
        seed=draw(st.one_of(st.integers(0, MAX_SEED), st.sampled_from(_Seed))),
        schedule=schedule,
        torn_read_mode=draw(st.booleans()),
        name=draw(texts),
    )


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_scenario_to_json_matches_reference(sc):
    _same_file(sc)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_scenario_to_json_matches_reference_on_builtins(name):
    _same_file(scenario_gen(name))


@pytest.mark.parametrize("workload", ["sparse-1000", "churn-400"])
def test_scenario_to_json_matches_reference_on_bench_layouts(workload):
    builder = _bench_workloads().WORKLOADS[workload][0]
    for layout in range(4):
        _same_file(builder(sdpcast, random.Random(layout)))


# -- log lines ------------------------------------------------------------------


# The check table that `SimEvent.from_array` read every line by before the
# log format became one spec per kind, frozen here with its predicates: one
# check per key, which passes exactly the JSON values the runner writes there.
_KINDS = ("RunStarted", "FetchAborted", "UuidsFetched", "MessageReassembled", "MessageChanged")
_REFERENCE_HEX = re.compile(r"[0-9a-f]*")
_LIMIT_FIELDS = {field.name for field in fields(CapacityLimits)}


def _is_json_number(value):
    if type(value) is float:
        return -math.inf < value < math.inf
    try:
        return type(value) is int and math.isfinite(value)
    except OverflowError:  # an int past float range
        return False


def _is_positive(value):
    return _is_json_number(value) and value > 0


def _is_limits(value):
    if type(value) is not dict or value.keys() != _LIMIT_FIELDS:
        return False
    try:
        CapacityLimits(**value)
    except ValueError:
        return False
    return True


def _is_hex(value):
    return isinstance(value, str) and len(value) % 2 == 0 and _REFERENCE_HEX.fullmatch(value) is not None


_KEY_CHECKS = {
    "t": _is_json_number,
    "kind": _KINDS.__contains__,
    "observer": str.__instancecheck__,
    "subject": str.__instancecheck__,
    "duration_s": _is_positive,
    "limits": _is_limits,
    "scanners": lambda value: type(value) is dict and all(map(_is_positive, value.values())),
    "found": _is_json_number,
    "records": lambda value: type(value) is list and all(map(str.__instancecheck__, value)),
    "generation": lambda value: type(value) is int,
    "mode": ("framed", "raw").__contains__,
    "message": _is_hex,
    "payloads": lambda value: type(value) is list and all(map(_is_hex, value)),
}


def _checks(*keys):
    return tuple((key, _KEY_CHECKS[key]) for key in keys)


_EVENT_CHECKS = _checks("t", "kind", "observer", "subject")
_DETAIL_CHECKS = {
    kind: (f"{kind} detail", _checks(*keys))
    for kind, keys in (
        ("RunStarted", ("duration_s", "limits", "scanners")),
        ("FetchAborted", ("found",)),
        ("UuidsFetched", ("found", "records")),
        ("MessageReassembled", ("generation", "mode")),
        ("MessageChanged", ("generation", "mode", "message")),
    )
}
_REASSEMBLED_CHECKS = {
    mode: _DETAIL_CHECKS["MessageReassembled"][1] + _checks(key)
    for mode, key in (("framed", "message"), ("raw", "payloads"))
}
# The keys whose check takes an int as a JSON number; the reader converts
# an int there to its float, as it does `t`.
_FLOAT_KEYS = ("found", "duration_s")


def _reference_from_array(items):
    if not isinstance(items, list) or len(items) != 5:
        got = f"an object with keys {list(items)}" if isinstance(items, dict) else repr(items)
        raise ValueError(f"event must be an array [t, kind, observer, subject, detail], got {got}")
    for (key, check), value in zip(_EVENT_CHECKS, items):
        if not check(value):
            raise ValueError(f"event: {key!r} is missing or malformed: {value!r}")
    t, kind, observer, subject, detail = items
    what, checks = _DETAIL_CHECKS[kind]
    if not isinstance(detail, dict):
        raise ValueError(f"{what} must be an object, got {detail!r}")
    if kind == "MessageReassembled" and detail.get("mode") in ("framed", "raw"):
        checks = _REASSEMBLED_CHECKS[detail["mode"]]
    for key, check in checks:
        if not check(value := detail.get(key)):
            raise ValueError(f"{what}: {key!r} is missing or malformed: {value!r}")
    if len(detail) != len(checks):
        known = [key for key, _ in checks]
        raise ValueError(f"{what}: unknown keys {[key for key in detail if key not in known]}")
    if any(type(detail.get(key)) is int for key in _FLOAT_KEYS):
        detail = {
            key: float(value) if key in _FLOAT_KEYS and type(value) is int else value
            for key, value in detail.items()
        }
    return tuple.__new__(SimEvent, (float(t), kind, observer, subject, detail))


def _read(from_array, items):
    """What `from_array(items)` does, with the exact type of each field it
    returns and of each detail value: an integer `t` or `found` read as it
    is would equal its float."""
    outcome = _outcome(from_array, items)
    if outcome[0] == "returned":
        event = outcome[1]
        return (*outcome, [type(field) for field in event], [type(v) for v in event.detail.values()])
    return outcome


def _same_event(items):
    assert _read(SimEvent.from_array, items) == _read(_reference_from_array, items), items


@pytest.fixture
def oracle_logs(raw_torn_read):
    churn_400 = _bench_workloads().churn_400(sdpcast, random.Random(0))
    return [
        list(run(scenario_gen("crowd-20"), seed=1)),
        list(run(raw_torn_read, seed=0)),
        list(run(churn_400, seed=1)),
    ]


def test_from_array_matches_reference_on_logs(oracle_logs):
    for log in oracle_logs:
        for event in log:
            _same_event(json.loads(event.to_json()))


def test_from_array_matches_reference_on_edited_lines(oracle_logs):
    for log in oracle_logs:
        for index, path, value in _log_edits(log):
            _same_event(json.loads(_edited(log[index].to_json(), path, value)))


class _Dict(dict):
    pass


class _Float(float):
    pass


class _Int(IntEnum):
    ONE = 1


_HEXES = st.binary(max_size=6).map(bytes.hex)
_TEXTS = st.text(max_size=4)
_NUMBERS = st.floats(1e-3, 1e6)

# Per key: the values `_Runner` writes there, and values off its shape that
# are near them: another type, a subclass, a bool for an int, an int for a float.
_VALID = {
    "t": st.floats(0.0, 1e6),
    "observer": _TEXTS,
    "subject": _TEXTS,
    "found": st.floats(0.0, 1e6),
    "generation": st.integers(0, 2**64),
    "records": st.lists(_TEXTS, max_size=3),
    "message": _HEXES,
    "payloads": st.lists(_HEXES, max_size=3),
    "duration_s": _NUMBERS,
    "limits": st.just({"max_outbound_slots": 7, "max_inbound_records": 21}),
    "scanners": st.dictionaries(_TEXTS, _NUMBERS, max_size=2),
}
_ODD_INTS = st.one_of(
    st.booleans(), st.just(_Int.ONE), st.floats(-1.0, 2.0), st.none(), st.just("0"), st.integers(-2, 2)
)
_ODD_STRS = st.one_of(_TEXTS.map(_Str), st.integers(), st.none(), st.just(b"aa"), st.just(["x"]))
_ODD_HEXES = st.one_of(
    _HEXES.map(_Str), _HEXES.map(str.upper), st.text("0123456789abcdefgA", max_size=5),
    st.integers(), st.none(), st.just(["00"]),
)
_ODD_TIMES = st.one_of(
    st.integers(-2, 2**64), st.booleans(), st.just(2**1100), st.floats(allow_nan=True),
    st.floats(0.0, 1e6).map(_Float), st.none(), st.just("1.5"),
)
_ODD = {
    "t": _ODD_TIMES,
    "kind": st.one_of(
        st.sampled_from(_KINDS), st.sampled_from(_KINDS).map(_Str),
        st.just("Mystery"), st.just(["FetchAborted"]), st.just("DeviceFound"), st.none(),
    ),
    "observer": _ODD_STRS,
    "subject": _ODD_STRS,
    "detail": st.one_of(st.none(), st.just([]), st.just("{}"), st.just(_Dict(found=0.5))),
    "found": _ODD_TIMES,
    "generation": _ODD_INTS,
    "mode": st.one_of(
        st.sampled_from(MODES), st.sampled_from(MODES).map(_Str), st.just("FRAMED"),
        st.none(), st.just([FRAMED]), st.integers(),
    ),
    "records": st.one_of(
        st.lists(_ODD_STRS, min_size=1, max_size=2), st.lists(_TEXTS, max_size=2).map(tuple), _ODD_STRS
    ),
    "message": _ODD_HEXES,
    "payloads": st.one_of(
        st.lists(_ODD_HEXES, min_size=1, max_size=2), st.lists(_HEXES, max_size=2).map(tuple), _ODD_HEXES
    ),
    "duration_s": st.one_of(st.integers(-1, 60), st.booleans(), st.floats(allow_nan=True)),
    "limits": st.one_of(st.none(), st.just({"max_outbound_slots": 7}), st.just([7, 21])),
    "scanners": st.one_of(st.none(), st.just([]), st.dictionaries(_TEXTS, st.booleans(), max_size=1)),
}
_DETAIL_KEYS = {
    RUN_STARTED: ("duration_s", "limits", "scanners"),
    FETCH_ABORTED: ("found",),
    UUIDS_FETCHED: ("found", "records"),
    MESSAGE_REASSEMBLED: ("generation", "mode"),
    MESSAGE_CHANGED: ("generation", "mode", "message"),
}


@st.composite
def event_arrays(draw):
    """A line as `_Runner` writes it, then with up to three items or detail
    values replaced by ones near the shape, deleted or added, or two items
    swapped; and with the detail's keys, half the time, in another order."""
    kind = draw(st.sampled_from(_KINDS))
    mode = draw(st.sampled_from(MODES))
    keys = _DETAIL_KEYS[kind]
    if kind == MESSAGE_REASSEMBLED:  # the mode says what else the detail holds
        keys += ("message",) if mode == FRAMED else ("payloads",)
    detail = {key: mode if key == "mode" else draw(_VALID[key]) for key in keys}
    items = [draw(_VALID["t"]), kind, draw(_VALID["observer"]), draw(_VALID["subject"]), detail]
    for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2, 3)))):
        action = draw(st.sampled_from(("replace", "replace", "replace", "delete", "add", "swap")))
        if draw(st.booleans()):  # an item of the line
            if action == "add":
                items.insert(draw(st.integers(0, len(items))), draw(st.integers()))
            elif len(items) >= 2:
                i, j = draw(st.permutations(range(len(items))))[:2]
                if action == "delete":
                    del items[i]
                elif action == "swap":
                    items[i], items[j] = items[j], items[i]
                else:  # a value near the shape of the field at that position
                    field = SimEvent._fields[i] if i < len(SimEvent._fields) else None
                    items[i] = draw(_ODD.get(field, st.integers()))
            continue
        if action == "add":
            key = draw(st.sampled_from(("extra", "round", "found", "generation", "message", "payloads")))
        elif detail and action != "swap":
            key = draw(st.sampled_from(list(detail)))
        else:
            continue
        if action == "delete":
            del detail[key]
        else:
            detail[key] = draw(_ODD.get(key, st.integers()))
    if draw(st.booleans()):  # the detail's keys in another order, in place
        reordered = dict(reversed(detail.items()))
        detail.clear()
        detail.update(reordered)
    return items


class _List(list):
    pass


def _event_items(detail, *extra, **fields):
    """A FetchAborted line's items, or with `fields`, another's; `extra` items follow."""
    line = {"t": 1.5, "kind": FETCH_ABORTED, "observer": "a", "subject": "b", **fields, "detail": detail}
    return [*line.values(), *extra]


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        event_arrays(),
        event_arrays().map(_List),
        # a line in the former one-object-per-line form
        event_arrays().map(lambda items: dict(zip(SimEvent._fields, items))),
        st.just([]),
        st.just({}),
        st.none(),
    )
)
# a bool is an int, and an int `t` or `found` converts; the table rejects the
# first and converts the second, so the fast path must take neither.
@example(_event_items({"found": True}))
@example(_event_items({"found": 1}))
@example(_event_items({"found": 2**1100}))
@example(_event_items({"found": math.nan}))
@example(_event_items({"found": -math.inf}))
@example(_event_items({"found": _Float(0.5)}))
@example(_event_items({"found": 0.5}, t=1))
@example(_event_items({"found": 0.5}, t=True))
@example(_event_items({"found": 0.5}, None))
@example(_event_items({"found": 0.5})[:4])
@example(_event_items({"found": 0.5}, kind=_Str(FETCH_ABORTED)))
@example(_event_items({"found": 0.5})[::-1])
@example(_event_items({"round": 0}, kind="DeviceFound"))
@example(_event_items({"found": False, "records": []}, kind=UUIDS_FETCHED))
@example(_event_items({"found": 1, "records": []}, kind=UUIDS_FETCHED))
@example(_event_items({"found": math.inf, "records": []}, kind=UUIDS_FETCHED))
@example(_event_items({"round": 0, "records": []}, kind=UUIDS_FETCHED))
@example(_event_items({"generation": True, "mode": FRAMED, "message": ""}, kind=MESSAGE_REASSEMBLED))
@example(_event_items({"generation": True, "mode": RAW, "payloads": []}, kind=MESSAGE_REASSEMBLED))
@example(_event_items({"generation": 1, "mode": RAW, "message": ""}, kind=MESSAGE_REASSEMBLED))
@example(_event_items({"generation": True, "mode": RAW, "message": ""}, kind=MESSAGE_CHANGED))
def test_from_array_matches_reference_property(items):
    _same_event(items)


# -- the log writer's floats ------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True))
@example(5e-324)
@example(-5e-324)
@example(2.2250738585072014e-308)
@example(1e-300)
@example(1e-7)
@example(0.1 + 0.2)
@example(-0.0)
@example(0.0)
@example(1e16)
@example(1e22)
@example(123456789012345680.0)
@example(1.7976931348623157e308)
@example(math.nan)
@example(math.inf)
def test_to_json_writes_floats_as_json_does(value):
    # json writes a finite float, a float subclass too, by `float.__repr__`,
    # and NaN and the infinities as no JSON number; the writer is json's own
    # encoder, so a line holds exactly what `_ENCODER` writes.
    for detail in ({"found": value}, {"found": value, "records": ["a"]}):
        for found in (value, _Float(value)):
            event = SimEvent(1.5, FETCH_ABORTED, "a", "b", {**detail, "found": found})
            assert event.to_json() == _ENCODER.encode(list(event))


# -- the report -------------------------------------------------------------------


def _slots(mode, message):
    """The slots a message takes, as the README states them."""
    if mode == RAW:
        return max(1, math.ceil(len(message) / PAYLOAD_OCTETS))
    return math.ceil((len(message) + 2) / 12)


def _reference_report(events, threshold_s=60.0):
    """`build_report`'s figures, from the README's definitions, with no memo:
    each fetch unframed, or raw-read, in the mode of its subject's latest
    change. A pair's reading counts when its (generation, mode, outcome)
    differs from its previous one; an exact reading is delivered when it is
    the first of its (observer, subject, generation), and any other is
    misdelivered. A pair's first discovery is its least `found`, and each
    change is one opportunity per scanner other than its subject."""
    header, *events = events
    scanners = header.detail["scanners"]
    limits = CapacityLimits(**header.detail["limits"])
    latest = {}  # subject -> (generation, t, mode, message) of its latest change
    last_reading, found, latencies, credited, fetches = {}, {}, {}, set(), []
    total = misdelivered = 0
    for t, kind, observer, subject, detail in events:
        pair = (observer, subject)
        if kind == MESSAGE_CHANGED:
            message = bytes.fromhex(detail["message"])
            latest[subject] = (detail["generation"], t, detail["mode"], message)
            total += len([scanner for scanner in scanners if scanner != subject])
        elif kind in (UUIDS_FETCHED, FETCH_ABORTED):
            found[pair] = min(found.get(pair, math.inf), detail["found"])
        if kind != UUIDS_FETCHED:
            continue
        payloads = raw_read(detail["records"])
        octets = PAYLOAD_OCTETS * len(payloads)
        fetches.append(FetchBandwidth(
            t, observer, subject, len(detail["records"]), len(payloads), octets,
            octets / limits.inbound_ceiling,
        ))
        if subject not in latest:
            continue
        generation, changed_at, mode, message = latest[subject]
        if mode == FRAMED:
            try:
                outcome, exact = unframe(detail["records"]), message
            except ReassemblyError:
                continue
        else:
            outcome, exact = sorted(payloads), sorted(raw_payloads(message))
            if not outcome:
                continue
        if last_reading.get(pair) == (generation, mode, outcome):
            continue
        last_reading[pair] = (generation, mode, outcome)
        if outcome != exact:
            misdelivered += 1
        elif (*pair, generation) not in credited:
            credited.add((*pair, generation))
            latencies.setdefault(pair, []).append(t - changed_at)
    delivered = [latency for pair in latencies.values() for latency in pair]
    return {
        "pairs": tuple(
            PairLatency(*pair, found[pair], tuple(latencies.get(pair, ()))) for pair in sorted(found)
        ),
        "total": total,
        "delivered": len(delivered),
        "within": sum(latency <= threshold_s for latency in delivered),
        "misdelivered": misdelivered,
        "devices": tuple(
            DeviceBandwidth(d, n, PAYLOAD_OCTETS * n, PAYLOAD_OCTETS * n / limits.outbound_ceiling)
            for d, n in sorted((d, _slots(mode, m)) for d, (_, _, mode, m) in latest.items())
        ),
        "fetches": tuple(fetches),
    }


def _figures(report):
    lat, bw = report.latency, report.bandwidth
    return {
        "pairs": lat.pairs,
        "total": lat.changes_total,
        "delivered": lat.changes_delivered,
        "within": lat.changes_within_threshold,
        "misdelivered": lat.changes_misdelivered,
        "devices": bw.devices,
        "fetches": tuple(bw.fetches),
    }


def _same_report(events):
    """`build_report` and the reference agree on the log `events`, with and
    without its MessageReassembled lines, and deliver no more than there
    were opportunities."""
    reference = _reference_report(events)
    assert reference["delivered"] <= reference["total"]
    bare = [event for event in events if event.kind != MESSAGE_REASSEMBLED]
    for log in (events, bare):
        assert _figures(build_report(log)) == reference


@pytest.mark.parametrize("name,seed", GOLDEN_CASES)
def test_report_matches_reference_on_golden_logs(name, seed):
    _same_report(list(run(_golden_scenario(name), seed=seed)))


@st.composite
def report_runs(draw):
    """A small run of `test_sim`'s grid scenarios, with each device in either
    mode and most of them moved into a 5 m square and discoverable, so that
    most pairs meet; longer fetch windows than the default's, some; message
    changes, some that repeat a device's bytes; and torn reads on in most
    runs."""
    sc = draw(_grid_scenarios())
    square = st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0))
    long_messages = st.binary(min_size=14, max_size=40)  # two slots or more, so they tear
    devices = [
        dataclasses.replace(
            d, mode=draw(st.sampled_from(MODES)),
            position=draw(st.one_of(st.just(d.position), square, square)),
            discoverable=d.discoverable or draw(st.booleans()),
            message=draw(st.one_of(st.just(d.message), long_messages)),
        )
        for d in sc.devices
    ]
    again = st.sampled_from([d.message for d in devices])
    messages = st.one_of(long_messages, st.binary(max_size=40), again)
    changes = [
        Mutation(
            t=sc.duration_s * draw(st.integers(0, 100)) / 100,  # spread out, not at the ends
            device=draw(st.sampled_from(devices)).address,
            action="set_message",
            message=draw(messages),
            mode=draw(st.sampled_from((None, *MODES))),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    return dataclasses.replace(
        sc, devices=devices, schedule=[*sc.schedule, *changes],
        timing=TimingModel(
            12.0, draw(st.sampled_from((6.0, 15.0))), draw(st.sampled_from((1.5, 5.0)))
        ),
        torn_read_mode=draw(st.integers(0, 9)) < 7,
    )


@settings(max_examples=150, deadline=None)
@given(report_runs())
def test_report_matches_reference_on_drawn_runs(sc):
    _same_report(list(run(sc)))
