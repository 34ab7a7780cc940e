"""The event log's fixed-shape fast paths against json and the check table.

`SimEvent.to_json` writes a line by a per-shape template when every value
fits one, and `SimEvent.from_dict` skips the table of checks for a line of a
fixed shape. `_ENCODER` and `_from_table` stay the definition of a line: the
templates must write exactly their text, and the shapes must give exactly
their events and errors.
"""

import enum
import json
import math

import pytest

from sdpcast import BUILTIN_SCENARIOS, RAW, SimEvent, load_log, run, scenario_gen
from sdpcast import log
from sdpcast.log import _ENCODER, _from_table
from test_report import _LOG_ERRORS, _edited, _line, _log_edits, _two_device_log

A = "aa:00:00:00:00:01"
B = "aa:00:00:00:00:02"
UUID = "01000268-6900-4000-8000-00000000c0de"
WELL_KNOWN = "0000110a-0000-1000-8000-00805f9b34fb"


def _builtin_logs(seeds):
    """Every built-in at each seed, and a copy of torn-read in raw mode."""
    torn = scenario_gen("torn-read")
    torn.devices[0].mode = RAW  # raw reassemblies carry payloads, not a message
    scenarios = [scenario_gen(name) for name in sorted(BUILTIN_SCENARIOS)] + [torn]
    for scenario in scenarios:
        for seed in seeds:
            yield list(run(scenario, seed=seed))


def _encoded(event):
    return _ENCODER.encode(event._asdict())


def test_to_json_writes_what_the_encoder_writes_for_every_builtin_event():
    for events in _builtin_logs((0, 1, 42)):
        for event in events:
            assert event.to_json() == _encoded(event)


class _Round(enum.IntEnum):
    FIRST = 1


class _Text(str):
    """A string that formats as something else: json writes its text."""

    def __format__(self, spec):
        return "formatted"


class _Time(float):
    def __repr__(self):
        return "repr"


_SPECIALS = ['"', "\\", *map(chr, range(0x20)), "\x7f", "é", " ", "\U0001f600"]

# One event of each fixed shape.
_BASE = (
    SimEvent(1.5, "ScanStarted", A, A, {"round": 0}),
    SimEvent(1.5, "DeviceFound", A, B, {"round": 3}),
    SimEvent(
        7.5, "UuidsFetched", A, B,
        {"round": 0, "cached": True, "delay": 6.0, "records": [UUID, WELL_KNOWN]},
    ),
    SimEvent(7.5, "MessageReassembled", A, B, {"generation": 1, "mode": "framed", "message": "6869"}),
    SimEvent(7.5, "MessageReassembled", A, B, {"generation": 2, "mode": "raw", "payloads": ["00", "0102"]}),
    SimEvent(0.0, "MessageChanged", B, B, {"generation": 1, "mode": "framed", "slots": 1, "message": "6869"}),
)


def _with(event, **changes):
    """`event` with fields, or (given as `detail__key`) detail values, replaced."""
    detail = dict(event.detail)
    for name, value in list(changes.items()):
        if name.startswith("detail__"):
            detail[name[len("detail__"):]] = changes.pop(name)
    return event._replace(detail=detail, **changes)


def _edge_events():
    scan, found, fetched, framed, raw, changed = _BASE
    yield from _BASE
    # strings
    for char in _SPECIALS:
        text = f"a{char}b"
        yield _with(scan, observer=text)
        yield _with(found, subject=text)
        yield _with(fetched, detail__records=[UUID, text])
        yield _with(fetched, detail__records=[text])
        yield _with(framed, detail__mode=text)
        yield _with(framed, detail__message=text)
        yield _with(raw, detail__payloads=["00", text])
        yield _with(changed, detail__mode=text)
        yield _with(changed, detail__message=text)
    yield _with(scan, observer="é")
    yield _with(scan, observer=_Text(A))
    yield _with(framed, detail__message=_Text("6869"))
    yield _with(fetched, detail__records=[_Text(UUID), WELL_KNOWN])
    yield _with(scan, observer="")
    yield _with(fetched, detail__records=[""])
    yield _with(fetched, detail__records=["", ""])
    # numbers
    for t in (math.nan, math.inf, -math.inf, 1, 0, True, -0.0, 1e300, 5e-324, _Time(1.5)):
        yield _with(scan, t=t)
    for rnd in (True, False, _Round.FIRST, -1, 2**70, 1.0, None, "0"):
        yield _with(scan, detail__round=rnd)
        yield _with(fetched, detail__round=rnd)
    for delay in (math.nan, math.inf, -math.inf, 6, True, _Time(6.0), None):
        yield _with(fetched, detail__delay=delay)
    for cached in (False, 1, 0, None, "true"):
        yield _with(fetched, detail__cached=cached)
    for number in (True, _Round.FIRST, 1.0, None):
        yield _with(framed, detail__generation=number)
        yield _with(raw, detail__generation=number)
        yield _with(changed, detail__generation=number)
        yield _with(changed, detail__slots=number)
    # records and payloads
    for items in ([], [5], [UUID, None], [UUID, [UUID]], (UUID,), UUID, None):
        yield _with(fetched, detail__records=items)
        yield _with(raw, detail__payloads=items)
    for message in (5, None, ["6869"]):
        yield _with(framed, detail__message=message)
        yield _with(changed, detail__message=message)
    # details
    yield _with(scan, detail__extra=1)
    yield _with(fetched, detail__round=0, detail__extra=[1])
    yield scan._replace(detail={})
    yield scan._replace(detail=[0])
    yield scan._replace(detail=None)
    yield fetched._replace(detail=dict(reversed(fetched.detail.items())))
    yield changed._replace(detail={"mode": "framed", "generation": 1, "slots": 1, "message": "6869"})
    yield framed._replace(detail={"generation": 1, "mode": "framed", "payloads": ["00"]})
    # kinds
    for kind in ("Mystery", "", "a\"b", ["ScanStarted"], 5, None, _Text("ScanStarted")):
        yield _with(scan, kind=kind)
    yield _with(framed, kind="ScanStarted")


def test_to_json_writes_what_the_encoder_writes_for_edge_events():
    for event in _edge_events():
        assert event.to_json() == _encoded(event), event


def _unused(*args):
    raise AssertionError(f"off the fixed shapes: {args!r}")


def test_runner_events_take_the_fixed_shapes(monkeypatch):
    """Every line a run writes, and reads back, skips json's encoder and the
    table: the fast paths are taken, not only correct."""
    logs = list(_builtin_logs((0,)))
    monkeypatch.setattr(log._ENCODER, "encode", _unused)
    lines = [[event.to_json() for event in events] for events in logs]
    monkeypatch.setattr(log, "_from_table", _unused)
    for events, written in zip(logs, lines):
        assert list(load_log(written)) == events


def test_each_template_writes_its_kinds_table_keys_in_order():
    sample = {
        "round": 0, "cached": False, "delay": 1.0, "records": [UUID], "generation": 1,
        "mode": "raw", "slots": 1, "message": "00", "payloads": ["00"],
    }
    shapes = set()
    for kind, (_, checks) in log._DETAIL_CHECKS.items():
        bodies = log._REASSEMBLED_BODY.values() if kind == "MessageReassembled" else [()]
        for body in bodies:
            keys = tuple(key for key, _ in checks + body)
            template = log._TEMPLATES[keys]
            written = template(*(sample[key] for key in keys))
            assert written == _ENCODER.encode({key: sample[key] for key in keys})
            assert tuple(json.loads(written)) == keys
            assert (kind, keys) in log._SHAPES
            shapes.add((kind, keys))
    assert set(log._SHAPES) == shapes
    assert set(log._TEMPLATES) == {keys for _, keys in shapes}


def _outcome(read, obj):
    """What reading `obj` gives: the event and its detail's key order, or the error."""
    try:
        event = read(obj)
    except ValueError as exc:
        return "error", str(exc)
    return event, list(event.detail)


def _table_only(obj):
    return _from_table(SimEvent, obj)


def _assert_same_outcome(obj):
    assert _outcome(SimEvent.from_dict, obj) == _outcome(_table_only, obj), obj


def test_from_dict_agrees_with_the_table_on_edited_logs():
    torn = scenario_gen("torn-read")
    torn.devices[0].mode = RAW
    for events in (_two_device_log(3), list(run(torn, seed=0))):
        lines = [event.to_json() for event in events]
        for line in lines:
            _assert_same_outcome(json.loads(line))
        for index, path, value in _log_edits(events):
            _assert_same_outcome(json.loads(_edited(lines[index], path, value)))


def test_from_dict_agrees_with_the_table_on_malformed_lines():
    for line, message in _LOG_ERRORS:
        try:
            obj = log._parse(line)
        except ValueError:
            continue  # not JSON: neither path sees it
        _assert_same_outcome(obj)
        with pytest.raises(ValueError) as excinfo:
            SimEvent.from_dict(obj)
        assert str(excinfo.value) == message


_FETCHED = {"round": 0, "cached": False, "delay": 6.0, "records": [UUID]}
_FRAMED = {"generation": 1, "mode": "framed", "message": "6869"}
_RAW = {"generation": 1, "mode": "raw", "payloads": ["6869"]}
_CHANGED = {"generation": 1, "mode": "raw", "slots": 1, "message": "6869"}

# Lines of a fixed shape's keys that its checks must still reject.
_NEAR_MISSES = [
    _line("ScanStarted", {"round": True}),
    _line("DeviceFound", {"round": False}),
    _line("UuidsFetched", {**_FETCHED, "round": True}),
    _line("ScanStarted", {"round": 0}, t=1.5).replace("1.5", "1e400"),
    _line("ScanStarted", {"round": 0}, t=1.5).replace("1.5", "-1e400"),
    _line("UuidsFetched", _FETCHED).replace("6.0", "1e400"),
    _line("UuidsFetched", {**_FETCHED, "records": [UUID, 5]}),
    _line("UuidsFetched", {**_FETCHED, "cached": 0}),
    _line("MessageReassembled", {**_FRAMED, "message": "686"}),
    _line("MessageReassembled", {**_FRAMED, "message": "686A"}),
    _line("MessageReassembled", {**_RAW, "payloads": ["6869", "ABCD"]}),
    _line("MessageReassembled", {**_RAW, "payloads": ["abc"]}),
    _line("MessageReassembled", {**_RAW, "payloads": [5]}),
    _line("MessageChanged", {**_CHANGED, "message": "686"}),
    _line("MessageChanged", {**_CHANGED, "message": "6869AB"}),
    _line("MessageChanged", {**_CHANGED, "mode": "bogus"}),
    _line("MessageChanged", {**_CHANGED, "slots": True}),
    _line("MessageReassembled", {"generation": 1, "mode": "raw", "message": "6869"}),
    _line("MessageReassembled", {"generation": 1, "mode": "framed", "payloads": ["6869"]}),
    _line(["ScanStarted"], {"round": 0}),
    _line({"ScanStarted": 0}, {"round": 0}),
    _line("Mystery", {"round": 0}),
]

# Lines off every fixed shape that the table still accepts.
_OFF_SHAPE = [
    _line("ScanStarted", {"round": 0}, t=0),
    _line("UuidsFetched", {**_FETCHED, "delay": 6}),
    _line("ScanStarted", {"round": 0, "extra": None}),
    _line("MessageChanged", dict(reversed(_CHANGED.items()))),
    _line("MessageReassembled", {**_RAW, "message": "6869"}),
    json.dumps({"detail": {"round": 0}, "t": 0.5, "kind": "ScanStarted", "observer": A, "subject": A}),
    json.dumps({"t": 0.5, "kind": "ScanStarted", "observer": A, "subject": A, "detail": {"round": 0}, "x": 1}),
]


def test_from_dict_agrees_with_the_table_off_the_fixed_shapes():
    for line in _NEAR_MISSES:
        obj = log._parse(line)
        _assert_same_outcome(obj)
        with pytest.raises(ValueError):
            SimEvent.from_dict(obj)
    for line in _OFF_SHAPE:
        obj = log._parse(line)
        _assert_same_outcome(obj)
        assert SimEvent.from_dict(obj).detail is obj["detail"]
