"""The event log's writer against json, and what its reader accepts.

A line is the array of an event's five fields, in field order.
`SimEvent.to_json` writes every line, the RunStarted header included,
through `_ENCODER`'s C encoder, built once. `_ENCODER.encode` stays the
definition of a line's text: the writer must write exactly what it writes
for the event's fields as a list, or raise the same error.
`SimEvent.from_array` reads every line by the specs of `log._SPECS`;
`test_report._LOG_ERRORS` pins the lines it rejects and their messages.
"""

import enum
import math
import random

import sdpcast
from sdpcast import BUILTIN_SCENARIOS, SimEvent, load_log, run, scenario_gen
from sdpcast import log
from sdpcast.log import _ENCODER
from test_report import _line
from test_sim import _bench_workloads

A = "aa:00:00:00:00:01"
B = "aa:00:00:00:00:02"
UUID = "01000268-6900-4000-8000-00000000c0de"
WELL_KNOWN = "0000110a-0000-1000-8000-00805f9b34fb"


def _builtin_logs(raw_torn_read, seeds):
    """Every built-in at each seed, and torn-read in raw mode."""
    scenarios = [scenario_gen(name) for name in sorted(BUILTIN_SCENARIOS)] + [raw_torn_read]
    for scenario in scenarios:
        for seed in seeds:
            yield list(run(scenario, seed=seed))


def _encoded(event):
    return _ENCODER.encode(list(event))


def _outcome(write, event):
    """What `write(event)` returns, or the type and message of its error."""
    try:
        return write(event)
    except (TypeError, ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def test_to_json_writes_what_the_encoder_writes_for_every_builtin_event(raw_torn_read):
    # The benchmark's churn-400 and sparse-1000 layouts add empty and
    # random-length messages, raw torn splices and a 1 000-device log.
    workloads = _bench_workloads()
    logs = list(_builtin_logs(raw_torn_read, (0, 1, 42)))
    logs += [
        run(workloads.churn_400(sdpcast, random.Random(0)), seed=1),
        run(workloads.sparse_1000(sdpcast, random.Random(0)), seed=1),
    ]
    for events in logs:
        for event in events:
            assert event.to_json() == _encoded(event)


class _Generation(enum.IntEnum):
    FIRST = 1


class _Text(str):
    """A string that formats as something else: json writes its text."""

    def __format__(self, spec):
        return "formatted"


class _Time(float):
    def __repr__(self):
        return "repr"


_SPECIALS = ['"', "\\", *map(chr, range(0x20)), "\x7f", "é", " ", "\U0001f600"]

_HEADER = SimEvent(
    0.0,
    "RunStarted",
    "",
    "",
    {
        "duration_s": 60.0,
        "limits": {"max_outbound_slots": 7, "max_inbound_records": 21},
        "scanners": {A: 30.0, B: 7.5},
    },
)

# One event of each fixed shape.
_BASE = (
    SimEvent(7.5, "FetchAborted", A, B, {"found": 1.5}),
    SimEvent(7.5, "UuidsFetched", A, B, {"found": 1.5, "records": [UUID, WELL_KNOWN]}),
    SimEvent(7.5, "MessageReassembled", A, B, {"generation": 1, "mode": "framed", "message": "6869"}),
    SimEvent(7.5, "MessageReassembled", A, B, {"generation": 2, "mode": "raw", "payloads": ["00", "0102"]}),
    SimEvent(0.0, "MessageChanged", B, B, {"generation": 1, "mode": "framed", "message": "6869"}),
)


def _with(event, **changes):
    """`event` with fields, or (given as `detail__key`) detail values, replaced."""
    detail = dict(event.detail)
    for name, value in list(changes.items()):
        if name.startswith("detail__"):
            detail[name[len("detail__"):]] = changes.pop(name)
    return event._replace(detail=detail, **changes)


def _edge_events():
    aborted, fetched, framed, raw, changed = _BASE
    yield _HEADER
    yield from _BASE
    # strings
    for char in _SPECIALS:
        text = f"a{char}b"
        yield _with(aborted, observer=text)
        yield _with(aborted, subject=text)
        yield _with(fetched, detail__records=[UUID, text])
        yield _with(fetched, detail__records=[text])
        yield _with(framed, detail__mode=text)
        yield _with(framed, detail__message=text)
        yield _with(raw, detail__payloads=["00", text])
        yield _with(changed, detail__mode=text)
        yield _with(changed, detail__message=text)
    yield _with(aborted, observer="é")
    yield _with(aborted, observer=_Text(A))
    yield _with(framed, detail__message=_Text("6869"))
    yield _with(fetched, detail__records=[_Text(UUID), WELL_KNOWN])
    yield _with(aborted, observer="")
    yield _with(fetched, detail__records=[""])
    yield _with(fetched, detail__records=["", ""])
    # numbers
    for t in (math.nan, math.inf, -math.inf, 1, 0, True, -0.0, 1e300, 5e-324, _Time(1.5)):
        yield _with(aborted, t=t)
    for found in (
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, 1e300,
        _Time(1.5), True, False, _Generation.FIRST, -1, 2**70, 0, None, "0",
    ):
        yield _with(aborted, detail__found=found)
        yield _with(fetched, detail__found=found)
    for number in (True, _Generation.FIRST, 1.0, None):
        yield _with(framed, detail__generation=number)
        yield _with(raw, detail__generation=number)
        yield _with(changed, detail__generation=number)
        yield _with(_HEADER, detail__duration_s=number)
    # records and payloads
    for items in ([], [5], [UUID, None], [UUID, [UUID]], (UUID,), UUID, None):
        yield _with(fetched, detail__records=items)
        yield _with(raw, detail__payloads=items)
    for message in (5, None, ["6869"]):
        yield _with(framed, detail__message=message)
        yield _with(changed, detail__message=message)
    # details
    yield _with(aborted, detail__extra=1)
    yield _with(fetched, detail__found=0.5, detail__extra=[1])
    yield aborted._replace(detail={})
    yield aborted._replace(detail=[0])
    yield aborted._replace(detail=None)
    yield fetched._replace(detail=dict(reversed(fetched.detail.items())))
    yield changed._replace(detail={"mode": "framed", "generation": 1, "message": "6869"})
    yield _with(changed, detail__slots=1)
    yield framed._replace(detail={"generation": 1, "mode": "framed", "payloads": ["00"]})
    yield aborted._replace(detail={"records": [UUID], "found": 0.5, "message": "00"})
    yield aborted._replace(detail={_Text("found"): 0.5})
    yield _with(aborted, detail__t=1.5)
    # keys json converts to strings, and values no spec holds
    yield aborted._replace(detail={5: 0.5, 1.5: 1, True: "a", None: None})
    yield _with(fetched, detail__records=(UUID, WELL_KNOWN))
    yield _with(framed, detail__nested={"a": [1, {"b": 2.5}], "c": None})
    # values json cannot write, and a detail that holds itself, which under
    # check_circular=False recurses until RecursionError
    yield _with(aborted, detail__extra={1, 2})
    yield _with(aborted, detail__extra=b"hi")
    looped = _with(aborted)
    looped.detail["self"] = looped.detail
    yield looped
    # kinds, among them one the format no longer has
    for kind in (
        "Mystery", "", "a\"b", ["FetchAborted"], 5, None, _Text("FetchAborted"), "DeviceFound",
    ):
        yield _with(aborted, kind=kind)
    yield _with(framed, kind="FetchAborted")


def test_to_json_writes_what_the_encoder_writes_for_edge_events():
    for event in _edge_events():
        assert _outcome(SimEvent.to_json, event) == _outcome(_encoded, event), event


def _unused(*args):
    raise AssertionError(f"off the fast path: {args!r}")


def test_runner_events_take_the_fixed_shapes(monkeypatch, raw_torn_read):
    """Every line a run writes, its header included, goes through the one
    encoder built once, not `_ENCODER.encode`, and reads back to the event
    written: that writer is taken, not only correct."""
    logs = list(_builtin_logs(raw_torn_read, (0,)))
    monkeypatch.setattr(log._ENCODER, "encode", _unused)
    for events in logs:
        assert list(load_log(event.to_json() for event in events)) == events


def test_runner_lines_take_the_reader_fast_path(monkeypatch, raw_torn_read):
    """Every line a run writes, its header included, fits the spec of its
    kind exactly, so it reads back to the event written without the walk
    that words errors: the reader's fast path is taken, not only correct.
    churn-400's layout 0 adds raw reassemblies."""
    logs = list(_builtin_logs(raw_torn_read, (0,)))
    logs.append(list(run(_bench_workloads().churn_400(sdpcast, random.Random(0)), seed=1)))
    assert any(e.kind == "MessageReassembled" and e.detail["mode"] == "raw" for e in logs[-1])
    monkeypatch.setattr(log, "_from_table", _unused)
    for events in logs:
        assert list(load_log(event.to_json() for event in events)) == events


_CHANGED = {"message": "6869", "mode": "raw", "generation": 1}
_FETCHED = {"records": [UUID], "found": 1}

# Lines the runner writes otherwise that still load, each with the event it
# holds: an integer `t`, `found` or `duration_s`, and detail keys in another order.
_ACCEPTED = [
    (_line("FetchAborted", {"found": 0}, t=0), SimEvent(0.0, "FetchAborted", A, A, {"found": 0.0})),
    (_line("MessageChanged", _CHANGED), SimEvent(0.0, "MessageChanged", A, A, _CHANGED)),
    (
        _line("UuidsFetched", _FETCHED, t=2),
        SimEvent(2.0, "UuidsFetched", A, A, {"records": [UUID], "found": 1.0}),
    ),
    # a header with integer numbers, as a hand-written log may hold them
    (
        _line("RunStarted", {**_HEADER.detail, "duration_s": 60, "scanners": {A: 30}}, 0.0, "", ""),
        _HEADER._replace(detail={**_HEADER.detail, "duration_s": 60.0, "scanners": {A: 30}}),
    ),
]


def test_load_log_takes_integer_numbers_and_any_detail_key_order():
    """An integer where the runner writes a float (`t`, `found` and
    `duration_s`) becomes that float; every other value, a scanner's interval
    included, is kept as the line holds it, in the line's key order."""
    for line, event in _ACCEPTED:
        [loaded] = load_log([line])
        assert loaded == event
        assert type(loaded.t) is float
        assert list(loaded.detail.items()) == list(event.detail.items())
        assert [type(value) for value in loaded.detail.values()] == [
            type(value) for value in event.detail.values()
        ]
        if "found" in loaded.detail:
            assert type(loaded.detail["found"]) is float
    # the float is read into a new detail: the caller's keeps its integer
    items = [1.0, "FetchAborted", A, B, {"found": 5}]
    assert SimEvent.from_array(items).detail == {"found": 5.0}
    assert type(items[4]["found"]) is int
