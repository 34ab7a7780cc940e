"""The event log format: one compact JSON array per line.

A line is the array `[t, kind, observer, subject, detail]`: the five fields
of `SimEvent`, in field order, where `detail` is an object whose keys depend
on the kind. `SimEvent`, an immutable named tuple of those fields, is the
event a run yields and a log holds: `SimEvent.to_json` writes it as a line,
and `load_log` reads a log back and checks that timestamps never decrease.
A run's log begins with one RunStarted header, which states what the rest
of the log cannot: the run's duration, its capacity limits and each
scanner's interval. A scanner's rounds follow from the last two. After it,
each discovery is one line, written when its fetch window closes and
holding its `found` time: UuidsFetched with the records the fetch saw, or
FetchAborted when the pair left range. MessageChanged and
MessageReassembled lines stand between them.

One table of checks per field and detail key defines a line.
`SimEvent.from_array` is its only reader: it passes an array of exactly five
items whose detail holds exactly the keys of its kind, each holding a value
of the JSON type the runner writes there, and names the first field or key
that fails otherwise. A line that is not an array of five, such as a line of
a log written in the former one-object-per-line form, names the array form.
A line as the runner writes it after its header first meets one shape test
for its kind, which builds the event when the line passes; the table reads
every other line and alone words an error. The writer formats a detail by
the exact type of each value (an int, a finite float, a plain string or a
list of plain strings) under a key the table checks; any other event, such
as the header, goes through `json`, whose text the writer matches exactly.
A format change edits the table, and the shape test of each kind it
changes.

`Deliveries` is the one rule for what a fetch delivers: the runner logs
MessageReassembled by it, and the report derives every delivery by it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import MalformedLog, ReassemblyError
from .framing import CapacityLimits, raw_read, reassemble
from .model import FRAMED, MODES, RAW, _is_finite

RUN_STARTED = "RunStarted"
FETCH_ABORTED = "FetchAborted"
UUIDS_FETCHED = "UuidsFetched"
MESSAGE_REASSEMBLED = "MessageReassembled"
MESSAGE_CHANGED = "MessageChanged"

EVENT_KINDS = (RUN_STARTED, FETCH_ABORTED, UUIDS_FETCHED, MESSAGE_REASSEMBLED, MESSAGE_CHANGED)

# One encoder for every log line: `json.dumps` with separators builds a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class SimEvent(NamedTuple):
    """One log record; serialized as a single JSON line."""

    t: float
    kind: str
    observer: str
    subject: str
    detail: dict[str, Any]

    def to_json(self) -> str:
        """The event as `_ENCODER` writes the array of its five fields: by
        `_detail_json` when its detail's keys and values allow, else by
        `_ENCODER` itself."""
        t, kind, observer, subject, detail = self
        if (
            type(t) is float and -_INF < t < _INF
            and type(kind) is str and kind in _DETAIL_CHECKS
            and type(observer) is str and _plain(observer)
            and type(subject) is str and _plain(subject)
            and type(detail) is dict
            and (body := _detail_json(detail)) is not None
        ):
            return f'[{t!r},"{kind}","{observer}","{subject}",{body}]'
        return _ENCODER.encode([t, kind, observer, subject, detail])

    @classmethod
    def from_array(cls, items: Any) -> SimEvent:
        """The event a parsed log line holds; ValueError unless the line is
        an array of five items whose detail holds exactly the keys of its
        kind, each with the JSON type that `_Runner` writes there. Only an
        integer `t` is converted."""
        if type(items) is list and len(items) == 5:
            t, kind, observer, subject, detail = items
            if (
                type(t) is float and -_INF < t < _INF
                and type(kind) is str
                and type(observer) is str
                and type(subject) is str
                and type(detail) is dict
                and (shape := _SHAPES.get(kind)) is not None
                and shape(detail)
            ):
                # tuple.__new__ skips the argument handling of the generated __new__
                return _new(cls, items)
        return _from_table(cls, items)


def _from_table(cls: type[SimEvent], items: Any) -> SimEvent:
    """`SimEvent.from_array` by the check table, one item and then one
    detail key at a time: the first that fails names the error."""
    if not isinstance(items, list) or len(items) != len(SimEvent._fields):
        got = f"an object with keys {list(items)}" if isinstance(items, dict) else repr(items)
        raise ValueError(f"event must be an array {_ARRAY_FORM}, got {got}")
    for (key, check), value in zip(_EVENT_CHECKS, items):
        if not check(value):
            raise ValueError(f"event: {key!r} is missing or malformed: {value!r}")
    t, kind, observer, subject, detail = items
    what, checks = _DETAIL_CHECKS[kind]
    if not isinstance(detail, dict):
        raise ValueError(f"{what} must be an object, got {detail!r}")
    if kind == MESSAGE_REASSEMBLED and detail.get("mode") in MODES:
        checks = _REASSEMBLED_CHECKS[detail["mode"]]
    for key, check in checks:
        if not check(value := detail.get(key)):
            raise ValueError(f"{what}: {key!r} is missing or malformed: {value!r}")
    # Every key checked is present, so a longer object holds another.
    if len(detail) != len(checks):
        raise _unknown_keys(what, detail, _keys(checks))
    return _new(cls, (float(t), kind, observer, subject, detail))


_new = tuple.__new__
_Checks = tuple[tuple[str, Callable[[Any], bool]], ...]


def _unknown_keys(what: str, obj: dict, known: tuple[str, ...]) -> ValueError:
    return ValueError(f"{what}: unknown keys {[key for key in obj if key not in known]}")


def _is_json_number(value: Any) -> bool:
    """True iff `value` is a JSON number that is a finite float, or an
    integer that converts to one."""
    if type(value) is float:
        return -_INF < value < _INF
    return type(value) is int and _is_finite(value)  # _is_finite: False past float range


def _is_positive(value: Any) -> bool:
    return _is_json_number(value) and value > 0


def _is_json_int(value: Any) -> bool:
    return type(value) is int


def _is_limits(value: Any) -> bool:
    """True iff `value` holds exactly the fields of `CapacityLimits`, with values it accepts."""
    if type(value) is not dict or value.keys() != _LIMIT_FIELDS:
        return False
    try:
        CapacityLimits(**value)
    except ValueError:
        return False
    return True


def _is_hex(value: Any) -> bool:
    """True iff `value` is what `bytes.hex` writes: lowercase digits in pairs."""
    return isinstance(value, str) and len(value) % 2 == 0 and _HEX.fullmatch(value) is not None


def _is_str_list(value: Any) -> bool:
    return type(value) is list and all(map(str.__instancecheck__, value))


def _is_hex_list(value: Any) -> bool:
    return type(value) is list and all(map(_is_hex, value))


_HEX = re.compile(r"[0-9a-f]*")
_INF = math.inf
_LIMIT_FIELDS = {field.name for field in dataclasses.fields(CapacityLimits)}

# One check per key that a log line or its detail holds: each passes exactly
# the JSON values that `_Runner` writes there.
_KEY_CHECKS: dict[str, Callable[[Any], bool]] = {
    "t": _is_json_number,
    "kind": EVENT_KINDS.__contains__,
    "observer": str.__instancecheck__,
    "subject": str.__instancecheck__,
    "duration_s": _is_positive,
    "limits": _is_limits,
    "scanners": lambda value: type(value) is dict and all(map(_is_positive, value.values())),
    "found": _is_json_number,
    "records": _is_str_list,
    "generation": _is_json_int,
    "mode": MODES.__contains__,
    "message": _is_hex,
    "payloads": _is_hex_list,
}


def _checks(*keys: str) -> _Checks:
    return tuple((key, _KEY_CHECKS[key]) for key in keys)


def _keys(checks: _Checks) -> tuple[str, ...]:
    return tuple(key for key, _ in checks)


# The checks of the items a line holds before its detail, in field order,
# and, with the name its errors give the detail, of what the detail of each
# kind holds. The mode of a reassembly, once checked, says what else its
# detail holds.
_EVENT_CHECKS = _checks(*SimEvent._fields[:-1])
_ARRAY_FORM = f"[{', '.join(SimEvent._fields)}]"
_DETAIL_CHECKS = {
    kind: (f"{kind} detail", _checks(*keys))
    for kind, keys in (
        (RUN_STARTED, ("duration_s", "limits", "scanners")),
        (FETCH_ABORTED, ("found",)),
        (UUIDS_FETCHED, ("found", "records")),
        (MESSAGE_REASSEMBLED, ("generation", "mode")),
        (MESSAGE_CHANGED, ("generation", "mode", "message")),
    )
}
_REASSEMBLED_CHECKS = {
    mode: _DETAIL_CHECKS[MESSAGE_REASSEMBLED][1] + _checks(key)
    for mode, key in ((FRAMED, "message"), (RAW, "payloads"))
}


# The shape test of each kind but the header's: true iff a detail holds
# exactly the keys of its kind, each with a value of the exact type `_Runner`
# writes there. It passes only details the table passes: the table also takes
# a `str` subclass, say, and words the error for what neither takes.
# `tests/test_oracles.py` holds each test to the table.
def _aborted_shape(detail: dict) -> bool:
    return (
        len(detail) == 1
        and type(found := detail.get("found")) is float and -_INF < found < _INF
    )


def _fetched_shape(detail: dict) -> bool:
    return (
        len(detail) == 2
        and type(found := detail.get("found")) is float and -_INF < found < _INF
        and _is_str_list(detail.get("records"))
    )


def _reassembled_shape(detail: dict) -> bool:
    mode = detail.get("mode")
    if len(detail) != 3 or type(detail.get("generation")) is not int or type(mode) is not str:
        return False
    if mode == FRAMED:
        return _is_hex(detail.get("message"))
    return mode == RAW and _is_hex_list(detail.get("payloads"))


def _changed_shape(detail: dict) -> bool:
    return (
        len(detail) == 3
        and type(detail.get("generation")) is int
        and type(mode := detail.get("mode")) is str and mode in MODES
        and _is_hex(detail.get("message"))
    )


_SHAPES: dict[str, Callable[[dict], bool]] = {
    FETCH_ABORTED: _aborted_shape,
    UUIDS_FETCHED: _fetched_shape,
    MESSAGE_REASSEMBLED: _reassembled_shape,
    MESSAGE_CHANGED: _changed_shape,
}


def _plain(text: str) -> bool:
    """True iff json writes the string `text` as it is between two quotes."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _plain_list(items: Any) -> str | None:
    """A list of `_plain` strings as json writes it, or None."""
    if type(items) is not list:
        return None
    if not items:
        return "[]"
    try:
        body = '","'.join(items)  # json, too, writes a str subclass as its text
    except TypeError:  # an item that is not a string
        return None
    # the separators hold all the quotes iff no item holds one
    if body.isascii() and body.isprintable() and "\\" not in body and (
        body.count('"') == 2 * len(items) - 2
    ):
        return f'["{body}"]'
    return None


# Each key the reader checks, as `_ENCODER` writes it before a value. A
# detail key that is not here goes through `_ENCODER`, so the check table
# also bounds what the writer formats.
_KEY_HEADS = {key: f'"{key}":' for key in _KEY_CHECKS}


def _detail_json(detail: dict) -> str | None:
    """`detail` as `_ENCODER` writes it, or None unless each key is in
    `_KEY_HEADS` and each value is an int, a finite float, a `_plain` str or
    a list of such strings, by exact type: a subclass such as bool may format
    otherwise than json."""
    heads, body = _KEY_HEADS, []
    for key, value in detail.items():
        if key not in heads:
            return None
        kind = type(value)
        if kind is int:
            body.append(f"{heads[key]}{value}")
        elif kind is float and -_INF < value < _INF:  # json writes float.__repr__
            body.append(f"{heads[key]}{value!r}")
        elif kind is str and _plain(value):
            body.append(f'{heads[key]}"{value}"')
        elif (text := _plain_list(value)) is not None:
            body.append(heads[key] + text)
        else:
            return None
    return "{" + ",".join(body) + "}"


_raw_decode = json.JSONDecoder().raw_decode
# The whitespace JSON allows around a value; `str.strip()` would also strip
# Unicode spaces and separators, which json.loads rejects.
_JSON_SPACE = " \t\n\r"


def load_log(lines: Iterable[str]) -> Iterator[SimEvent]:
    """Yield the events of a line-delimited event log, one line at a time.

    The returned iterator is one-shot and reads `lines` only as it is
    consumed, so consume it inside the `with` that opened the file. It
    raises MalformedLog, with the line number, when it reaches a bad line,
    and when `lines` cannot be decoded. A line fails with the error that
    `json.loads` gives it, or else with the error of `SimEvent.from_array`.
    """
    from_array = SimEvent.from_array
    last_t = -_INF
    lineno = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            if not isinstance(line, str):  # json.loads would also take bytes
                raise MalformedLog(
                    f"line {lineno}: a log line must be text, got {type(line).__name__}"
                )
            line = line.strip(_JSON_SPACE)
            if not line:
                continue
            try:
                try:
                    obj, end = _raw_decode(line)
                except json.JSONDecodeError:
                    end = 0
                if end != len(line):
                    # not one JSON value: raise the error json.loads words for
                    # it, such as a byte order mark or extra data
                    json.loads(line)
                event = from_array(obj)
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                raise MalformedLog(f"line {lineno}: {exc}") from None
            if event.t < last_t:
                raise MalformedLog(
                    f"line {lineno}: timestamp decreases ({event.t} after {last_t})"
                )
            last_t = event.t
            yield event
    except UnicodeDecodeError as exc:
        # A text file decodes a chunk of lines at a time, so the bad byte may
        # sit on any line from the next one on.
        bad = exc.object[exc.start:exc.end]
        raise MalformedLog(
            f"line {lineno + 1} or later: not UTF-8 ({bad!r}: {exc.reason})"
        ) from None


class Deliveries:
    """The delivery rule: what a fetch reassembles to, and when its pair logs it.

    A fetch reassembles in the mode of its subject's latest MessageChanged: to
    the message hex when framed, to the sorted payload hex when raw, or to
    nothing. A pair logs a MessageReassembled only when its (generation, mode,
    outcome) differs from the pair's last one. Most fetches see their subject's
    previous snapshot reordered, so each subject keeps its latest by sorted
    records: one entry per device, and one per pair, whatever the run length.
    """

    __slots__ = ("subjects", "pairs")

    def __init__(self) -> None:
        # subject -> [generation, mode, sorted records or None, payload count, outcome]
        self.subjects: dict[str, list] = {}
        # (observer, subject) of every fetch so far -> the (generation, mode,
        # outcome) of the pair's last MessageReassembled, or None before its first
        self.pairs: dict[tuple[str, str], tuple[int, str, Any] | None] = {}

    def changed(self, subject: str, generation: int, mode: str) -> None:
        self.subjects[subject] = [generation, mode, None, 0, None]

    def fetched(self, observer: str, subject: str, records: list[str]) -> tuple[int, dict | None]:
        """The payload records of a fetch of `records`, in any order, and the
        detail of the MessageReassembled it implies, or None."""
        pair = (observer, subject)
        last = self.pairs.setdefault(pair, None)
        key = sorted(records)
        entry = self.subjects.get(subject)
        if entry is None:  # a subject that never advertised
            entry = self.subjects[subject] = [0, None, None, 0, None]
        generation, mode, seen, count, outcome = entry
        if seen != key:
            payloads = raw_read(key)
            count, outcome = len(payloads), None
            if mode == FRAMED:
                try:
                    outcome = reassemble(payloads).hex()
                except ReassemblyError:
                    pass  # torn or truncated; a later fetch will retry
            elif mode == RAW:
                outcome = sorted(p.hex() for p in payloads) or None
            entry[2:] = key, count, outcome
        if outcome is None or (line := (generation, mode, outcome)) == last:
            return count, None
        self.pairs[pair] = line
        if mode == FRAMED:
            return count, {"generation": generation, "mode": FRAMED, "message": outcome}
        # a list of its own per event, so no consumer can change the memo's
        return count, {"generation": generation, "mode": RAW, "payloads": list(outcome)}
