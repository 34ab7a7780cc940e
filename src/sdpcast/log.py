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

`_SPECS` is the one statement of the format. A kind's spec lists the keys
its detail holds, in the order an error names them, each with the exact
type the runner writes there and a test of the value, or None.
`_EVENT_SPEC` does the same for the four items before the detail, and the
mode of a MessageReassembled picks one of two specs. `SimEvent.from_array`
is the only reader. A line that fits its spec exactly (`_fits`), as the
runner writes every line, is its event as it is. Any other line walks the
same spec one key at a time (`_from_table`), which also takes an int in
float range where the spec says `float`, and reads it as that float, and a
`str` subclass where it says `str`; the first item or key that fails names
the error. A line that is not an array of five, such as a line of a log
written in the former one-object-per-line form, names the array form. The
one writer is `_ENCODER`'s C encoder, built once (`_iterencode`): every
line, the header included, is exactly what `_ENCODER.encode` writes for
the event's fields as a list. It knows nothing of the format, so a format
change edits `_SPECS` alone.

`Deliveries` is the one rule for what a fetch delivers: the runner logs
MessageReassembled by it, and the report derives every delivery by it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import MalformedLog, ReassemblyError
from .framing import CapacityLimits, raw_read, reassemble
from .model import FRAMED, MODES, RAW, _is_finite

RUN_STARTED = "RunStarted"
FETCH_ABORTED = "FetchAborted"
UUIDS_FETCHED = "UuidsFetched"
MESSAGE_REASSEMBLED = "MessageReassembled"
MESSAGE_CHANGED = "MessageChanged"

# The one writer of every log line and report row: json's C encoder, built
# once from `_ENCODER`'s own settings, where `_ENCODER.encode` builds it anew
# per call. It writes a tuple as an array, as `_ENCODER` does.
_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_iterencode = c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan,
)


class SimEvent(NamedTuple):
    """One log record; serialized as a single JSON line."""

    t: float
    kind: str
    observer: str
    subject: str
    detail: dict[str, Any]

    def to_json(self) -> str:
        """The event as `_ENCODER.encode` writes the list of its five fields."""
        return "".join(_iterencode(self, 0))

    @classmethod
    def from_array(cls, items: Any) -> SimEvent:
        """The event a parsed log line holds; ValueError unless the line is
        an array of five items that walk `_EVENT_SPEC` and whose detail
        walks the spec of its kind. Only an int where a spec says `float`
        is converted."""
        if type(items) is list and len(items) == 5:
            t, kind, observer, subject, detail = items
            # `_EVENT_SPEC` by exact type, inline (a loop over it measured
            # slower), and the detail by `_fits`
            if (
                type(t) is float and -_INF < t < _INF
                and type(kind) is str
                and type(observer) is str
                and type(subject) is str
                and type(detail) is dict
                and (spec := _SPECS.get(kind)) is not None
                and _fits(detail, _by_mode(detail) if spec is _BY_MODE else spec)
            ):
                # tuple.__new__ skips the argument handling of the generated __new__
                return _new(cls, items)
        return _from_table(cls, items)


def _fits(detail: dict, spec: _Spec) -> bool:
    """True iff `detail` holds exactly the keys of `spec`, each with a value
    of its exact type that passes its test."""
    if len(detail) != len(spec):
        return False
    for key, kind, test in spec:
        value = detail.get(key)
        if type(value) is not kind or test is not None and not test(value):
            return False
    return True


def _walk(what: str, obj: dict, spec: _Spec) -> dict[str, float]:
    """Each key of `spec` that `obj` holds as an int where the spec says
    `float`, with that float. ValueError names the first key whose value is
    not of its type, or fails its test: an int in float range passes for a
    `float`, a `str` subclass for a `str`, and any other type must match."""
    read = {}
    for key, kind, test in spec:
        value = obj.get(key)
        new = _as(kind, value)
        if new is _WRONG or test is not None and not test(new):
            raise ValueError(f"{what}: {key!r} is missing or malformed: {value!r}")
        if new is not value:
            read[key] = new
    return read


def _as(kind: type, value: Any) -> Any:
    """`value` read where a spec says `kind`, or `_WRONG`."""
    if type(value) is kind or kind is str and isinstance(value, str):
        return value
    if kind is float and type(value) is int and _is_finite(value):  # False past float range
        return float(value)
    return _WRONG


def _from_table(cls: type[SimEvent], items: Any) -> SimEvent:
    """`SimEvent.from_array` by `_walk`, over the items and then over the
    detail: the first that fails names the error."""
    if not isinstance(items, list) or len(items) != len(SimEvent._fields):
        got = f"an object with keys {list(items)}" if isinstance(items, dict) else repr(items)
        raise ValueError(f"event must be an array {_ARRAY_FORM}, got {got}")
    event = dict(zip(SimEvent._fields, items))
    event.update(_walk("event", event, _EVENT_SPEC))
    kind, detail = event["kind"], event["detail"]
    what = f"{kind} detail"
    if not isinstance(detail, dict):
        raise ValueError(f"{what} must be an object, got {detail!r}")
    spec = _SPECS[kind]
    if spec is _BY_MODE:
        spec = _by_mode(detail)
    if read := _walk(what, detail, spec):
        event["detail"] = {**detail, **read}  # a new dict: the caller's stays as it is
    # Every key walked is present, so a longer object holds another.
    if len(detail) != len(spec):
        known = [key for key, _, _ in spec]
        raise ValueError(f"{what}: unknown keys {[key for key in detail if key not in known]}")
    return _new(cls, event.values())


def _by_mode(detail: dict) -> _Spec:
    """The spec of a reassembly's mode. A detail whose mode is none walks the
    framed spec, which fails at `mode`; `in MODES` compares, so a mode that
    cannot be hashed, such as a list, reaches no lookup."""
    mode = detail.get("mode")
    return _BY_MODE[mode if mode in MODES else FRAMED]


def _is_hex(value: Any) -> bool:
    """True iff `value` is what `bytes.hex` writes: lowercase digits in pairs."""
    return isinstance(value, str) and len(value) % 2 == 0 and _HEX.fullmatch(value) is not None


def _is_limits(value: dict) -> bool:
    """True iff `value` holds exactly the fields of `CapacityLimits`, with values it accepts."""
    if value.keys() != _LIMIT_FIELDS:
        return False
    try:
        CapacityLimits(**value)
    except ValueError:
        return False
    return True


def _are_intervals(scanners: dict) -> bool:
    """True iff each scanner's interval is a positive finite float, or an int that converts to one."""
    return all(type(s) in (float, int) and s > 0 and _is_finite(s) for s in scanners.values())


def _each(test: Callable[[Any], bool]) -> Callable[[list], bool]:
    return lambda items: all(map(test, items))


_new = tuple.__new__
_WRONG = object()
_HEX = re.compile(r"[0-9a-f]*")
_INF = math.inf
_LIMIT_FIELDS = {field.name for field in dataclasses.fields(CapacityLimits)}
_ARRAY_FORM = f"[{', '.join(SimEvent._fields)}]"

# A spec holds, per key in the order an error names them, the exact type
# `_Runner` writes there and a test of the value, or None.
_Spec = tuple[tuple[str, type, Callable[[Any], bool] | None], ...]
_FOUND = ("found", float, math.isfinite)
_GENERATION = ("generation", int, None)
_MODE = ("mode", str, MODES.__contains__)
_MESSAGE = ("message", str, _is_hex)

# What the detail of each kind holds; a reassembly's mode says which of two.
_BY_MODE: dict[str, _Spec] = {
    FRAMED: (_GENERATION, _MODE, _MESSAGE),
    RAW: (_GENERATION, _MODE, ("payloads", list, _each(_is_hex))),
}
_SPECS: dict[str, _Spec | dict[str, _Spec]] = {
    RUN_STARTED: (
        ("duration_s", float, lambda value: 0 < value < _INF),
        ("limits", dict, _is_limits),
        ("scanners", dict, _are_intervals),
    ),
    FETCH_ABORTED: (_FOUND,),
    UUIDS_FETCHED: (_FOUND, ("records", list, _each(str.__instancecheck__))),
    MESSAGE_REASSEMBLED: _BY_MODE,
    MESSAGE_CHANGED: (_GENERATION, _MODE, _MESSAGE),
}
EVENT_KINDS = tuple(_SPECS)
# The items a line holds before its detail, in field order.
_EVENT_SPEC: _Spec = (
    ("t", float, math.isfinite),
    ("kind", str, _SPECS.__contains__),
    ("observer", str, None),
    ("subject", str, None),
)


# The decoder's scanner, which `raw_decode` wraps in a Python frame: it
# raises StopIteration when a line starts with no JSON value.
_scan_once = json.JSONDecoder().scan_once
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
                    obj, end = _scan_once(line, 0)
                except (StopIteration, json.JSONDecodeError):
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
