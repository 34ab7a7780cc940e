"""The event log format: one compact JSON object per line.

A line holds `t`, `kind`, `observer`, `subject` and a `detail` object whose
keys depend on the kind. `SimEvent`, an immutable named tuple of those five
fields, is the event a run yields and a log holds: `SimEvent.to_json` writes
it as a line, and `load_log` reads a log back, checking every value against
one table of checks per key and that timestamps never decrease.

Both directions first try the fixed shape of each detail that `_Runner`
writes: a hand-written template writes a line whose values all have their
exact types, and a line read back with exactly the keys and value types of
its kind skips the table. Anything else goes through `json` and the table,
which stay the definition of a line: the fast paths give the same text, the
same events and the same errors.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import MalformedLog
from .framing import _is_int
from .model import FRAMED, MODES, RAW, _is_finite

SCAN_STARTED = "ScanStarted"
DEVICE_FOUND = "DeviceFound"
UUIDS_FETCHED = "UuidsFetched"
MESSAGE_REASSEMBLED = "MessageReassembled"
MESSAGE_CHANGED = "MessageChanged"

EVENT_KINDS = (SCAN_STARTED, DEVICE_FOUND, UUIDS_FETCHED, MESSAGE_REASSEMBLED, MESSAGE_CHANGED)

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
        """The event as `_ENCODER` writes it: by its detail's template when
        every value fits one, else by `_ENCODER` itself."""
        t, kind, observer, subject, detail = self
        if (
            type(t) is float and -_INF < t < _INF
            and type(kind) is str and kind in _KINDS
            and type(observer) is str and _plain(observer)
            and type(subject) is str and _plain(subject)
            and type(detail) is dict
        ):
            template = _TEMPLATES.get(tuple(detail))
            if template is not None:
                body = template(*detail.values())
                if body is not None:
                    return (
                        f'{{"t":{t!r},"kind":"{kind}","observer":"{observer}",'
                        f'"subject":"{subject}","detail":{body}}}'
                    )
        return _ENCODER.encode(
            {"t": t, "kind": kind, "observer": observer, "subject": subject, "detail": detail}
        )

    @classmethod
    def from_dict(cls, obj: Any) -> SimEvent:
        """The event a parsed log line holds; ValueError unless each value has
        the JSON type that `_Runner` writes there. Nothing is converted.
        A line of a fixed shape skips the table, which checks any other."""
        if type(obj) is dict and tuple(obj) == _LINE_KEYS:
            t, kind, observer, subject, detail = obj.values()
            if (
                type(t) is float and -_INF < t < _INF
                and type(kind) is str and type(observer) is str and type(subject) is str
                and type(detail) is dict
            ):
                shape = _SHAPES.get((kind, tuple(detail)))
                if shape is not None and shape(*detail.values()):
                    return cls(t, kind, observer, subject, detail)
        return _from_table(cls, obj)


def _from_table(cls: type[SimEvent], obj: Any) -> SimEvent:
    """`SimEvent.from_dict` by the table of checks alone: the path of every
    line off a fixed shape, and the oracle its tests hold the shapes to."""
    _check(obj, *_EVENT_CHECKS)
    kind, detail = obj["kind"], obj.get("detail")
    what, checks = _DETAIL_CHECKS[kind]
    _check(detail, what, checks)
    if kind == MESSAGE_REASSEMBLED:  # its mode, checked above, says what else it holds
        _check(detail, what, _REASSEMBLED_BODY[detail["mode"]])
    return cls(float(obj["t"]), kind, obj["observer"], obj["subject"], detail)


_Checks = tuple[tuple[str, Callable[[Any], bool]], ...]


def _check(obj: Any, what: str, checks: _Checks) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    for key, check in checks:
        if not check(obj.get(key)):
            raise ValueError(f"{what}: {key!r} is missing or malformed: {obj.get(key)!r}")


def _is_hex(value: Any) -> bool:
    """True iff `value` is what `bytes.hex` writes: lowercase digits in pairs."""
    return isinstance(value, str) and len(value) % 2 == 0 and _HEX.fullmatch(value) is not None


_HEX = re.compile(r"[0-9a-f]*")

# One check per key that a log line or its detail holds: each passes exactly
# the JSON values that `_Runner` writes there.
_KEY_CHECKS: dict[str, Callable[[Any], bool]] = {
    "t": _is_finite,
    "kind": EVENT_KINDS.__contains__,
    "observer": str.__instancecheck__,
    "subject": str.__instancecheck__,
    "round": _is_int,
    "cached": bool.__instancecheck__,
    "delay": _is_finite,
    "records": lambda value: isinstance(value, list) and all(map(str.__instancecheck__, value)),
    "generation": _is_int,
    "mode": MODES.__contains__,
    "slots": _is_int,
    "message": _is_hex,
    "payloads": lambda value: isinstance(value, list) and all(map(_is_hex, value)),
}


def _checks(*keys: str) -> _Checks:
    return tuple((key, _KEY_CHECKS[key]) for key in keys)


# What a line holds, what the detail of each kind holds, and what else a
# reassembly holds in its mode; each with the name its errors give the object.
_EVENT_CHECKS = ("event", _checks("t", "kind", "observer", "subject"))
_DETAIL_CHECKS = {
    kind: (f"{kind} detail", _checks(*keys))
    for kind, keys in (
        (SCAN_STARTED, ("round",)),
        (DEVICE_FOUND, ("round",)),
        (UUIDS_FETCHED, ("round", "cached", "delay", "records")),
        (MESSAGE_REASSEMBLED, ("generation", "mode")),
        (MESSAGE_CHANGED, ("generation", "mode", "slots", "message")),
    )
}
_REASSEMBLED_BODY = {FRAMED: _checks("message"), RAW: _checks("payloads")}

# The fixed shapes: for each detail `_Runner` writes, a writer template and
# a reader shape, both taking the detail's values in the order of its keys.
# A template returns the detail as `_ENCODER` writes it, or None unless
# every value has its exact type (a subclass such as bool or IntEnum may
# format otherwise than json writes it), every float is finite and every
# string is `_plain`. A shape passes a subset of what the table passes:
# exact types, then the table's own check of what a type cannot say.
_INF = math.inf
_LINE_KEYS = ("t", "kind", "observer", "subject", "detail")
_KINDS = frozenset(EVENT_KINDS)


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


def _round_json(rnd: Any) -> str | None:
    if type(rnd) is int:
        return f'{{"round":{rnd}}}'
    return None


def _fetched_json(rnd: Any, cached: Any, delay: Any, records: Any) -> str | None:
    if type(rnd) is int and type(cached) is bool and type(delay) is float and -_INF < delay < _INF:
        records_json = _plain_list(records)
        if records_json is not None:
            cached_json = "true" if cached else "false"
            return (
                f'{{"round":{rnd},"cached":{cached_json},"delay":{delay!r},'
                f'"records":{records_json}}}'
            )
    return None


def _framed_json(generation: Any, mode: Any, message: Any) -> str | None:
    if (
        type(generation) is int
        and type(mode) is str and _plain(mode)
        and type(message) is str and _plain(message)
    ):
        return f'{{"generation":{generation},"mode":"{mode}","message":"{message}"}}'
    return None


def _raw_json(generation: Any, mode: Any, payloads: Any) -> str | None:
    if type(generation) is int and type(mode) is str and _plain(mode):
        payloads_json = _plain_list(payloads)
        if payloads_json is not None:
            return f'{{"generation":{generation},"mode":"{mode}","payloads":{payloads_json}}}'
    return None


def _changed_json(generation: Any, mode: Any, slots: Any, message: Any) -> str | None:
    if (
        type(generation) is int
        and type(mode) is str and _plain(mode)
        and type(slots) is int
        and type(message) is str and _plain(message)
    ):
        return (
            f'{{"generation":{generation},"mode":"{mode}","slots":{slots},'
            f'"message":"{message}"}}'
        )
    return None


def _round_shape(rnd: Any) -> bool:
    return type(rnd) is int


def _fetched_shape(rnd: Any, cached: Any, delay: Any, records: Any) -> bool:
    return (
        type(rnd) is int and type(cached) is bool and type(delay) is float and -_INF < delay < _INF
        and type(records) is list and all(map(str.__instancecheck__, records))
    )


def _framed_shape(generation: Any, mode: Any, message: Any) -> bool:
    return type(generation) is int and mode == FRAMED and _is_hex(message)


def _raw_shape(generation: Any, mode: Any, payloads: Any) -> bool:
    return (
        type(generation) is int and mode == RAW
        and type(payloads) is list and all(map(_is_hex, payloads))
    )


def _changed_shape(generation: Any, mode: Any, slots: Any, message: Any) -> bool:
    return type(generation) is int and mode in MODES and type(slots) is int and _is_hex(message)


def _detail_keys(kind: str, mode: str | None = None) -> tuple[str, ...]:
    """The keys, in order, of a `kind` detail (in `mode`, for a reassembly)."""
    checks = _DETAIL_CHECKS[kind][1] + (_REASSEMBLED_BODY[mode] if mode else ())
    return tuple(key for key, _ in checks)


# (kind, mode of a reassembly, writer template, reader shape)
_FIXED_SHAPES = (
    (SCAN_STARTED, None, _round_json, _round_shape),
    (DEVICE_FOUND, None, _round_json, _round_shape),
    (UUIDS_FETCHED, None, _fetched_json, _fetched_shape),
    (MESSAGE_REASSEMBLED, FRAMED, _framed_json, _framed_shape),
    (MESSAGE_REASSEMBLED, RAW, _raw_json, _raw_shape),
    (MESSAGE_CHANGED, None, _changed_json, _changed_shape),
)
# A template depends only on the keys; a shape also on the kind.
_TEMPLATES = {_detail_keys(kind, mode): template for kind, mode, template, _ in _FIXED_SHAPES}
_SHAPES = {(kind, _detail_keys(kind, mode)): shape for kind, mode, _, shape in _FIXED_SHAPES}

_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = re.compile(r"[ \t\n\r]*")  # the whitespace JSON allows between tokens


def _parse(line: str) -> Any:
    """`json.loads(line)` for a line with no surrounding whitespace, with the
    same errors but without its two whitespace scans."""
    try:
        obj, end = _raw_decode(line)
    except TypeError:  # json.loads would also take bytes; a log is read as text
        raise ValueError(f"a log line must be text, got {type(line).__name__}") from None
    except json.JSONDecodeError:
        if not line.startswith("\ufeff"):
            raise
        # json.loads names a leading byte order mark before it decodes
        bom = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
        raise json.JSONDecodeError(bom, line, 0) from None
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, _JSON_SPACE.match(line, end).end())
    return obj


def load_log(lines: Iterable[str]) -> Iterator[SimEvent]:
    """Yield the events of a line-delimited event log, one line at a time.

    The returned iterator is one-shot and reads `lines` only as it is
    consumed, so consume it inside the `with` that opened the file. It
    raises MalformedLog, with the line number, when it reaches a bad line,
    and when `lines` cannot be decoded.
    """
    last_t = None
    lineno = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = SimEvent.from_dict(_parse(line))
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                raise MalformedLog(f"line {lineno}: {exc}") from None
            if last_t is not None and event.t < last_t:
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
