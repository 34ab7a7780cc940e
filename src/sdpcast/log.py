"""The event log format: one compact JSON object per line.

A line holds `t`, `kind`, `observer`, `subject` and a `detail` object whose
keys depend on the kind. `SimEvent`, an immutable named tuple of those five
fields, is the event a run yields and a log holds: `SimEvent.to_json` writes
it as a line, and `load_log` reads a log back, checking every value against
one table of checks per key and that timestamps never decrease.
"""

from __future__ import annotations

import json
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
        return _ENCODER.encode(
            {
                "t": self.t,
                "kind": self.kind,
                "observer": self.observer,
                "subject": self.subject,
                "detail": self.detail,
            }
        )

    @classmethod
    def from_dict(cls, obj: Any) -> SimEvent:
        """The event a parsed log line holds; ValueError unless each value has
        the JSON type that `_Runner` writes there. Nothing is converted."""
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
