"""The event log format: one compact JSON object per line.

A line holds `t`, `kind`, `observer`, `subject` and a `detail` object whose
keys depend on the kind. `SimEvent.to_json` writes a line; `load_log` reads
a log back, checks every value and that timestamps never decrease.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

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


@dataclass(frozen=True)
class SimEvent:
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
        _check("event", obj, _EVENT_CHECKS)
        kind, detail = obj["kind"], obj.get("detail")
        _check(f"{kind} detail", detail, _DETAIL_CHECKS[kind])
        if kind == MESSAGE_REASSEMBLED:  # its mode, checked above, says what else it holds
            _check(f"{kind} detail", detail, _REASSEMBLED_BODY[detail["mode"]])
        return cls(float(obj["t"]), kind, obj["observer"], obj["subject"], detail)


def _check(what: str, obj: Any, checks: dict[str, Callable[[Any], bool]]) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    for key, check in checks.items():
        if not check(obj.get(key)):
            raise ValueError(f"{what}: {key!r} is missing or malformed: {obj.get(key)!r}")


def _is_a(kind: type) -> Callable[[Any], bool]:
    return lambda value: isinstance(value, kind)


def _is_hex(value: Any) -> bool:
    """True iff `value` is what `bytes.hex` writes: lowercase digits in pairs."""
    return isinstance(value, str) and len(value) % 2 == 0 and _HEX.fullmatch(value) is not None


_HEX = re.compile(r"[0-9a-f]*")

# One check per key of a log line, of the detail of each kind of event, and
# of what a reassembly holds in its mode: each passes exactly the JSON values
# that `_Runner` writes there.
_EVENT_CHECKS: dict[str, Callable[[Any], bool]] = {
    "t": _is_finite,
    "kind": lambda value: value in EVENT_KINDS,
    "observer": _is_a(str),
    "subject": _is_a(str),
}
_MESSAGE_CHECKS = {"generation": _is_int, "mode": lambda value: value in MODES}
_DETAIL_CHECKS = {
    SCAN_STARTED: {"round": _is_int},
    DEVICE_FOUND: {"round": _is_int},
    UUIDS_FETCHED: {
        "round": _is_int,
        "cached": _is_a(bool),
        "delay": _is_finite,
        "records": lambda value: isinstance(value, list) and all(isinstance(r, str) for r in value),
    },
    MESSAGE_REASSEMBLED: _MESSAGE_CHECKS,
    MESSAGE_CHANGED: {**_MESSAGE_CHECKS, "slots": _is_int, "message": _is_hex},
}
_REASSEMBLED_BODY = {
    FRAMED: {"message": _is_hex},
    RAW: {"payloads": lambda value: isinstance(value, list) and all(map(_is_hex, value))},
}


def load_log(lines: Iterable[str]) -> Iterator[SimEvent]:
    """Yield the events of a line-delimited event log, one line at a time.

    The returned iterator is one-shot and reads `lines` only as it is
    consumed, so consume it inside the `with` that opened the file. It
    raises MalformedLog, with the line number, when it reaches a bad line.
    """
    last_t = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            event = SimEvent.from_dict(obj)
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise MalformedLog(f"line {lineno}: {exc}") from None
        if last_t is not None and event.t < last_t:
            raise MalformedLog(f"line {lineno}: timestamp decreases ({event.t} after {last_t})")
        last_t = event.t
        yield event
