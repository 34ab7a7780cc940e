"""Scenario files and the built-in scenarios, committed as frozen fixtures.

A scenario file is the JSON form of the scenario dataclasses: one key per
constructor field, derived from the fields themselves, so the file format
and the classes cannot drift apart. Every check on a value lives in the
dataclasses, so a file and a scenario built in Python meet the same rules.

Each builder returns a fully specified Scenario whose JSON form is
byte-for-byte reproducible, so downstream numbers cannot drift silently.
Coordinates are literals, not runtime trigonometry, for the same reason.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

from .errors import InvalidScenario, UnknownScenario
from .framing import CapacityLimits
from .model import FRAMED, Device, Mutation, Scenario, TimingModel

WELLKNOWN_SPP = "00001101-0000-1000-8000-00805f9b34fb"


def two_device_default() -> Scenario:
    """Two scanners 5 m apart exchanging framed messages, with mid-run changes.

    Under default timing the message at t = 0 arrives within inquiry (12) +
    fresh fetch (6) = 18 s, and a later change within scan_interval (30) +
    inquiry (12) = 42 s, so every change lands inside the one-minute
    envelope on every seed (README, "Latency and bandwidth").
    """
    return Scenario(
        name="two-device-default",
        duration_s=300.0,
        seed=0,
        devices=[
            Device(
                address="aa:00:00:00:00:01",
                position=(0.0, 0.0),
                range_m=10.0,
                scan_interval_s=30.0,
                message=b"hello from device a",
                mode=FRAMED,
            ),
            Device(
                address="aa:00:00:00:00:02",
                position=(5.0, 0.0),
                range_m=10.0,
                scan_interval_s=30.0,
                message=b"hello from device b",
                mode=FRAMED,
            ),
        ],
        schedule=[
            Mutation(t=95.0, device="aa:00:00:00:00:01", action="set_message",
                     message=b"device a, second message"),
            Mutation(t=130.0, device="aa:00:00:00:00:02", action="set_message",
                     message=b"device b, second message"),
            Mutation(t=185.0, device="aa:00:00:00:00:01", action="set_message",
                     message=b"device a, third message"),
        ],
    )


def out_of_range() -> Scenario:
    """Two advertisers 200 m apart; the disc model keeps them invisible."""
    return Scenario(
        name="out-of-range",
        duration_s=300.0,
        seed=0,
        devices=[
            Device(
                address="aa:00:00:00:00:01",
                position=(0.0, 0.0),
                range_m=100.0,
                scan_interval_s=30.0,
                message=b"unreachable payload a",
                mode=FRAMED,
            ),
            Device(
                address="aa:00:00:00:00:02",
                position=(200.0, 0.0),
                range_m=100.0,
                scan_interval_s=30.0,
                message=b"unreachable payload b",
                mode=FRAMED,
            ),
        ],
    )


# 20 points on a radius-8 ring inside a 20 m disc; max pairwise distance
# is 16 m, under the shared 20 m range, so the in_range graph is complete.
_CROWD_RING: tuple[tuple[float, float], ...] = (
    (8.0, 0.0), (7.608452, 2.472136), (6.472136, 4.702282), (4.702282, 6.472136),
    (2.472136, 7.608452), (0.0, 8.0), (-2.472136, 7.608452), (-4.702282, 6.472136),
    (-6.472136, 4.702282), (-7.608452, 2.472136), (-8.0, 0.0), (-7.608452, -2.472136),
    (-6.472136, -4.702282), (-4.702282, -6.472136), (-2.472136, -7.608452), (0.0, -8.0),
    (2.472136, -7.608452), (4.702282, -6.472136), (6.472136, -4.702282), (7.608452, -2.472136),
)


def crowd_20() -> Scenario:
    """Twenty mutually reachable devices, each advertising its own message."""
    devices = [
        Device(
            address=f"aa:00:00:00:01:{k:02x}",
            position=_CROWD_RING[k],
            range_m=20.0,
            scan_interval_s=30.0,
            message=f"crowd member {k:02d} says hi".encode(),
            mode=FRAMED,
            wellknown_records=(WELLKNOWN_SPP,),
        )
        for k in range(20)
    ]
    return Scenario(name="crowd-20", duration_s=600.0, seed=0, devices=devices)


def torn_read() -> Scenario:
    """A message change guaranteed to land inside one fetch window.

    The observer scans every 30 s; fetch latencies are 26 s fresh and 25 s
    cached.  The round-1 fetch starts in [30, 42) and completes in [55, 67),
    so the change at t=50 falls strictly inside that window on every seed:
    the snapshot mixes a 7-chunk generation with a 6-chunk one, which the
    framing checks must reject.  Rounds 0 and 2 read clean generations.
    """
    old_message = b"old generation: " + b"x" * 66  # 82 octets -> 7 chunks
    new_message = b"new generation: " + b"y" * 48  # 64 octets -> 6 chunks
    return Scenario(
        name="torn-read",
        duration_s=150.0,
        seed=0,
        torn_read_mode=True,
        timing=TimingModel(
            inquiry_duration_s=12.0,
            fetch_latency_fresh_s=26.0,
            fetch_latency_cached_s=25.0,
        ),
        devices=[
            Device(
                address="aa:00:00:00:00:01",
                position=(0.0, 0.0),
                range_m=10.0,
                scan_interval_s=None,
                message=old_message,
                mode=FRAMED,
            ),
            Device(
                address="aa:00:00:00:00:02",
                position=(5.0, 0.0),
                range_m=10.0,
                scan_interval_s=30.0,
            ),
        ],
        schedule=[
            Mutation(t=50.0, device="aa:00:00:00:00:01", action="set_message",
                     message=new_message),
        ],
    )


BUILTIN_SCENARIOS = {
    "two-device-default": two_device_default,
    "crowd-20": crowd_20,
    "out-of-range": out_of_range,
    "torn-read": torn_read,
}


def scenario_gen(name: str) -> Scenario:
    """Build a named built-in scenario; raises UnknownScenario otherwise."""
    try:
        builder = BUILTIN_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise UnknownScenario(f"unknown scenario {name!r}; built-ins are: {known}") from None
    return builder()


# -- scenario files -----------------------------------------------------------

# Fields whose JSON form is not the value itself: an object of a class, a
# list of objects of a class, or a hex string. Tuples are written as lists.
# A field name means the same in every class that has it.
_NESTED: dict[str, Any] = {
    "timing": TimingModel,
    "limits": CapacityLimits,
    "devices": [Device],
    "schedule": [Mutation],
    "message": bytes,
}
_CLASSES = (Scenario, Device, Mutation, TimingModel, CapacityLimits)


class _Schema(NamedTuple):
    """One class's file form, taken from its dataclass fields."""

    keys: frozenset[str]
    required: frozenset[str]
    heads: tuple[tuple[str, str], ...]  # (name, '"name": ') by sorted name
    nested: tuple[tuple[str, Any], ...]  # (name, kind) of its `_NESTED` fields, in that order


def _schema(cls: type) -> _Schema:
    keys = frozenset(f.name for f in fields(cls))
    return _Schema(
        keys=keys,
        required=frozenset(
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
        ),
        heads=tuple((name, encode_basestring_ascii(name) + ": ") for name in sorted(keys)),
        nested=tuple((name, kind) for name, kind in _NESTED.items() if name in keys),
    )


_SCHEMAS = {cls: _schema(cls) for cls in _CLASSES}
# json's spelling of the floats whose repr is not a JSON number
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(value: Any, out: list[str], newline: str) -> None:
    """Append `value` to `out` as `json.dumps(..., indent=2, sort_keys=True)` writes it.

    A scenario object is written as an object of its fields and bytes as a
    hex string; the other leaves are tested in the order json tests them.
    `newline` is the line break and indent of the line `value` starts on.
    """
    schema = _SCHEMAS.get(type(value))
    if schema is not None:
        inner = newline + "  "
        separator = "{" + inner
        for name, head in schema.heads:
            out.append(separator + head)
            _write(getattr(value, name), out, inner)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, bytes):
        out.append(f'"{value.hex()}"')
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _load(cls: type, obj: Any, where: str) -> Any:
    """Build `cls` from a parsed JSON object, converting its nested fields in place."""
    schema = _SCHEMAS[cls]
    if not isinstance(obj, dict):
        raise InvalidScenario(f"{where} must be a JSON object, got {obj!r}")
    if not obj.keys() <= schema.keys:
        raise InvalidScenario(f"{where}: unknown keys {sorted(obj.keys() - schema.keys)}")
    if not schema.required <= obj.keys():
        raise InvalidScenario(f"{where}: missing keys {sorted(schema.required - obj.keys())}")
    for name, kind in schema.nested:
        if name not in obj:
            continue
        value = obj[name]
        if kind is bytes:
            if value is not None:
                try:
                    obj[name] = bytes.fromhex(value)
                except (TypeError, ValueError):
                    raise InvalidScenario(
                        f"{where}.{name} must be a hex string or null, got {value!r}"
                    ) from None
        elif isinstance(kind, list):
            if not isinstance(value, list):
                raise InvalidScenario(f"{where}.{name} must be a JSON array, got {value!r}")
            obj[name] = [
                _load(kind[0], item, f"{where}.{name}[{i}]") for i, item in enumerate(value)
            ]
        else:
            obj[name] = _load(kind, value, f"{where}.{name}")
    try:
        return cls(**obj)
    except ValueError as exc:  # CapacityLimits reports its checks as ValueError
        raise InvalidScenario(f"{where}: {exc}") from None


def scenario_to_json(sc: Scenario) -> str:
    """Serialize a scenario to byte-stable JSON: the text of
    `json.dumps(..., indent=2, sort_keys=True)` and a final newline."""
    out: list[str] = []
    _write(sc, out, "\n")
    out.append("\n")
    return "".join(out)


def scenario_from_json(text: str) -> Scenario:
    """Parse and validate a scenario file; raises InvalidScenario with a diagnosis."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidScenario(f"scenario is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise InvalidScenario(f"scenario cannot be read: {exc}") from None
    except RecursionError:
        raise InvalidScenario("scenario is nested deeper than the recursion limit") from None
    return _load(Scenario, obj, "scenario")


def load_scenario(path: str) -> Scenario:
    """Read a scenario file from disk; it must be UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = data[exc.start:exc.end]
        raise InvalidScenario(
            f"scenario is not UTF-8 at octet {exc.start} ({bad!r}: {exc.reason})"
        ) from None
    return scenario_from_json(text)
