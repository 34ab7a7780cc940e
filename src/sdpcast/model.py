"""The scenario model: devices, timing, scheduled changes and their validation.

Every check on a scenario value lives here, so anything `sim.run` would
reject part-way (over capacity, unknown mode, past the scan budget) is
rejected when the scenario is built, from Python or from a file. Each class
is a frozen dataclass, checked once in `__post_init__`; `dataclasses.replace`
makes a variant and checks it.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, NoReturn

from .errors import InvalidScenario
from .framing import DEFAULT_LIMITS, CapacityLimits, _is_int

RAW = "raw"
FRAMED = "framed"
MODES = (RAW, FRAMED)

_MAC = re.compile(r"(?:[0-9a-f]{2}:){5}[0-9a-f]{2}")

MAX_SEED = 2**64 - 1

# Upper bound on the inquiry scans of one run, summed over devices. The
# built-ins need at most 420; each scan can schedule work for every device
# in range, so this bounds how long a loaded scenario can run.
MAX_SCANS = 10**6


def _is_finite(value: Any) -> bool:
    """True iff `value` is a finite number; False for NaN, infinities, booleans and non-numbers."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _position(value: Any, where: str) -> tuple[float, float]:
    try:
        x, y = value
        if isinstance(value, (list, tuple)) and _is_finite(x) and _is_finite(y):
            return (float(x), float(y))
    except (TypeError, ValueError):
        pass
    raise InvalidScenario(f"{where}: position must be [x, y] of finite numbers, got {value!r}")


def _expect(value: Any, kind: type | tuple[type, ...], where: str, what: str) -> None:
    """Raise InvalidScenario unless `value` is a `kind`; `what` says what was expected."""
    if not isinstance(value, kind):
        raise InvalidScenario(f"{where}: {what}, got {value!r}")


def _check_mode(mode: Any, where: str = "") -> None:
    """Raise InvalidScenario unless `mode` is one of MODES; a `where` prefixes the message."""
    if mode not in MODES:
        where = f"{where}: " if where else ""
        raise InvalidScenario(f"{where}mode must be {RAW!r} or {FRAMED!r}, got {mode!r}")


@dataclass(frozen=True)
class Device:
    """One simulated node; `message`/`mode` describe its initial advertisement.

    `mode` holds from the start of a run, even when `message` is None, so a
    later `set_message` without a mode sends in it. `wellknown_records` are
    the non-payload service UUIDs it also lists, after its payload slots.
    """

    address: str
    position: tuple[float, float] = (0.0, 0.0)
    range_m: float = 10.0
    scan_interval_s: float | None = 30.0
    discoverable: bool = True
    message: bytes | None = None
    mode: str = FRAMED
    wellknown_records: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # Normal forms go in through object.__setattr__ (the class is frozen),
        # which costs more than a type test: a value of the normal type is kept.
        _expect(self.address, str, "device", "address must be a string")
        object.__setattr__(self, "address", self.address.lower())
        if not _MAC.fullmatch(self.address):
            raise InvalidScenario(
                f"device address must be MAC-style aa:bb:cc:dd:ee:ff, got {self.address!r}"
            )
        where = f"device {self.address}"
        object.__setattr__(self, "position", _position(self.position, where))
        _expect(self.discoverable, bool, where, "discoverable must be true or false")
        _expect(self.message, (bytes, type(None)), where, "message must be bytes or null")
        _expect(self.wellknown_records, (list, tuple), where, "wellknown_records must be a list")
        if type(self.wellknown_records) is not tuple:
            object.__setattr__(self, "wellknown_records", tuple(self.wellknown_records))
        for record in self.wellknown_records:
            _expect(record, str, where, "wellknown_records must hold strings")
        if not (_is_finite(self.range_m) and 1.0 <= self.range_m <= 100.0):
            raise InvalidScenario(f"{where}: range_m must be within [1, 100], got {self.range_m!r}")
        if type(self.range_m) is not float:
            object.__setattr__(self, "range_m", float(self.range_m))
        if self.scan_interval_s is not None:
            if not (_is_finite(self.scan_interval_s) and self.scan_interval_s > 0):
                raise InvalidScenario(
                    f"{where}: scan_interval_s must be positive and finite, or null"
                )
            if type(self.scan_interval_s) is not float:
                object.__setattr__(self, "scan_interval_s", float(self.scan_interval_s))
        _check_mode(self.mode, where)


@dataclass(frozen=True)
class TimingModel:
    """Scan and fetch latencies; cached fetches must beat fresh ones."""

    inquiry_duration_s: float = 12.0
    fetch_latency_fresh_s: float = 6.0
    fetch_latency_cached_s: float = 1.5

    def __post_init__(self) -> None:
        for name in ("inquiry_duration_s", "fetch_latency_fresh_s", "fetch_latency_cached_s"):
            value = getattr(self, name)
            if not (_is_finite(value) and value > 0):
                raise InvalidScenario(f"timing: {name} must be positive and finite, got {value!r}")
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        if not self.fetch_latency_cached_s < self.fetch_latency_fresh_s:
            raise InvalidScenario(
                "timing: fetch_latency_cached_s must be smaller than fetch_latency_fresh_s"
            )


DEFAULT_TIMING = TimingModel()

# Each schedule action, the field that holds its value, and the fields it
# does not read, which must be None.
_ACTIONS = dict(
    set_message=("message", ("position", "discoverable")),
    set_position=("position", ("message", "mode", "discoverable")),
    set_discoverable=("discoverable", ("message", "mode", "position")),
)


@dataclass(frozen=True)
class Mutation:
    """One scheduled change to a device while the simulation runs."""

    t: float
    device: str
    action: str
    message: bytes | None = None
    mode: str | None = None
    position: tuple[float, float] | None = None
    discoverable: bool | None = None

    def __post_init__(self) -> None:
        if not _is_finite(self.t):
            raise InvalidScenario(f"schedule: t must be a finite number, got {self.t!r}")
        object.__setattr__(self, "t", float(self.t))
        _expect(self.device, str, "schedule", "device must be a string")
        object.__setattr__(self, "device", self.device.lower())
        _expect(self.message, (bytes, type(None)), "schedule", "message must be bytes or null")
        _expect(
            self.discoverable, (bool, type(None)), "schedule", "discoverable must be a bool or null"
        )
        if self.position is not None:
            object.__setattr__(self, "position", _position(self.position, "schedule"))
        if not isinstance(self.action, str) or self.action not in _ACTIONS:
            raise InvalidScenario(
                f"schedule: unknown action {self.action!r}, expected one of {tuple(_ACTIONS)}"
            )
        value, unused = _ACTIONS[self.action]
        if getattr(self, value) is None:
            raise InvalidScenario(f"schedule: action {self.action!r} is missing its value field")
        for name in unused:
            if getattr(self, name) is not None:
                raise InvalidScenario(f"schedule: action {self.action!r} takes no {name}")
        if self.mode is not None:
            _check_mode(self.mode, "schedule")


@dataclass(frozen=True)
class Scenario:
    """A complete, validated simulation input; `devices` and `schedule` are stored as tuples."""

    devices: tuple[Device, ...]
    duration_s: float
    timing: TimingModel = DEFAULT_TIMING
    limits: CapacityLimits = DEFAULT_LIMITS
    seed: int = 0
    schedule: tuple[Mutation, ...] = ()
    torn_read_mode: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        for name, kind in (("devices", Device), ("schedule", Mutation)):
            items = getattr(self, name)
            if not (isinstance(items, (list, tuple)) and all(isinstance(i, kind) for i in items)):
                raise InvalidScenario(f"scenario: {name} must be a list of {kind.__name__}")
            object.__setattr__(self, name, tuple(items))
        _expect(self.timing, TimingModel, "scenario", "timing must be a TimingModel")
        _expect(self.limits, CapacityLimits, "scenario", "limits must be a CapacityLimits")
        if not (_is_finite(self.duration_s) and self.duration_s > 0):
            raise InvalidScenario(
                f"duration_s must be positive and finite, got {self.duration_s!r}"
            )
        object.__setattr__(self, "duration_s", float(self.duration_s))
        if not (_is_int(self.seed) and 0 <= self.seed <= MAX_SEED):
            raise InvalidScenario(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        _expect(self.torn_read_mode, bool, "scenario", "torn_read_mode must be true or false")
        _expect(self.name, str, "scenario", "name must be a string")
        seen: set[str] = set()
        for dev in self.devices:
            if dev.address in seen:
                raise InvalidScenario(f"duplicate device address {dev.address}")
            seen.add(dev.address)
        # The scanners of one interval S scan together, at the runner's float
        # sums 0.0, S, S + S, ... up to duration_s. The count stops at the
        # budget, which also ends a sum that has stopped growing.
        scanners = Counter(d.scan_interval_s for d in self.devices if d.scan_interval_s is not None)
        scans = 0
        for interval, count in scanners.items():
            t = 0.0
            while t <= self.duration_s:
                scans += count
                if scans > MAX_SCANS:
                    raise InvalidScenario(
                        f"the devices would scan more than the budget of {MAX_SCANS} times"
                    )
                t += interval
        for i, mut in enumerate(self.schedule):
            if not 0 <= mut.t <= self.duration_s:
                raise InvalidScenario(f"schedule[{i}]: t={mut.t} outside [0, {self.duration_s}]")
            if mut.device not in seen:
                raise InvalidScenario(f"schedule[{i}]: unknown device {mut.device!r}")
        self._check_capacity()

    def _check_capacity(self) -> None:
        """Reject any message that `advertise` would refuse during the run.

        A `set_message` without a mode keeps the device's current one, so the
        schedule is walked in the order the run applies it: by time, then index.
        """
        capacity = {FRAMED: self.limits.framed_capacity, RAW: self.limits.outbound_ceiling}
        mode = {dev.address: dev.mode for dev in self.devices}
        for dev in self.devices:
            if dev.message is not None and len(dev.message) > capacity[dev.mode]:
                _reject_message(f"device {dev.address}", dev.message, dev.mode, capacity)
        changes = sorted(
            (m.t, i, m) for i, m in enumerate(self.schedule) if m.action == "set_message"
        )
        for _, i, mut in changes:
            current = mode[mut.device] = mut.mode or mode[mut.device]
            if len(mut.message) > capacity[current]:
                _reject_message(f"schedule[{i}]", mut.message, current, capacity)


def _reject_message(where: str, message: bytes, mode: str, capacity: dict[str, int]) -> NoReturn:
    raise InvalidScenario(
        f"{where}: message is {len(message)} octets, {mode} capacity is {capacity[mode]}"
    )
