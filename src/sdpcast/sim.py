"""Deterministic discrete-event simulation of the discovery pipeline.

Virtual devices sit on a plane, advertise payload UUIDs through their service
tables, and run periodic inquiry scans.  A scan finds every discoverable
device inside radio range (symmetric disc model, min of the two ranges);
each found device is fetched after a fixed latency, longer for the first
encounter than for later ones, and the fetched records are decoded and
reassembled.  Everything is driven by one seeded RNG, so a (scenario, seed)
pair always produces a bit-identical event log.  `run` yields that log as it
is produced, so a run holds its devices and pending actions, never its log.

Torn reads are opt-in: when a message change lands strictly inside a fetch
window, the snapshot mixes a prefix of the old generation's slots with a
suffix of the new one's, which is what the framing layer's consistency
checks exist to catch.
"""

from __future__ import annotations

import copy
import dataclasses
import heapq
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NoReturn

from .codec import encode
from .errors import InvalidScenario, MessageTooLong, OutOfRange, ReassemblyError
from .framing import DEFAULT_LIMITS, CapacityLimits, frame, raw_payloads, raw_read, reassemble

RAW = "raw"
FRAMED = "framed"

SCAN_STARTED = "ScanStarted"
DEVICE_FOUND = "DeviceFound"
UUIDS_FETCHED = "UuidsFetched"
MESSAGE_REASSEMBLED = "MessageReassembled"
MESSAGE_CHANGED = "MessageChanged"

EVENT_KINDS = (
    SCAN_STARTED,
    DEVICE_FOUND,
    UUIDS_FETCHED,
    MESSAGE_REASSEMBLED,
    MESSAGE_CHANGED,
)

_MAC = re.compile(r"(?:[0-9a-f]{2}:){5}[0-9a-f]{2}")

MAX_SEED = 2**64 - 1

# Upper bound on the inquiry scans of one run, summed over devices. The
# built-ins need at most 420; each scan can schedule work for every device
# in range, so this bounds how long a loaded scenario can run.
MAX_SCANS = 10**6

# Upper bound on the events of one run, checked as they are emitted. The work
# of a scan grows with the devices in range, so a dense layout can stay under
# MAX_SCANS and still run for an hour; this stops it within a few minutes.
MAX_EVENTS = 10**7


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


@dataclass
class AdvertisementTable:
    """Current payload slots of one device; run state, never scenario input."""

    payload_slots: list[str] = field(default_factory=list)
    generation: int = 0
    mode: str = FRAMED


@dataclass
class Device:
    """One simulated node; `message`/`mode` describe its initial advertisement.

    `wellknown_records` are the non-payload service UUIDs it also lists,
    after its payload slots. `table` holds what it advertises during a run.
    """

    address: str
    position: tuple[float, float] = (0.0, 0.0)
    range_m: float = 10.0
    scan_interval_s: float | None = 30.0
    discoverable: bool = True
    message: bytes | None = None
    mode: str = FRAMED
    wellknown_records: tuple[str, ...] = ()
    table: AdvertisementTable = field(
        default_factory=AdvertisementTable, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        _expect(self.address, str, "device", "address must be a string")
        self.address = self.address.lower()
        if not _MAC.fullmatch(self.address):
            raise InvalidScenario(
                f"device address must be MAC-style aa:bb:cc:dd:ee:ff, got {self.address!r}"
            )
        where = f"device {self.address}"
        self.position = _position(self.position, where)
        _expect(self.discoverable, bool, where, "discoverable must be true or false")
        _expect(self.message, (bytes, type(None)), where, "message must be bytes or null")
        _expect(self.wellknown_records, (list, tuple), where, "wellknown_records must be a list")
        self.wellknown_records = tuple(self.wellknown_records)
        for record in self.wellknown_records:
            _expect(record, str, where, "wellknown_records must hold strings")
        if not (_is_finite(self.range_m) and 1.0 <= self.range_m <= 100.0):
            raise InvalidScenario(
                f"{where}: range_m must be within [1, 100], got {self.range_m!r}"
            )
        self.range_m = float(self.range_m)
        if self.scan_interval_s is not None:
            if not (_is_finite(self.scan_interval_s) and self.scan_interval_s > 0):
                raise InvalidScenario(
                    f"{where}: scan_interval_s must be positive and finite, or null"
                )
            self.scan_interval_s = float(self.scan_interval_s)
        if self.mode not in (RAW, FRAMED):
            raise InvalidScenario(
                f"{where}: mode must be {RAW!r} or {FRAMED!r}, got {self.mode!r}"
            )


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
        if not self.fetch_latency_cached_s < self.fetch_latency_fresh_s:
            raise InvalidScenario(
                "timing: fetch_latency_cached_s must be smaller than fetch_latency_fresh_s"
            )


DEFAULT_TIMING = TimingModel()

_ACTIONS = ("set_message", "set_position", "set_discoverable")


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
        if self.action not in _ACTIONS:
            raise InvalidScenario(
                f"schedule: unknown action {self.action!r}, expected one of {_ACTIONS}"
            )
        needed = {
            "set_message": self.message is not None,
            "set_position": self.position is not None,
            "set_discoverable": self.discoverable is not None,
        }
        if not needed[self.action]:
            raise InvalidScenario(f"schedule: action {self.action!r} is missing its value field")
        if self.mode not in (None, RAW, FRAMED):
            raise InvalidScenario(
                f"schedule: mode must be {RAW!r}, {FRAMED!r} or null, got {self.mode!r}"
            )


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


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
_MESSAGE_CHECKS = {"generation": _is_int, "mode": lambda value: value in (RAW, FRAMED)}
_DETAIL_CHECKS = {
    SCAN_STARTED: {"round": _is_int},
    DEVICE_FOUND: {"round": _is_int},
    UUIDS_FETCHED: {
        "round": _is_int, "cached": _is_a(bool), "delay": _is_finite, "records": _is_a(list)
    },
    MESSAGE_REASSEMBLED: _MESSAGE_CHECKS,
    MESSAGE_CHANGED: {**_MESSAGE_CHECKS, "slots": _is_int, "message": _is_hex},
}
_REASSEMBLED_BODY = {
    FRAMED: {"message": _is_hex},
    RAW: {"payloads": lambda value: isinstance(value, list) and all(map(_is_hex, value))},
}


@dataclass
class Scenario:
    """A complete, validated simulation input."""

    devices: list[Device]
    duration_s: float
    timing: TimingModel = DEFAULT_TIMING
    limits: CapacityLimits = DEFAULT_LIMITS
    seed: int = 0
    schedule: list[Mutation] = field(default_factory=list)
    torn_read_mode: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not (_is_finite(self.duration_s) and self.duration_s > 0):
            raise InvalidScenario(
                f"duration_s must be positive and finite, got {self.duration_s!r}"
            )
        self.duration_s = float(self.duration_s)
        seed = self.seed
        if not (isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed <= MAX_SEED):
            raise InvalidScenario(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        _expect(self.torn_read_mode, bool, "scenario", "torn_read_mode must be true or false")
        _expect(self.name, str, "scenario", "name must be a string")
        seen: set[str] = set()
        scans = 0.0
        for dev in self.devices:
            if dev.address in seen:
                raise InvalidScenario(f"duplicate device address {dev.address}")
            seen.add(dev.address)
            if dev.scan_interval_s is not None:
                scans += self.duration_s // dev.scan_interval_s + 1
        if scans > MAX_SCANS:
            raise InvalidScenario(
                f"the devices would scan {scans:.3g} times, more than the budget of {MAX_SCANS}"
            )
        for i, mut in enumerate(self.schedule):
            if not 0 <= mut.t <= self.duration_s:
                raise InvalidScenario(
                    f"schedule[{i}]: t={mut.t} outside [0, {self.duration_s}]"
                )
            if mut.device not in seen:
                raise InvalidScenario(f"schedule[{i}]: unknown device {mut.device!r}")
        self._check_capacity()

    def _check_capacity(self) -> None:
        """Reject any message that `advertise` would refuse during the run.

        A `set_message` without a mode keeps the device's current one, so the
        schedule is walked in the order the run applies it: by time, then index.
        """
        capacity = {FRAMED: self.limits.framed_capacity, RAW: self.limits.outbound_ceiling}
        mode: dict[str, str] = {}
        for dev in self.devices:
            if dev.message is None:  # never advertised at t=0: a fresh table's mode stays
                mode[dev.address] = FRAMED
            else:
                mode[dev.address] = dev.mode
                if len(dev.message) > capacity.get(dev.mode, -1):
                    _reject_message(f"device {dev.address}", dev.message, dev.mode, capacity)
        changes = sorted(
            (m.t, i, m) for i, m in enumerate(self.schedule) if m.action == "set_message"
        )
        for _, i, mut in changes:
            current = mode[mut.device] = mut.mode or mode[mut.device]
            if len(mut.message) > capacity.get(current, -1):
                _reject_message(f"schedule[{i}]", mut.message, current, capacity)


def _reject_message(where: str, message: bytes, mode: str, capacity: dict[str, int]) -> NoReturn:
    if mode not in capacity:
        raise InvalidScenario(f"{where}: mode must be {RAW!r} or {FRAMED!r}, got {mode!r}")
    raise InvalidScenario(
        f"{where}: message is {len(message)} octets, {mode} capacity is {capacity[mode]}"
    )


def in_range(a: Device, b: Device) -> bool:
    """True iff `a` can discover `b`: disc model with the smaller of the two ranges."""
    if not b.discoverable:
        return False
    dx = a.position[0] - b.position[0]
    dy = a.position[1] - b.position[1]
    return (dx * dx + dy * dy) ** 0.5 <= min(a.range_m, b.range_m)


def advertise(
    device: Device,
    message: bytes,
    mode: str = FRAMED,
    limits: CapacityLimits = DEFAULT_LIMITS,
) -> AdvertisementTable:
    """Replace the device's payload slots with the encoding of `message`.

    Framed mode splits across headered chunks (capacity 82 octets with
    default limits); raw mode fills one headerless 13-octet slot per
    segment (capacity 91 octets).  Bumps the table generation.
    """
    message = bytes(message)
    table = device.table
    if mode == FRAMED:
        slots = frame(message, limits)
    elif mode == RAW:
        if len(message) > limits.outbound_ceiling:
            raise MessageTooLong(
                f"message is {len(message)} octets, raw capacity is {limits.outbound_ceiling}"
            )
        slots = [encode(payload) for payload in raw_payloads(message)]
    else:
        raise InvalidScenario(f"mode must be {RAW!r} or {FRAMED!r}, got {mode!r}")
    table.payload_slots = slots
    table.mode = mode
    table.generation += 1
    return table


def fetch_snapshot(
    observer: Device,
    subject: Device,
    limits: CapacityLimits = DEFAULT_LIMITS,
    *,
    torn_read_mode: bool = False,
    window: tuple[float, float] | None = None,
    change: tuple[list[str], float] | None = None,
) -> list[str]:
    """The subject's records as one SDP fetch sees them.

    Payload slots come first, then well-known records, truncated at
    max_inbound_records.  In torn-read mode, a `change` (previous slots and
    the change time) strictly inside `window` splits the payload slots into
    an old-generation prefix plus a new-generation suffix.  Raises OutOfRange
    when the subject is not reachable.
    """
    if not in_range(observer, subject):
        raise OutOfRange(f"{subject.address} is not reachable from {observer.address}")
    slots = subject.table.payload_slots
    if torn_read_mode and window is not None and change is not None:
        t_start, t_now = window
        old_slots, t_change = change
        if t_start < t_change < t_now and len(old_slots) >= 2:
            fraction = (t_change - t_start) / (t_now - t_start)
            split = 1 + int(fraction * (len(old_slots) - 1))
            split = min(max(split, 1), len(old_slots) - 1)
            slots = old_slots[:split] + slots[split:]
    records = slots + list(subject.wellknown_records)
    return records[:limits.max_inbound_records]


def run(
    scenario: Scenario,
    seed: int | None = None,
    duration_s: float | None = None,
) -> Iterator[SimEvent]:
    """Execute the scenario, yielding its event log one event at a time.

    The scenario is checked here, at the call; the run itself advances as
    the returned one-shot iterator is consumed, and raises InvalidScenario
    there once it has emitted more than MAX_EVENTS events. The scenario is
    only read, so runs of the same object are independent, however far
    each is consumed; `seed` and `duration_s` override the scenario's
    values and are validated with it.
    """
    overrides = {"seed": seed, "duration_s": duration_s}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    return _Runner(dataclasses.replace(scenario, **overrides)).execute()


class _Runner:
    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self.rng = random.Random(sc.seed)
        # A run moves devices, toggles them and changes their tables: it does
        # so on plain shallow copies (`sc` is valid already), each with a
        # fresh table, never on `sc` itself.
        self.devices = {d.address: copy.copy(d) for d in sc.devices}
        for dev in self.devices.values():
            dev.table = AdvertisementTable()
        # Uniform grid hash over positions (Teschner et al., VMV 2003). Any
        # pair in range lies in the same or an adjacent cell, so a scan only
        # looks at its 3x3 neighbourhood. Cells are twice the largest range,
        # not equal to it: with a 1x cell, float rounding can put a pair
        # exactly at range two cells apart.
        self.cell_size = 2.0 * max((d.range_m for d in sc.devices), default=1.0)
        self.cell_of: dict[str, tuple[int, int]] = {}
        self.grid: dict[tuple[int, int], list[str]] = {}
        for dev in self.devices.values():
            self._place(dev)
        self.pending: list[SimEvent] = []  # emitted by the current handler, not yet yielded
        self.fetched: set[tuple[str, str]] = set()
        # address -> (payload slots before the latest change, change time)
        self.history: dict[str, tuple[list[str], float]] = {}
        self.heap: list[tuple[float, int, tuple]] = []
        self.seq = 0

    def execute(self) -> Iterator[SimEvent]:
        """Yield the run's events, each handler's as soon as it returns."""
        for dev in self.devices.values():
            if dev.message is not None:
                self._advertise(dev, dev.message, dev.mode, t=0.0)
        for dev in self.devices.values():
            if dev.scan_interval_s is not None:
                self._push(0.0, ("scan", dev.address, 0))
        for mut in self.sc.schedule:
            self._push(mut.t, ("mutate", mut))
        pending = self.pending
        emitted = 0
        while True:
            emitted += len(pending)
            if emitted > MAX_EVENTS:
                raise InvalidScenario(
                    f"the run emitted more than the budget of {MAX_EVENTS} events by "
                    f"t={pending[-1].t}; shorten duration_s or thin out the layout"
                )
            yield from pending
            pending.clear()
            if not self.heap:
                return
            t, _, action = heapq.heappop(self.heap)
            if t > self.sc.duration_s:
                return
            kind, *args = action
            getattr(self, f"_on_{kind}")(t, *args)

    def _push(self, t: float, action: tuple) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, action))

    def _emit(self, t: float, kind: str, observer: str, subject: str, detail: dict) -> None:
        self.pending.append(SimEvent(t, kind, observer, subject, detail))

    def _advertise(self, dev: Device, message: bytes, mode: str, t: float) -> None:
        previous = list(dev.table.payload_slots)
        table = advertise(dev, message, mode, self.sc.limits)
        self.history[dev.address] = (previous, t)
        self._emit(
            t,
            MESSAGE_CHANGED,
            dev.address,
            dev.address,
            {
                "generation": table.generation,
                "mode": mode,
                "slots": len(table.payload_slots),
                "message": message.hex(),
            },
        )

    def _place(self, dev: Device) -> None:
        """File `dev` under the grid cell of its position, moving it if the cell changed."""
        x, y = dev.position
        # integer keys: far from the origin a float cell index plus one rounds back to itself
        cell = (int(x // self.cell_size), int(y // self.cell_size))
        old = self.cell_of.get(dev.address)
        if cell == old:
            return
        if old is not None:
            self.grid[old].remove(dev.address)
        self.grid.setdefault(cell, []).append(dev.address)
        self.cell_of[dev.address] = cell

    def _candidates(self, dev: Device) -> list[str]:
        """Sorted addresses in the 3x3 cells around `dev`: a superset of those in range."""
        cx, cy = self.cell_of[dev.address]
        grid = self.grid
        found: list[str] = []
        for x in (cx - 1, cx, cx + 1):
            for y in (cy - 1, cy, cy + 1):
                found += grid.get((x, y), ())
        found.sort()
        return found

    def _on_scan(self, t: float, address: str, rnd: int) -> None:
        dev = self.devices[address]
        self._emit(t, SCAN_STARTED, address, address, {"round": rnd})
        for subject in self._candidates(dev):
            if subject == address:
                continue
            if in_range(dev, self.devices[subject]):
                dt = self.rng.uniform(0.0, self.sc.timing.inquiry_duration_s)
                self._push(t + dt, ("found", address, subject, rnd))
        next_scan = t + dev.scan_interval_s
        if next_scan <= self.sc.duration_s:
            self._push(next_scan, ("scan", address, rnd + 1))

    def _on_found(self, t: float, observer: str, subject: str, rnd: int) -> None:
        self._emit(t, DEVICE_FOUND, observer, subject, {"round": rnd})
        cached = (observer, subject) in self.fetched
        timing = self.sc.timing
        latency = timing.fetch_latency_cached_s if cached else timing.fetch_latency_fresh_s
        self._push(t + latency, ("fetch", observer, subject, rnd, t, latency, cached))

    def _on_fetch(
        self,
        t: float,
        observer: str,
        subject: str,
        rnd: int,
        t_start: float,
        latency: float,
        cached: bool,
    ) -> None:
        obs, subj = self.devices[observer], self.devices[subject]
        try:
            records = fetch_snapshot(
                obs,
                subj,
                self.sc.limits,
                torn_read_mode=self.sc.torn_read_mode,
                window=(t_start, t),
                change=self.history.get(subject),
            )
        except OutOfRange:
            return  # moved or toggled mid-flight; the fetch just never completes
        self.rng.shuffle(records)
        self.fetched.add((observer, subject))
        self._emit(
            t,
            UUIDS_FETCHED,
            observer,
            subject,
            {"round": rnd, "cached": cached, "delay": latency, "records": records},
        )
        self._reassemble(t, observer, subject, raw_read(records), subj)

    def _reassemble(
        self, t: float, observer: str, subject: str, payloads: list[bytes], subj: Device
    ) -> None:
        table = subj.table
        if not table.payload_slots:
            return
        if table.mode == FRAMED:
            try:
                message = reassemble(payloads)
            except ReassemblyError:
                return  # torn or truncated snapshot; a later fetch will retry
            detail = {"generation": table.generation, "mode": FRAMED, "message": message.hex()}
        else:
            if not payloads:
                return
            detail = {
                "generation": table.generation,
                "mode": RAW,
                "payloads": sorted(p.hex() for p in payloads),
            }
        self._emit(t, MESSAGE_REASSEMBLED, observer, subject, detail)

    def _on_mutate(self, t: float, mut: Mutation) -> None:
        dev = self.devices[mut.device]
        if mut.action == "set_message":
            self._advertise(dev, mut.message, mut.mode or dev.table.mode, t)
        elif mut.action == "set_position":
            dev.position = mut.position
            self._place(dev)
        elif mut.action == "set_discoverable":
            dev.discoverable = mut.discoverable

