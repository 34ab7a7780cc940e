"""Deterministic discrete-event simulation of the discovery pipeline.

Virtual devices sit on a plane, advertise payload UUIDs through their service
tables, and run periodic inquiry scans.  A scan finds every discoverable
device inside radio range (symmetric disc model, min of the two ranges);
each found device is fetched after a fixed latency, longer for the first
encounter than for later ones, and the fetched records are decoded and
reassembled.  Everything is driven by one seeded RNG, so a (scenario, seed)
pair always produces a bit-identical event log.

Torn reads are opt-in: when a message change lands strictly inside a fetch
window, the snapshot mixes a prefix of the old generation's slots with a
suffix of the new one's, which is what the framing layer's consistency
checks exist to catch.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, NoReturn

from .codec import PayloadUuid, encode
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


def _is_finite(value: Any) -> bool:
    """True iff `value` is a finite number; False for NaN, infinities and non-numbers."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _position(value: Any, where: str) -> tuple[float, float]:
    try:
        x, y = value
        if isinstance(value, (list, tuple)) and math.isfinite(x) and math.isfinite(y):
            return (float(x), float(y))
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidScenario(f"{where}: position must be [x, y] of finite numbers, got {value!r}")


@dataclass
class AdvertisementTable:
    """Current service records of one device: payload slots plus well-known UUIDs."""

    payload_slots: list[PayloadUuid] = field(default_factory=list)
    wellknown_records: list[str] = field(default_factory=list)
    generation: int = 0
    mode: str = FRAMED
    message: bytes = b""


@dataclass
class Device:
    """One simulated node; `message`/`mode` describe its initial advertisement."""

    address: str
    position: tuple[float, float] = (0.0, 0.0)
    range_m: float = 10.0
    scan_interval_s: float | None = 30.0
    discoverable: bool = True
    message: bytes | None = None
    mode: str = FRAMED
    table: AdvertisementTable = field(default_factory=AdvertisementTable)

    def __post_init__(self) -> None:
        self.address = str(self.address).lower()
        if not _MAC.fullmatch(self.address):
            raise InvalidScenario(
                f"device address must be MAC-style aa:bb:cc:dd:ee:ff, got {self.address!r}"
            )
        self.position = _position(self.position, f"device {self.address}")
        if not (_is_finite(self.range_m) and 1.0 <= self.range_m <= 100.0):
            raise InvalidScenario(
                f"device {self.address}: range_m must be within [1, 100], got {self.range_m!r}"
            )
        self.range_m = float(self.range_m)
        if self.scan_interval_s is not None:
            if not (_is_finite(self.scan_interval_s) and self.scan_interval_s > 0):
                raise InvalidScenario(
                    f"device {self.address}: scan_interval_s must be positive and finite, or null"
                )
            self.scan_interval_s = float(self.scan_interval_s)
        if self.mode not in (RAW, FRAMED):
            raise InvalidScenario(
                f"device {self.address}: mode must be {RAW!r} or {FRAMED!r}, got {self.mode!r}"
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


@dataclass(frozen=True)
class SimEvent:
    """One log record; serialized as a single JSON line."""

    t: float
    kind: str
    observer: str
    subject: str
    detail: dict[str, Any]

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "kind": self.kind,
                "observer": self.observer,
                "subject": self.subject,
                "detail": self.detail,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_dict(cls, obj: dict[str, Any]) -> SimEvent:
        if not isinstance(obj, dict):
            raise ValueError("event must be an object")
        missing = {"t", "kind", "observer", "subject", "detail"} - obj.keys()
        if missing:
            raise ValueError(f"event is missing fields {sorted(missing)}")
        if obj["kind"] not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {obj['kind']!r}")
        return cls(
            t=float(obj["t"]),
            kind=obj["kind"],
            observer=str(obj["observer"]),
            subject=str(obj["subject"]),
            detail=dict(obj["detail"]),
        )


@dataclass
class Scenario:
    """A complete, validated simulation input."""

    devices: list[Device]
    timing: TimingModel = DEFAULT_TIMING
    limits: CapacityLimits = DEFAULT_LIMITS
    duration_s: float = 300.0
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
        if not (isinstance(self.seed, int) and 0 <= self.seed <= MAX_SEED):
            raise InvalidScenario(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        seen: set[str] = set()
        for dev in self.devices:
            if dev.address in seen:
                raise InvalidScenario(f"duplicate device address {dev.address}")
            seen.add(dev.address)
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
            if dev.message is None:  # never advertised at t=0: the table's mode stays
                mode[dev.address] = dev.table.mode
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
    table.message = message
    table.generation += 1
    return table


def fetch_snapshot(
    observer: Device,
    subject: Device,
    limits: CapacityLimits = DEFAULT_LIMITS,
    *,
    torn_read_mode: bool = False,
    window: tuple[float, float] | None = None,
    change: tuple[list[PayloadUuid], float] | None = None,
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
    slots = [str(u) for u in subject.table.payload_slots]
    if torn_read_mode and window is not None and change is not None:
        t_start, t_now = window
        old_slots, t_change = change
        if t_start < t_change < t_now and len(old_slots) >= 2:
            fraction = (t_change - t_start) / (t_now - t_start)
            split = 1 + int(fraction * (len(old_slots) - 1))
            split = min(max(split, 1), len(old_slots) - 1)
            slots = [str(u) for u in old_slots[:split]] + slots[split:]
    records = slots + list(subject.table.wellknown_records)
    return records[:limits.max_inbound_records]


def run(
    scenario: Scenario,
    seed: int | None = None,
    duration_s: float | None = None,
) -> list[SimEvent]:
    """Execute the scenario and return its event log.

    The scenario is copied first, so repeated runs of the same object are
    independent; `seed` and `duration_s` override the scenario's values.
    """
    sc = copy.deepcopy(scenario)
    if seed is not None:
        sc.seed = int(seed)
    if duration_s is not None:
        sc.duration_s = float(duration_s)
    sc.validate()
    return _Runner(sc).execute()


class _Runner:
    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self.rng = random.Random(sc.seed)
        self.devices = {d.address: d for d in sc.devices}
        # Uniform grid hash over positions (Teschner et al., VMV 2003). Any
        # pair in range lies in the same or an adjacent cell, so a scan only
        # looks at its 3x3 neighbourhood. Cells are twice the largest range,
        # not equal to it: with a 1x cell, float rounding can put a pair
        # exactly at range two cells apart.
        self.cell_size = 2.0 * max((d.range_m for d in sc.devices), default=1.0)
        self.cell_of: dict[str, tuple[int, int]] = {}
        self.grid: dict[tuple[int, int], list[str]] = {}
        for dev in sc.devices:
            self._place(dev)
        self.events: list[SimEvent] = []
        self.fetched: set[tuple[str, str]] = set()
        # address -> (payload slots before the latest change, change time)
        self.history: dict[str, tuple[list[PayloadUuid], float]] = {}
        self.heap: list[tuple[float, int, tuple]] = []
        self.seq = 0

    def execute(self) -> list[SimEvent]:
        for dev in self.sc.devices:
            if dev.message is not None:
                self._advertise(dev, dev.message, dev.mode, t=0.0)
        for dev in self.sc.devices:
            if dev.scan_interval_s is not None:
                self._push(0.0, ("scan", dev.address, 0))
        for mut in self.sc.schedule:
            self._push(mut.t, ("mutate", mut))
        while self.heap:
            t, _, action = heapq.heappop(self.heap)
            if t > self.sc.duration_s:
                break
            kind, *args = action
            getattr(self, f"_on_{kind}")(t, *args)
        return self.events

    def _push(self, t: float, action: tuple) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, action))

    def _emit(self, t: float, kind: str, observer: str, subject: str, detail: dict) -> None:
        self.events.append(SimEvent(t, kind, observer, subject, detail))

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
            dev.position = (float(mut.position[0]), float(mut.position[1]))
            self._place(dev)
        elif mut.action == "set_discoverable":
            dev.discoverable = bool(mut.discoverable)


# -- scenario files -----------------------------------------------------------

_SCENARIO_KEYS = {
    "name", "duration_s", "seed", "torn_read_mode", "timing", "limits", "devices", "schedule",
}
_TIMING_KEYS = {"inquiry_duration_s", "fetch_latency_fresh_s", "fetch_latency_cached_s"}
_LIMITS_KEYS = {"max_outbound_slots", "max_inbound_records", "payload_per_uuid"}
_DEVICE_KEYS = {
    "address", "position", "range_m", "scan_interval_s", "discoverable",
    "message", "mode", "wellknown_records",
}
_MUTATION_KEYS = {"t", "device", "action", "message", "mode", "position", "discoverable"}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise InvalidScenario(f"{where}: unknown keys {unknown}")


def _hex_or_none(value: Any, where: str) -> bytes | None:
    if value is None:
        return None
    try:
        return bytes.fromhex(value)
    except (ValueError, TypeError):
        raise InvalidScenario(f"{where}: message must be a hex string, got {value!r}") from None


def scenario_from_json(text: str) -> Scenario:
    """Parse and validate a scenario file; raises InvalidScenario with a diagnosis."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidScenario(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidScenario("scenario must be a JSON object")
    _reject_unknown(obj, _SCENARIO_KEYS, "scenario")
    if "devices" not in obj or "duration_s" not in obj:
        raise InvalidScenario("scenario must declare 'devices' and 'duration_s'")
    if not (isinstance(obj["devices"], list) and isinstance(obj.get("schedule", []), list)):
        raise InvalidScenario("scenario: devices and schedule must be JSON arrays")
    if not (isinstance(obj.get("timing", {}), dict) and isinstance(obj.get("limits", {}), dict)):
        raise InvalidScenario("scenario: timing and limits must be JSON objects")

    timing_obj = obj.get("timing", {})
    _reject_unknown(timing_obj, _TIMING_KEYS, "timing")
    limits_obj = obj.get("limits", {})
    _reject_unknown(limits_obj, _LIMITS_KEYS, "limits")
    try:
        timing = TimingModel(**timing_obj)
        limits = CapacityLimits(**limits_obj)
    except (TypeError, ValueError) as exc:
        raise InvalidScenario(str(exc)) from None

    devices = []
    for i, dev_obj in enumerate(obj["devices"]):
        where = f"devices[{i}]"
        if not isinstance(dev_obj, dict):
            raise InvalidScenario(f"{where}: must be an object")
        _reject_unknown(dev_obj, _DEVICE_KEYS, where)
        if "address" not in dev_obj:
            raise InvalidScenario(f"{where}: missing 'address'")
        wellknown = dev_obj.get("wellknown_records", [])
        if not isinstance(wellknown, list):
            raise InvalidScenario(f"{where}: wellknown_records must be a list")
        devices.append(
            Device(
                address=dev_obj["address"],
                position=dev_obj.get("position", [0.0, 0.0]),
                range_m=dev_obj.get("range_m", 10.0),
                scan_interval_s=dev_obj.get("scan_interval_s", 30.0),
                discoverable=bool(dev_obj.get("discoverable", True)),
                message=_hex_or_none(dev_obj.get("message"), where),
                mode=dev_obj.get("mode", FRAMED),
                table=AdvertisementTable(wellknown_records=[str(u) for u in wellknown]),
            )
        )

    schedule = []
    for i, mut_obj in enumerate(obj.get("schedule", [])):
        where = f"schedule[{i}]"
        if not isinstance(mut_obj, dict):
            raise InvalidScenario(f"{where}: must be an object")
        _reject_unknown(mut_obj, _MUTATION_KEYS, where)
        for key in ("t", "device", "action"):
            if key not in mut_obj:
                raise InvalidScenario(f"{where}: missing {key!r}")
        schedule.append(
            Mutation(
                t=mut_obj["t"],
                device=str(mut_obj["device"]).lower(),
                action=mut_obj["action"],
                message=_hex_or_none(mut_obj.get("message"), where),
                mode=mut_obj.get("mode"),
                position=mut_obj.get("position"),
                discoverable=mut_obj.get("discoverable"),
            )
        )

    return Scenario(
        devices=devices,
        timing=timing,
        limits=limits,
        duration_s=obj["duration_s"],
        seed=obj.get("seed", 0),
        schedule=schedule,
        torn_read_mode=bool(obj.get("torn_read_mode", False)),
        name=str(obj.get("name", "")),
    )


def scenario_to_json(sc: Scenario) -> str:
    """Serialize a scenario to byte-stable JSON (sorted keys, two-space indent)."""
    obj = {
        "name": sc.name,
        "duration_s": sc.duration_s,
        "seed": sc.seed,
        "torn_read_mode": sc.torn_read_mode,
        "timing": {
            "inquiry_duration_s": sc.timing.inquiry_duration_s,
            "fetch_latency_fresh_s": sc.timing.fetch_latency_fresh_s,
            "fetch_latency_cached_s": sc.timing.fetch_latency_cached_s,
        },
        "limits": {
            "max_outbound_slots": sc.limits.max_outbound_slots,
            "max_inbound_records": sc.limits.max_inbound_records,
            "payload_per_uuid": sc.limits.payload_per_uuid,
        },
        "devices": [
            {
                "address": d.address,
                "position": list(d.position),
                "range_m": d.range_m,
                "scan_interval_s": d.scan_interval_s,
                "discoverable": d.discoverable,
                "message": None if d.message is None else d.message.hex(),
                "mode": d.mode,
                "wellknown_records": list(d.table.wellknown_records),
            }
            for d in sc.devices
        ],
        "schedule": [
            {
                "t": m.t,
                "device": m.device,
                "action": m.action,
                "message": None if m.message is None else m.message.hex(),
                "mode": m.mode,
                "position": None if m.position is None else list(m.position),
                "discoverable": m.discoverable,
            }
            for m in sc.schedule
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_scenario(path: str) -> Scenario:
    """Read a scenario file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_json(fh.read())
