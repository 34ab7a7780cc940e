"""Deterministic discrete-event simulation of the discovery pipeline.

Virtual devices sit on a plane, advertise payload UUIDs as SDP service
records, and run periodic inquiry scans.  `advertise` and `fetch_snapshot`
are pure functions of a message and of a record list.  The scenario is a
frozen value the runner only reads: it keeps one mutable record per
device, a `_Node`, with the fields a run reads or changes, the advert and
the grid cell, and a move or toggle sets one field of it in place.  A scan
finds every discoverable device inside radio range (symmetric disc model,
min of the two ranges); each found device is fetched after a fixed
latency, longer for the first encounter than for later ones.  A discovery
is logged once, when its fetch window closes, with its found time: as
UuidsFetched with the records the fetch saw, shuffled, or as FetchAborted
when the pair has left range by then.  `log.Deliveries`, the rule the
report derives every delivery with, says what the records reassemble to
and whether the pair logs a MessageReassembled for it; its table of
fetched pairs says which fetches are cached.  Everything is driven by one seeded RNG, so a
(scenario, seed) pair always produces a bit-identical event log.  `run`
yields that log as it is produced, so a run holds its devices and pending
actions, never its log.

Torn reads are opt-in: when a message change lands strictly inside a fetch
window, the snapshot mixes a prefix of the old generation's slots with a
suffix of the new one's, which is what the framing layer's consistency
checks exist to catch.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from typing import Iterator

from .codec import encode
from .errors import InvalidScenario, MessageTooLong
from .framing import DEFAULT_LIMITS, CapacityLimits, frame, raw_payloads
from .log import (
    FETCH_ABORTED, MESSAGE_CHANGED, MESSAGE_REASSEMBLED, RUN_STARTED, UUIDS_FETCHED, Deliveries,
    SimEvent,
)
from .model import _ACTIONS, FRAMED, Device, Mutation, Scenario, _check_mode

# Upper bound on the events of one run, checked as they are emitted. The work
# of a scan grows with the devices in range, so a dense layout can stay under
# MAX_SCANS and still run for an hour; this stops it within a few minutes.
MAX_EVENTS = 10**7


def in_range(a: Device | _Node, b: Device | _Node) -> bool:
    """True iff `a` can discover `b`: disc model with the smaller of the two ranges.

    It reads only `position`, `range_m` and `discoverable`, of a `Device` or
    of the runner's record of one.
    """
    if not b.discoverable:
        return False
    dx = a.position[0] - b.position[0]
    dy = a.position[1] - b.position[1]
    return (dx * dx + dy * dy) ** 0.5 <= min(a.range_m, b.range_m)


def advertise(
    message: bytes,
    mode: str = FRAMED,
    limits: CapacityLimits = DEFAULT_LIMITS,
) -> list[str]:
    """The payload slots that advertise `message` in `mode`.

    Framed mode splits across headered chunks (capacity 82 octets with
    default limits); raw mode fills one headerless 13-octet slot per
    segment (capacity 91 octets).
    """
    message = bytes(message)
    _check_mode(mode)
    if mode == FRAMED:
        return frame(message, limits)
    if len(message) > limits.outbound_ceiling:
        raise MessageTooLong(
            f"message is {len(message)} octets, raw capacity is {limits.outbound_ceiling}"
        )
    return [encode(payload) for payload in raw_payloads(message)]


def fetch_snapshot(
    slots: list[str],
    wellknown_records: tuple[str, ...],
    limits: CapacityLimits = DEFAULT_LIMITS,
    *,
    window: tuple[float, float] | None = None,
    change: tuple[list[str], float] | None = None,
) -> list[str]:
    """The records one SDP fetch sees of a subject advertising `slots`.

    Payload slots come first, then well-known records, truncated at
    max_inbound_records.  A `change` (previous slots and the change time)
    strictly inside `window` splits the payload slots into an old-generation
    prefix plus a new-generation suffix: a torn read.
    """
    if window is not None and change is not None:
        t_start, t_now = window
        old_slots, t_change = change
        if t_start < t_change < t_now and len(old_slots) >= 2:
            fraction = (t_change - t_start) / (t_now - t_start)
            split = 1 + int(fraction * (len(old_slots) - 1))
            split = min(max(split, 1), len(old_slots) - 1)
            slots = old_slots[:split] + slots[split:]
    records = slots + list(wellknown_records)
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
    a frozen value and only read, so runs of the same object are
    independent, however far each is consumed; `seed` and `duration_s`
    override the scenario's values through `dataclasses.replace`, which
    checks them with it.
    """
    overrides = {"seed": seed, "duration_s": duration_s}
    overrides = {name: value for name, value in overrides.items() if value is not None}
    return _Runner(dataclasses.replace(scenario, **overrides)).execute()


class _Node:
    """One device in a run: the `Device` fields the run reads or changes, its advert and grid cell.

    The advert is the `generation`-th message, as `slots` in `mode`; `change` is (the slots
    before the latest change, its time), or None before the first.
    """

    __slots__ = (
        "address", "position", "range_m", "scan_interval_s", "discoverable", "wellknown_records",
        "mode", "generation", "slots", "change", "cell",
    )

    def __init__(self, dev: Device) -> None:
        self.address, self.position, self.range_m = dev.address, dev.position, dev.range_m
        self.scan_interval_s, self.discoverable = dev.scan_interval_s, dev.discoverable
        self.wellknown_records, self.mode = dev.wellknown_records, dev.mode
        self.generation, self.slots, self.change, self.cell = 0, [], None, None


class _Runner:
    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self.rng = random.Random(sc.seed)
        self.devices = {d.address: _Node(d) for d in sc.devices}
        # Uniform grid hash over positions (Teschner et al., VMV 2003). Any
        # pair in range lies in the same or an adjacent cell, so a scan only
        # looks at its 3x3 neighbourhood. Cells are the largest range wide,
        # plus a relative margin of 1e-9: float subtraction, squaring and
        # sqrt each round relative to |dx|, so a pair `in_range` accepts is
        # less than one cell apart on each axis, however far from the origin.
        # `_place` takes the exact floor of position / cell for the same
        # reason: float `x // cell` is not exact once |x / cell| nears 2**52,
        # and it put such a pair two cells apart. On the benchmark's layouts
        # a scan examines 10.3 candidates on churn-400 and 3.4 on
        # sparse-1000, itself included, against 34.8 and 10.5 with cells
        # twice the range.
        self.cell_size = max((d.range_m for d in sc.devices), default=1.0) * (1 + 1e-9)
        self.cell_ratio = self.cell_size.as_integer_ratio()
        self.grid: dict[tuple[int, int], list[str]] = {}
        for node in self.devices.values():
            self._place(node)
        self.pending: list[SimEvent] = []  # emitted by the current handler, not yet yielded
        self.deliveries = Deliveries()
        self.heap: list[tuple[float, int, tuple]] = []
        self.seq = 0

    def execute(self) -> Iterator[SimEvent]:
        """Yield the run's events, each handler's as soon as it returns.

        The first is the RunStarted header. A scan emits nothing: a
        scanner's rounds are at 0.0, S, S + S, ... (float sums of its
        interval S) up to duration_s, and the header holds both.
        """
        sc = self.sc
        scanners = {
            d.address: d.scan_interval_s for d in sc.devices if d.scan_interval_s is not None
        }
        header = {
            "duration_s": sc.duration_s,
            "limits": dataclasses.asdict(sc.limits),
            "scanners": scanners,
        }
        self._emit(0.0, RUN_STARTED, "", "", header)
        for dev in sc.devices:
            if dev.message is not None:
                self._advertise(self.devices[dev.address], dev.message, dev.mode, t=0.0)
        for address in scanners:
            self._push(0.0, ("_on_scan", address))
        for mut in sc.schedule:
            self._push(mut.t, ("_on_mutate", mut))
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
            # Constant handler names: a name built per action piles up in CPython's method cache.
            t, _, (handler, *args) = heapq.heappop(self.heap)
            if t > self.sc.duration_s:
                return
            getattr(self, handler)(t, *args)

    def _push(self, t: float, action: tuple) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, action))

    def _emit(self, t: float, kind: str, observer: str, subject: str, detail: dict) -> None:
        # as `SimEvent.from_array` does, skip the argument handling of SimEvent(...)
        self.pending.append(tuple.__new__(SimEvent, (t, kind, observer, subject, detail)))

    def _advertise(self, node: _Node, message: bytes, mode: str | None, t: float) -> None:
        """Switch `node` to `message` at `t`, in `mode` or else its current mode."""
        mode = mode or node.mode
        slots = advertise(message, mode, self.sc.limits)
        node.generation += 1
        node.mode, node.slots, node.change = mode, slots, (node.slots, t)
        self.deliveries.changed(node.address, node.generation, mode)
        detail = {"generation": node.generation, "mode": mode, "message": message.hex()}
        self._emit(t, MESSAGE_CHANGED, node.address, node.address, detail)

    def _place(self, node: _Node) -> None:
        """File `node` under the grid cell of its position, moving it if the cell changed."""
        # exact integer floors (see `cell_size`); a float index plus one can
        # also round back to itself
        num, den = self.cell_ratio
        x, y = (v.as_integer_ratio() for v in node.position)
        cell = ((x[0] * den) // (x[1] * num), (y[0] * den) // (y[1] * num))
        if cell == node.cell:
            return
        if node.cell is not None:
            self.grid[node.cell].remove(node.address)
        self.grid.setdefault(cell, []).append(node.address)
        node.cell = cell

    def _candidates(self, node: _Node) -> list[str]:
        """Addresses in the 3x3 cells around `node`, its own included: a superset of those in range."""
        cx, cy = node.cell
        grid = self.grid
        found: list[str] = []
        for x in (cx - 1, cx, cx + 1):
            for y in (cy - 1, cy, cy + 1):
                found += grid.get((x, y), ())
        return found

    def _on_scan(self, t: float, address: str) -> None:
        node = self.devices[address]
        devices = self.devices
        hits = [s for s in self._candidates(node) if s != address and in_range(node, devices[s])]
        hits.sort()  # the RNG draws go in address order, whatever order the cells hold
        uniform, inquiry_s = self.rng.uniform, self.sc.timing.inquiry_duration_s
        for subject in hits:
            self._push(t + uniform(0.0, inquiry_s), ("_on_found", address, subject))
        next_scan = t + node.scan_interval_s
        if next_scan <= self.sc.duration_s:
            self._push(next_scan, ("_on_scan", address))

    def _on_found(self, t: float, observer: str, subject: str) -> None:
        # Logged by the fetch it starts, which holds the found time t.
        cached = (observer, subject) in self.deliveries.pairs  # a fetch of the pair came before
        timing = self.sc.timing
        latency = timing.fetch_latency_cached_s if cached else timing.fetch_latency_fresh_s
        self._push(t + latency, ("_on_fetch", observer, subject, t))

    def _on_fetch(self, t: float, observer: str, subject: str, t_start: float) -> None:
        obs, subj = self.devices[observer], self.devices[subject]
        if not in_range(obs, subj):  # moved or toggled mid-flight
            self._emit(t, FETCH_ABORTED, observer, subject, {"found": t_start})
            return
        records = fetch_snapshot(
            subj.slots,
            subj.wellknown_records,
            self.sc.limits,
            window=(t_start, t),
            change=subj.change if self.sc.torn_read_mode else None,
        )
        self.rng.shuffle(records)
        _, reassembled = self.deliveries.fetched(observer, subject, records)
        self._emit(t, UUIDS_FETCHED, observer, subject, {"found": t_start, "records": records})
        if reassembled is not None:
            self._emit(t, MESSAGE_REASSEMBLED, observer, subject, reassembled)

    def _on_mutate(self, t: float, mut: Mutation) -> None:
        node = self.devices[mut.device]
        if mut.action == "set_message":
            self._advertise(node, mut.message, mut.mode, t)
            return
        field = _ACTIONS[mut.action][0]  # named as on Device, and checked by its rule
        setattr(node, field, getattr(mut, field))
        self._place(node)
