"""Simulator unit, oracle, and property tests."""

import dataclasses
import gc
import importlib.util
import json
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdpcast
from sdpcast import (
    BUILTIN_SCENARIOS,
    FRAMED,
    RAW,
    Device,
    InvalidScenario,
    MessageTooLong,
    Mutation,
    ReassemblyError,
    Scenario,
    SimEvent,
    TimingModel,
    advertise,
    build_report,
    fetch_snapshot,
    in_range,
    load_log,
    raw_read,
    run,
    scenario_from_json,
    scenario_gen,
    scenario_to_json,
    unframe,
)
from sdpcast.model import MAX_SCANS
from sdpcast.sim import _Node, _Runner

from conftest import address, toggle_layout

WELLKNOWN_SPP = "00001101-0000-1000-8000-00805f9b34fb"

A = "aa:00:00:00:00:01"
B = "aa:00:00:00:00:02"


def _device(address=A, **kw):
    return Device(address=address, **kw)


def _two_device_scenario(**kw):
    defaults = dict(
        devices=[
            _device(A, position=(0.0, 0.0), message=b"from a"),
            _device(B, position=(5.0, 0.0), message=b"from b"),
        ],
        duration_s=120.0,
        seed=0,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def _kinds(log):
    return {e.kind for e in log}


# The kinds of the one line a discovery writes, when its fetch window closes.
DISCOVERY_KINDS = ("UuidsFetched", "FetchAborted")


def _discoveries(log, subject=None):
    """The line of each discovery in `log`, of `subject` if given, in log order."""
    return [e for e in log if e.kind in DISCOVERY_KINDS and subject in (None, e.subject)]


def _found_round(header, observer, found):
    """The round of `observer`'s scan that found a device at time `found`:
    its last scan at or before then, since the inquiry is shorter than the
    scan interval."""
    scans = _scan_rounds(header)
    return max(rnd for scanner, rnd, t in scans if scanner == observer and t <= found)


def _scan_rounds(header):
    """(scanner, round, t) of every scan that a run's RunStarted header implies.

    A scanner's rounds are at 0.0, S, S + S, ...: float sums of its interval
    S, added as the runner adds them, for as long as the sum is at most
    duration_s.
    """
    assert header.kind == "RunStarted"
    duration = header.detail["duration_s"]
    rounds = []
    for scanner, interval in header.detail["scanners"].items():
        t, rnd = 0.0, 0
        while t <= duration:
            rounds.append((scanner, rnd, t))
            t, rnd = t + interval, rnd + 1
    return rounds


# -- in_range -----------------------------------------------------------------


def test_in_range_zero_distance():
    assert in_range(_device(A), _device(B))


def test_in_range_disc_boundary():
    a = _device(A, position=(0.0, 0.0), range_m=10.0)
    near = _device(B, position=(5.0, 0.0), range_m=10.0)
    far = _device(B, position=(15.0, 0.0), range_m=10.0)
    assert in_range(a, near)
    assert not in_range(a, far)


def test_in_range_min_of_ranges():
    a = _device(A, position=(0.0, 0.0), range_m=100.0)
    b = _device(B, position=(50.0, 0.0), range_m=10.0)
    assert not in_range(a, b)
    assert not in_range(b, a)


def test_in_range_requires_discoverable_subject():
    a = _device(A)
    hidden = _device(B, discoverable=False)
    assert not in_range(a, hidden)
    assert in_range(hidden, a)  # a hidden device can still scan others


# -- advertise ----------------------------------------------------------------


def test_advertise_raw_single_slot():
    slots = advertise(b"0123456789", RAW)
    assert len(slots) == 1
    assert raw_read(slots) == [b"0123456789" + bytes(3)]


def test_advertise_framed_slot_counts():
    assert len(advertise(b"x" * 80, FRAMED)) == 7
    with pytest.raises(MessageTooLong):
        advertise(b"x" * 83, FRAMED)


def test_advertise_raw_multi_slot():
    assert len(advertise(b"x" * 91, RAW)) == 7
    assert len(advertise(b"x" * 14, RAW)) == 2
    assert len(advertise(b"", RAW)) == 1
    with pytest.raises(MessageTooLong):
        advertise(b"x" * 92, RAW)


# -- fetch_snapshot -----------------------------------------------------------


def test_fetch_snapshot_payload_first_truncation():
    slots = advertise(b"x" * 80, FRAMED)  # 7 slots
    records = fetch_snapshot(slots, (WELLKNOWN_SPP,) * 20)
    assert len(records) == 21
    assert records[:7] == slots
    assert records[7:] == [WELLKNOWN_SPP] * 14


def test_fetch_snapshot_small_table():
    assert len(fetch_snapshot(advertise(b"tiny", RAW), (WELLKNOWN_SPP,) * 2)) == 3


def test_fetch_snapshot_torn_mix_prefix_suffix():
    old_slots = advertise(b"o" * 82, FRAMED)
    slots = advertise(b"n" * 64, FRAMED)
    records = fetch_snapshot(slots, (), window=(0.0, 10.0), change=(old_slots, 5.0))
    headers = [(int(r[0], 16), int(r[1], 16)) for r in records]
    split = 1 + int(0.5 * 6)
    assert headers[:split] == [(i, 7) for i in range(split)]
    assert headers[split:] == [(i, 6) for i in range(split, 6)]


def test_fetch_snapshot_change_outside_window_is_clean():
    slots = advertise(b"n" * 64, FRAMED)
    for old_message, window, t_change in [
        (b"o" * 82, (6.0, 10.0), 5.0),  # before the window
        (b"o" * 82, (6.0, 10.0), 6.0),  # exactly at its start: the bounds are strict
        (b"o" * 82, (6.0, 10.0), 10.0),  # exactly at its end
        (b"o", (0.0, 10.0), 5.0),  # inside, but a one-slot old generation cannot tear
    ]:
        change = (advertise(old_message, FRAMED), t_change)
        assert fetch_snapshot(slots, (), window=window, change=change) == slots, t_change


# -- run ----------------------------------------------------------------------


def test_single_device_log_has_only_self_events():
    sc = Scenario(devices=[_device(A, message=b"solo")], duration_s=90.0)
    log = list(run(sc))
    assert _kinds(log) == {"RunStarted", "MessageChanged"}
    assert log[0].kind == "RunStarted"
    assert log[0].detail["scanners"] == {A: 30.0}
    assert all(e.observer == e.subject == A for e in log[1:])


def test_two_device_first_reassembly_within_60s():
    for seed in range(10):
        log = run(_two_device_scenario(), seed=seed)
        first = min(e.t for e in log if e.kind == "MessageReassembled")
        assert first <= 60.0
        assert first <= 18.0  # uniform(0,12) + 6 s fresh fetch


def test_determinism_same_seed_identical_logs():
    sc = _two_device_scenario()
    a = [e.to_json() for e in run(sc, seed=42)]
    b = [e.to_json() for e in run(sc, seed=42)]
    assert a == b


def test_different_seeds_differ():
    sc = _two_device_scenario()
    a = [e.to_json() for e in run(sc, seed=1)]
    b = [e.to_json() for e in run(sc, seed=2)]
    assert a != b


def test_partly_consumed_run_matches_a_fresh_one():
    # toggles-400 cut to 40 s moves and toggles devices before the cut of
    # the partial run, and again after it: each run keeps its own records
    toggles = toggle_layout()
    toggles = dataclasses.replace(
        toggles, duration_s=40.0, schedule=[m for m in toggles.schedule if m.t <= 40.0]
    )
    for sc, cut in ((_two_device_scenario(), 5), (toggles, 1500)):
        before = scenario_to_json(sc)
        partial = run(sc, seed=3)
        prefix = [next(partial) for _ in range(cut)]
        fresh = list(run(sc, seed=3))
        assert prefix == fresh[:cut]
        assert prefix + list(partial) == fresh  # the fresh run left the suspended one untouched
        assert scenario_to_json(sc) == before
    assert toggles.schedule[0].t < prefix[-1].t < toggles.schedule[-1].t


def _traced_peak_of_run(sc, duration_s):
    # A full collection empties the interpreter's float, tuple and dict free
    # lists, so each measured run starts alike, whatever ran before it.
    gc.collect()
    tracemalloc.start()
    try:
        for _ in run(sc, duration_s=duration_s):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_is_flat_in_run_length():
    # Events are yielded as they are emitted, so a run holds only its
    # devices and pending actions, never its log.
    sc = scenario_gen("crowd-20")
    list(run(sc, duration_s=10.0))  # first-call allocations stay out of the measurement
    short = _traced_peak_of_run(sc, 75.0)
    long = _traced_peak_of_run(sc, 300.0)  # about 3 500 and 11 640 events
    assert abs(long - short) <= 0.1 * short


def _colocated(n):
    """`n` advertising scanners at one spot: every scan finds all the others."""
    devices = [_device(f"aa:00:00:00:00:{k:02x}", message=b"m") for k in range(n)]
    return Scenario(devices=devices, duration_s=300.0)


def test_event_budget_stops_a_dense_run(monkeypatch):
    monkeypatch.setattr("sdpcast.sim.MAX_EVENTS", 1000)

    def consume():
        seen = []
        with pytest.raises(InvalidScenario, match="budget"):
            for event in run(_colocated(40), seed=1):
                seen.append(event)
        return seen

    first = consume()
    # it stops at the budget: a handler emits at most two events
    assert 1000 - 2 < len(first) <= 1000
    assert consume() == first  # and at the same event on every run


def test_run_does_not_mutate_input_scenario():
    sc = _two_device_scenario(
        schedule=[
            Mutation(t=10.0, device=A, action="set_message", message=b"now raw", mode=RAW),
            Mutation(t=20.0, device=B, action="set_position", position=(7.0, 1.0)),
            Mutation(t=40.0, device=B, action="set_discoverable", discoverable=False),
        ],
    )
    before = scenario_to_json(sc)
    devices = sc.devices
    log = list(run(sc, seed=5))
    changes = [e.detail for e in log if e.kind == "MessageChanged"]
    assert (changes[-1]["mode"], changes[-1]["message"]) == (RAW, b"now raw".hex())
    found_b = [e.detail["found"] for e in _discoveries(log, B)]
    assert found_b and max(found_b) < 40.0 + 12.0  # hidden from the scans after t=40
    assert scenario_to_json(sc) == before
    # the run set moved and toggled fields on its own record of each device, not on sc
    assert isinstance(devices, tuple) and isinstance(sc.schedule, tuple)
    assert sc.devices is devices
    assert all(a is b for a, b in zip(sc.devices, devices, strict=True))
    # and no field of any scenario class can be assigned
    fields = [
        (sc, "duration_s", 1.0),
        (sc.devices[0], "range_m", math.nan),
        (sc.schedule[0], "t", 1.0),
        (sc.timing, "inquiry_duration_s", 1.0),
        (sc.limits, "max_outbound_slots", 1),
    ]
    for value, name, new in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, new)


def test_hand_traced_event_times():
    # Advertiser with one chunk and no scanning; observer scans every 30 s.
    # Draw order is then one uniform(0, 12) per scan round (a one-record
    # shuffle consumes nothing), so event times are fully predictable.
    sc = Scenario(
        devices=[
            _device(A, position=(0.0, 0.0), scan_interval_s=None, message=b"hi b"),
            _device(B, position=(5.0, 0.0)),
        ],
        duration_s=100.0,
        seed=99,
    )
    log = list(run(sc))
    oracle = random.Random(99)
    expected_found = [30.0 * k + oracle.uniform(0.0, 12.0) for k in range(4)]
    assert [e.kind for e in _discoveries(log)] == ["UuidsFetched"] * 4
    found = [e.detail["found"] for e in _discoveries(log)]
    assert found == expected_found
    fetched = [e.t for e in log if e.kind == "UuidsFetched"]
    expected_fetched = [expected_found[0] + 6.0] + [t + 1.5 for t in expected_found[1:]]
    assert fetched == expected_fetched
    # every fetch reassembles the same generation to the same bytes, so only
    # the first is logged
    reassembled = [e for e in log if e.kind == "MessageReassembled"]
    assert [e.t for e in reassembled] == expected_fetched[:1]
    assert bytes.fromhex(reassembled[0].detail["message"]) == b"hi b"


def _cache_states(log):
    """(line, cached) for each discovery's line of `log`, in order.

    A discovery is cached exactly when a UuidsFetched of the same pair comes
    before its found time; every such line comes before its own in the log.
    """
    first_fetch, states = {}, []
    for event in _discoveries(log):
        pair = (event.observer, event.subject)
        states.append((event, first_fetch.get(pair, math.inf) < event.detail["found"]))
        if event.kind == "UuidsFetched":
            first_fetch.setdefault(pair, event.t)
    return states


def test_fetch_time_and_cache_state_follow_from_device_found(raw_torn_read):
    # The log holds no fetch latency or cache state: each discovery's line is
    # at its `found` time plus the latency of the state `_cache_states`
    # derives, whether the fetch completes or aborts. In the last scenario
    # B's round-0 fetch of A is cut off by A's move, so its round-1 fetch,
    # after A is back, is fresh although A was found before.
    aborted = _two_device_scenario(
        schedule=[
            Mutation(t=0.0, device=A, action="set_position", position=(500.0, 0.0)),
            Mutation(t=25.0, device=A, action="set_position", position=(0.0, 0.0)),
        ],
    )
    scenarios = [scenario_gen(name) for name in sorted(BUILTIN_SCENARIOS)]
    scenarios += [raw_torn_read, aborted]
    states = set()
    for sc in scenarios:
        timing = sc.timing
        for seed in (0, 1, 42):
            for line, cached in _cache_states(run(sc, seed=seed)):
                latency = timing.fetch_latency_cached_s if cached else timing.fetch_latency_fresh_s
                assert line.t == line.detail["found"] + latency, line
                states.add((line.kind, cached))
    assert states == {("UuidsFetched", False), ("UuidsFetched", True), ("FetchAborted", False)}


def test_event_json_key_order():
    # a line is the array of the event's fields in field order: t, kind,
    # observer, subject and detail
    log = list(run(_two_device_scenario(), seed=0))
    for event in log[:10]:
        assert json.loads(event.to_json()) == [*event]
        assert list(load_log([event.to_json()])) == [event]


def test_event_times_nondecreasing_and_bounded():
    for seed in (0, 7, 31):
        sc = _two_device_scenario()
        log = run(sc, seed=seed)
        times = [e.t for e in log]
        assert times == sorted(times)
        assert all(0.0 <= t <= sc.duration_s for t in times)


def test_found_precedes_fetch_per_round():
    # A discovery's line follows its found time, which lies within the
    # inquiry of one scan round of its observer, and each pair is found at
    # most once per round.
    log = list(run(_two_device_scenario(), seed=11))
    inquiry_s = _two_device_scenario().timing.inquiry_duration_s
    scans = _scan_rounds(log[0])
    rounds = set()
    for e in _discoveries(log):
        found = e.detail["found"]
        assert found < e.t
        (rnd,) = [r for s, r, t in scans if s == e.observer and t <= found < t + inquiry_s]
        key = (e.observer, e.subject, rnd)
        assert key not in rounds
        rounds.add(key)
    assert len(rounds) > 4


def test_inbound_record_cap_respected():
    subject = _device(
        A, scan_interval_s=None, message=b"x" * 80, wellknown_records=(WELLKNOWN_SPP,) * 30
    )
    sc = Scenario(
        devices=[subject, _device(B, position=(5.0, 0.0))],
        duration_s=60.0,
    )
    log = run(sc, seed=1)
    fetches = [e for e in log if e.kind == "UuidsFetched"]
    assert fetches
    assert all(len(e.detail["records"]) <= 21 for e in fetches)


def test_mid_flight_position_mutation_aborts_fetch():
    for seed in (0, 1, 2, 3):
        sc = Scenario(
            devices=[
                _device(A, scan_interval_s=None, message=b"going away"),
                _device(B, position=(5.0, 0.0)),
            ],
            duration_s=25.0,
            schedule=[
                Mutation(t=0.0, device=A, action="set_position", position=(500.0, 0.0)),
            ],
        )
        log = list(run(sc, seed=seed))
        (line,) = _discoveries(log)
        assert line.kind == "FetchAborted"
        assert line.t == line.detail["found"] + sc.timing.fetch_latency_fresh_s


def test_a_move_inside_the_fetch_window_writes_one_fetch_aborted():
    # B finds A in (0, 1) s, by the run's first draw, and A moves away at
    # t = 3, inside the fresh fetch's window: the discovery's one line is a
    # FetchAborted at the window's close that holds the found time.
    sc = Scenario(
        devices=[
            _device(A, scan_interval_s=None, message=b"going away"),
            _device(B, position=(5.0, 0.0)),
        ],
        duration_s=20.0,
        timing=TimingModel(inquiry_duration_s=1.0),
        schedule=[Mutation(t=3.0, device=A, action="set_position", position=(500.0, 0.0))],
    )
    for seed in (0, 1, 2):
        log = list(run(sc, seed=seed))
        found = random.Random(seed).uniform(0.0, 1.0)
        assert [e.kind for e in log] == ["RunStarted", "MessageChanged", "FetchAborted"]
        aborted = log[-1]
        assert aborted == SimEvent(found + 6.0, "FetchAborted", B, A, {"found": found})
        assert aborted.to_json() == (
            f'[{found + 6.0!r},"FetchAborted","{B}","{A}",{{"found":{found!r}}}]'
        )
        assert list(load_log([aborted.to_json()])) == [aborted]


def test_mid_flight_discoverable_toggle_aborts_fetch():
    # B scans at 0 and finds A in (0, 1) s; the fresh fetch completes in
    # (6, 7) s. A hidden at t = 3 is not fetched; shown again at t = 4, it is.
    hide = Mutation(t=3.0, device=A, action="set_discoverable", discoverable=False)
    show = Mutation(t=4.0, device=A, action="set_discoverable", discoverable=True)
    for schedule, fetches in (([hide], 0), ([hide, show], 1)):
        for seed in (0, 1, 2, 3):
            sc = Scenario(
                devices=[
                    _device(A, scan_interval_s=None, message=b"blinker"),
                    _device(B, position=(5.0, 0.0)),
                ],
                duration_s=20.0,
                timing=TimingModel(inquiry_duration_s=1.0),
                schedule=schedule,
            )
            log = list(run(sc, seed=seed))
            (line,) = _discoveries(log)
            assert 0.0 < line.detail["found"] < 1.0
            assert line.kind == ("UuidsFetched" if fetches else "FetchAborted")
            assert 6.0 < line.t < 7.0


def test_discoverable_toggle_controls_discovery():
    for seed in (0, 1, 2):
        sc = Scenario(
            devices=[
                _device(A, scan_interval_s=None, message=b"blinker"),
                _device(B, position=(5.0, 0.0)),
            ],
            duration_s=90.0,
            schedule=[
                Mutation(t=20.0, device=A, action="set_discoverable", discoverable=False),
                Mutation(t=45.0, device=A, action="set_discoverable", discoverable=True),
            ],
        )
        log = list(run(sc, seed=seed))
        found = [e.detail["found"] for e in _discoveries(log)]
        # round 0 finds it; round 1 (t=30) cannot; round 2 (t=60) finds again
        assert len(found) == 2
        assert found[0] < 12.0
        assert 60.0 <= found[1] < 72.0
        assert [cached for _, cached in _cache_states(log)] == [False, True]


def test_set_message_mutation_changes_payload():
    sc = Scenario(
        devices=[
            _device(A, scan_interval_s=None, message=b"first"),
            _device(B, position=(5.0, 0.0)),
        ],
        duration_s=100.0,
        schedule=[Mutation(t=40.0, device=A, action="set_message", message=b"second")],
    )
    log = list(run(sc, seed=8))
    changes = [e for e in log if e.kind == "MessageChanged"]
    assert [c.detail["generation"] for c in changes] == [1, 2]
    messages = {
        bytes.fromhex(e.detail["message"])
        for e in log
        if e.kind == "MessageReassembled"
    }
    assert messages == {b"first", b"second"}


def _expected_reassemblies(log):
    """The MessageReassembled events `log` should hold, and its fetches that reassemble nothing.

    Each UuidsFetched is decoded with the public unframe / raw_read, in the
    mode of its subject's latest MessageChanged, whose generation the
    reassembly carries. A fetch that decodes gives a MessageReassembled at
    its own time unless the last one expected of the same (observer,
    subject) has the same generation, mode and bytes.
    """
    latest, last, expected, torn = {}, {}, [], []
    for event in log:
        if event.kind == "MessageChanged":
            latest[event.subject] = event.detail
        if event.kind != "UuidsFetched" or event.subject not in latest:
            continue  # a subject that never advertised has no slots to reassemble
        change = latest[event.subject]
        records = event.detail["records"]
        if change["mode"] == RAW:
            outcome = sorted(p.hex() for p in raw_read(records)) or None
        else:
            try:
                outcome = unframe(records).hex()
            except ReassemblyError:
                outcome = None
        if outcome is None:
            torn.append(event)
            continue
        key = "payloads" if change["mode"] == RAW else "message"
        detail = {"generation": change["generation"], "mode": change["mode"], key: outcome}
        pair = (event.observer, event.subject)
        if last.get(pair) != detail:
            last[pair] = detail
            expected.append(SimEvent(event.t, "MessageReassembled", *pair, detail))
    return expected, torn


def test_torn_read_scenario_tears_every_seed():
    sc = scenario_gen("torn-read")
    old = sc.devices[0].message
    new = sc.schedule[0].message
    for seed in range(8):
        log = list(run(sc, seed=seed))
        reassembled = [e for e in log if e.kind == "MessageReassembled"]
        expected, torn = _expected_reassemblies(log)
        assert reassembled == expected
        assert len(torn) == 1
        assert 55.0 <= torn[0].t < 67.0
        totals = {int(r[1], 16) for r in torn[0].detail["records"]}
        indices = sorted(int(r[0], 16) for r in torn[0].detail["records"])
        assert len(totals) > 1 or indices != list(range(max(totals)))
        # one observer: a line for each generation, none for the torn read
        assert [bytes.fromhex(e.detail["message"]) for e in reassembled] == [old, new]


def test_fetched_records_decode_to_the_logged_reassemblies(
    same_records_scenarios, raw_torn_read
):
    # Oracle for the memoized fetch path and for the rule that drops a
    # pair's repeated line: the reassemblies that the public unframe /
    # raw_read derive from the fetches are exactly the logged ones.
    scenarios = [scenario_gen(name) for name in sorted(BUILTIN_SCENARIOS)] + [raw_torn_read]
    for sc in scenarios + same_records_scenarios:
        for seed in (0, 1, 2, 42):
            log = list(run(sc, seed=seed))
            expected, _ = _expected_reassemblies(log)
            assert [e for e in log if e.kind == "MessageReassembled"] == expected


def test_a_message_set_again_is_logged_once_per_generation(same_records_scenarios):
    # A re-sends the bytes it already advertises, so every fetch of A sees
    # the same records and reassembles the same message; B still logs the
    # new generation once, at its first fetch after the change, and the
    # report counts that delivery.
    sc = same_records_scenarios[1]
    log = list(run(sc, seed=3))
    change_t = sc.schedule[0].t
    fetches = [e.t for e in log if e.kind == "UuidsFetched" and e.subject == A]
    assert len(fetches) >= 4
    reassembled = [e for e in log if e.kind == "MessageReassembled" and e.subject == A]
    assert [(e.t, e.detail["generation"]) for e in reassembled] == [
        (fetches[0], 1),
        (min(t for t in fetches if t > change_t), 2),
    ]
    assert {e.detail["message"] for e in reassembled} == {b"from a".hex()}
    (pair,) = [p for p in build_report(log).latency.pairs if p.subject == A]
    assert len(pair.latencies) == 2


# -- spatial index ------------------------------------------------------------


class _BruteForceRunner(_Runner):
    """The all-pairs scan the grid replaces: every address, in sorted order."""

    def __init__(self, sc):
        super().__init__(sc)
        self.candidate_calls = 0

    def _candidates(self, node):
        self.candidate_calls += 1
        return sorted(self.devices)


def _grid_and_brute_force_logs(sc, seed):
    grid = [e.to_json() for e in run(sc, seed=seed)]
    brute_runner = _BruteForceRunner(dataclasses.replace(sc, seed=seed))
    brute_events = list(brute_runner.execute())
    # every scan went through the all-pairs override, so the oracle is not the grid itself
    assert brute_runner.candidate_calls == len(_scan_rounds(brute_events[0]))
    return grid, [e.to_json() for e in brute_events]


_RANGES = (1.0, 2.5, 7.3, 10.0, 33.3, 100.0)
# Layout origins: far from 0, float `x // cell` stops being the exact floor
# (from about 2**52 cells out), and at 1e300 a whole layout is a few floats.
_ORIGINS = (0.0, 1e6, -1e6, 1e16, -1e16, 4e16, -4e16, 1e17, -1e17, 1e300, -1e300)


def _cell_size(ranges):
    """The grid cell size the runner picks for devices of these ranges."""
    devices = [Device(address=f"aa:00:00:00:00:{k:02x}", range_m=r) for k, r in enumerate(ranges)]
    return _Runner(Scenario(devices=devices, duration_s=1.0)).cell_size


@st.composite
def _grid_scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    ranges = draw(st.lists(st.sampled_from(_RANGES), min_size=n, max_size=n))
    cell = _cell_size(ranges)
    origin = draw(st.sampled_from(_ORIGINS))
    base = math.floor(origin / cell)
    placed = []

    def on_cell_line():
        # a multiple of half the cell size near the origin, or one float
        # step off it: where rounding can put a pair at range two cells
        # apart if the cells are too small or the floor is inexact
        value = (2 * base + draw(st.integers(min_value=-8, max_value=8))) * (cell / 2)
        step = draw(st.sampled_from((None, -math.inf, math.inf)))
        return value if step is None else math.nextafter(value, step)

    def position(range_m):
        kind = draw(st.sampled_from(("uniform", "cell", "at_range")))
        if kind == "cell" or not placed:
            return (on_cell_line(), on_cell_line())
        if kind == "at_range":
            # on the edge of a placed device's disc: exactly the smaller
            # range away, along one axis
            (px, py), placed_range = draw(st.sampled_from(placed))
            r = min(placed_range, range_m)
            dx, dy = draw(st.sampled_from(((r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r))))
            return (px + dx, py + dy)
        span = 3.0 * cell
        return tuple(origin + draw(st.floats(min_value=-span, max_value=span)) for _ in "xy")

    devices = []
    for k, range_m in enumerate(ranges):
        pos = position(range_m)
        placed.append((pos, range_m))
        devices.append(
            Device(
                address=f"aa:00:00:00:00:{k:02x}",
                position=pos,
                range_m=range_m,
                scan_interval_s=draw(st.sampled_from((None, 7.0, 30.0))),
                discoverable=draw(st.booleans()),
                message=draw(st.binary(max_size=20)),
            )
        )
    duration = 70.0
    schedule = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        t = draw(st.floats(min_value=0.0, max_value=duration))
        k = draw(st.integers(min_value=0, max_value=n - 1))
        device = f"aa:00:00:00:00:{k:02x}"
        if draw(st.booleans()):
            pos = position(ranges[k])
            schedule.append(Mutation(t=t, device=device, action="set_position", position=pos))
        else:
            flag = draw(st.booleans())
            schedule.append(
                Mutation(t=t, device=device, action="set_discoverable", discoverable=flag)
            )
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return Scenario(devices=devices, duration_s=duration, schedule=schedule, seed=seed)


@settings(max_examples=80, deadline=None)
@given(_grid_scenarios())
@example(
    # exactly in range, yet two cells apart if cells were exactly one range wide
    Scenario(
        devices=[
            _device(A, position=(-5e-324, 0.0), message=b"a"),
            _device(B, position=(10.0, 0.0), message=b"b"),
        ],
        duration_s=30.0,
    )
)
@example(
    # 8 m apart, yet two cells apart if the cell index were float `x // cell`
    Scenario(
        devices=[
            _device(A, position=(-3.974646809685754e16, 0.0), message=b"a"),
            _device(B, position=(-3.9746468096857544e16, 0.0), message=b"b"),
        ],
        duration_s=30.0,
    )
)
def test_grid_scan_matches_brute_force_property(sc):
    grid, brute = _grid_and_brute_force_logs(sc, sc.seed)
    assert grid == brute


def test_grid_scan_matches_brute_force_on_builtins():
    for name in sorted(BUILTIN_SCENARIOS):
        for seed in (0, 1, 42):
            grid, brute = _grid_and_brute_force_logs(scenario_gen(name), seed)
            assert grid == brute, (name, seed)


def test_grid_scan_matches_brute_force_on_a_400_device_layout():
    # mixed ranges, some devices hidden at the start; moves across the whole
    # square and discoverability toggles through three scan rounds
    sc = toggle_layout()
    grid, brute = _grid_and_brute_force_logs(sc, 3)
    assert sum(',"UuidsFetched",' in line or ',"FetchAborted",' in line for line in grid) > 1000
    assert grid == brute


class _CountingRunner(_Runner):
    """The grid runner, recording how many candidates each scan examines."""

    def __init__(self, sc):
        super().__init__(sc)
        self.candidate_counts = []

    def _candidates(self, node):
        found = super()._candidates(node)
        self.candidate_counts.append(len(found))
        return found


def test_scan_examines_few_candidates_at_sparse_density():
    # sparse-1000's density: 1 000 devices, 10 m range, in a 600 m square,
    # one scan round. A 3x3 block of range-wide cells holds 2.5 devices on
    # average besides the scanner; cells twice as wide would hold 10.
    rng = random.Random(1000)
    devices = [
        Device(
            address=address(k),
            position=(rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0)),
            range_m=10.0,
            scan_interval_s=30.0,
        )
        for k in range(1000)
    ]
    runner = _CountingRunner(Scenario(devices=devices, duration_s=25.0))
    scans = len(_scan_rounds(list(runner.execute())[0]))
    assert scans == len(runner.candidate_counts) == 1000
    assert sum(runner.candidate_counts) / scans <= 5.0


class _ScanRecorder(_Runner):
    """The runner, recording (scanner, round, t) of each scan it runs."""

    def __init__(self, sc):
        super().__init__(sc)
        self.scans, self.rounds = [], {}

    def _on_scan(self, t, address):
        rnd = self.rounds[address] = self.rounds.get(address, -1) + 1
        self.scans.append((address, rnd, t))
        super()._on_scan(t, address)


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_rounds_follow_from_the_header():
    # No event marks a scan, so `_scan_rounds` must find exactly the runner's.
    workloads = _bench_workloads()
    scenarios = [scenario_gen(name) for name in sorted(BUILTIN_SCENARIOS)]
    scenarios += [
        workloads.sparse_1000(sdpcast, random.Random(0)),
        workloads.churn_400(sdpcast, random.Random(0)),
        # 0.1 added seven times is 0.7, so the sums give 8 rounds, where
        # duration_s // interval + 1 gives 7
        Scenario(devices=[_device(A, scan_interval_s=0.1)], duration_s=0.7),
    ]
    for sc in scenarios:
        runner = _ScanRecorder(sc)
        events = runner.execute()
        header = next(events)
        for _ in events:
            pass
        assert sorted(_scan_rounds(header)) == sorted(runner.scans), sc.name
    assert len(runner.scans) == 8


def test_node_set_in_place_equals_a_checked_replace():
    # The runner sets a moved or toggled device's field on its _Node in place,
    # unchecked; for every such mutation of churn-400 and toggles-400, applied
    # in turn, the node's Device fields equal those of what
    # dataclasses.replace builds and checks, down to value types.
    fields = [f.name for f in dataclasses.fields(Device) if f.name in _Node.__slots__]
    assert fields == [
        "address", "position", "range_m", "scan_interval_s", "discoverable", "mode",
        "wellknown_records",
    ]
    churn = _bench_workloads().churn_400(sdpcast, random.Random(0))
    for sc in (churn, toggle_layout()):
        runner = _Runner(sc)
        devices = {d.address: d for d in sc.devices}
        moves = [m for m in sc.schedule if m.action != "set_message"]
        assert len(moves) >= 400
        for mut in sorted(moves, key=lambda m: m.t):
            runner._on_mutate(mut.t, mut)
            field = "position" if mut.action == "set_position" else "discoverable"
            checked = dataclasses.replace(devices[mut.device], **{field: getattr(mut, field)})
            devices[mut.device] = checked
            node = runner.devices[mut.device]
            got = [getattr(node, name) for name in fields]
            want = [getattr(checked, name) for name in fields]
            assert got == want and repr(got) == repr(want)
            assert [type(v) for v in got] == [type(v) for v in want]


def test_set_position_moves_device_between_grid_cells():
    # B starts 500 m away, many cells from A; it moves next to A before A's
    # second scan and away again before the third.
    sc = Scenario(
        devices=[
            _device(A, position=(0.0, 0.0), message=b"scanner"),
            _device(B, position=(500.0, 0.0), scan_interval_s=None, message=b"mover"),
        ],
        duration_s=80.0,
        schedule=[
            Mutation(t=10.0, device=B, action="set_position", position=(5.0, 0.0)),
            Mutation(t=50.0, device=B, action="set_position", position=(500.0, 0.0)),
        ],
    )
    for seed in (0, 1, 2):
        log = list(run(sc, seed=seed))
        rounds = [_found_round(log[0], e.observer, e.detail["found"]) for e in _discoveries(log)]
        assert rounds == [1]


# -- scenario validation and serialization ------------------------------------


def test_scenario_json_round_trip_builtins():
    for name in ("two-device-default", "crowd-20", "out-of-range", "torn-read"):
        sc = scenario_gen(name)
        text = scenario_to_json(sc)
        assert scenario_from_json(text) == sc
        assert scenario_to_json(scenario_from_json(text)) == text


def test_scenario_rejects_unknown_keys():
    base = json.loads(scenario_to_json(scenario_gen("two-device-default")))
    for mangle in (
        lambda o: o.update(surprise=1),
        lambda o: o["timing"].update(warp_factor=9),
        lambda o: o["limits"].update(extra=1),
        lambda o: o["devices"][0].update(altitude=3.0),
        lambda o: o["schedule"][0].update(reason="because"),
        # malformed values, which must not escape as other exceptions
        lambda o: o["devices"][0].update(position=["a", 0.0]),
        lambda o: o["devices"][0].update(range_m="a"),
        lambda o: o.update(seed="a"),
        lambda o: o["schedule"][0].update(t="a"),
        lambda o: o.update(devices=5),
        lambda o: o.update(timing=[]),
        lambda o: o.update(duration_s=float("inf")),
        lambda o: o["devices"][0].update(position=[float("nan"), 0.0]),
        lambda o: o["schedule"][0].update(
            action="set_position", message=None, position=[0.0, float("inf")]
        ),
        lambda o: o["limits"].update(max_inbound_records=float("inf")),
        # messages that do not fit, or a mode that does not exist, fail at load
        lambda o: o["limits"].update(max_outbound_slots=1),
        lambda o: o["schedule"][0].update(mode="bogus"),
        # JSON values of the wrong type are rejected, never converted
        lambda o: o["devices"][1].update(discoverable="false"),
        lambda o: o.update(torn_read_mode="false"),
        lambda o: o["schedule"][0].update(
            action="set_discoverable", message=None, discoverable="false"
        ),
        lambda o: o.update(name=5),
        lambda o: o["devices"][0].update(wellknown_records=[5, None]),
        # runs that would not end in reasonable time exceed the scan budget
        lambda o: o["devices"][0].update(scan_interval_s=1e-6),
        lambda o: o.update(duration_s=2**64),
    ):
        obj = json.loads(json.dumps(base))
        mangle(obj)
        with pytest.raises(InvalidScenario):
            scenario_from_json(json.dumps(obj))


def test_scenario_requires_devices_and_duration():
    with pytest.raises(InvalidScenario):
        scenario_from_json(json.dumps({"duration_s": 10.0}))
    with pytest.raises(InvalidScenario):
        scenario_from_json(json.dumps({"devices": []}))
    with pytest.raises(InvalidScenario):
        scenario_from_json("not json at all")
    with pytest.raises(InvalidScenario):
        scenario_from_json("[1, 2]")
    with pytest.raises(InvalidScenario):
        scenario_from_json("[" * 100_000)  # deeper than the parser's recursion limit


def test_scenario_rejects_bad_values():
    with pytest.raises(InvalidScenario):
        _device("not-a-mac")
    with pytest.raises(InvalidScenario):
        _device(A, range_m=200.0)
    with pytest.raises(InvalidScenario):
        _device(A, range_m=0.5)
    with pytest.raises(InvalidScenario):
        _device(A, scan_interval_s=0.0)
    with pytest.raises(InvalidScenario):
        _device(A, mode="framedish")
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A)], duration_s=0.0)
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A), _device(A)], duration_s=10.0)
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A)], duration_s=10.0, seed=-1)
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A)], duration_s=10.0, seed=2**64)
    with pytest.raises(InvalidScenario):
        TimingModel(fetch_latency_fresh_s=1.0, fetch_latency_cached_s=2.0)
    with pytest.raises(InvalidScenario):
        TimingModel(inquiry_duration_s=0.0)
    # wrongly typed values are rejected, not converted
    with pytest.raises(InvalidScenario):
        _device(A, discoverable="false")
    with pytest.raises(InvalidScenario):
        _device(A, message="6869")  # bytes, not hex: hex is only the file form
    with pytest.raises(InvalidScenario):
        _device(A, wellknown_records=WELLKNOWN_SPP)  # a string, not a list of them
    with pytest.raises(InvalidScenario):
        _device(A, range_m=True)
    with pytest.raises(InvalidScenario):
        Mutation(t=1.0, device=A, action="set_discoverable", discoverable=0)
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A)], duration_s=10.0, seed=True)
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A)], duration_s=10.0, torn_read_mode=1)
    # nested values must be of their classes: a file cannot produce these
    nested = [
        dict(devices=None),
        dict(devices=["x"]),
        dict(devices=[_device(A)], schedule=None),
        dict(devices=[_device(A)], schedule=[{"t": 1.0}]),
        dict(devices=[], timing=5),
        dict(devices=[], limits=5),
    ]
    for kw in nested:
        with pytest.raises(InvalidScenario):
            Scenario(duration_s=1.0, **kw)


def test_scenario_rejects_bad_schedule():
    devs = lambda: [_device(A)]
    with pytest.raises(InvalidScenario):
        Mutation(t=1.0, device=A, action="explode")
    with pytest.raises(InvalidScenario):
        Mutation(t=1.0, device=A, action="set_message")  # missing message
    with pytest.raises(InvalidScenario):
        Scenario(
            devices=devs(),
            duration_s=10.0,
            schedule=[Mutation(t=11.0, device=A, action="set_message", message=b"x")],
        )
    with pytest.raises(InvalidScenario):
        Scenario(
            devices=devs(),
            duration_s=10.0,
            schedule=[Mutation(t=1.0, device=B, action="set_message", message=b"x")],
        )
    # a value field the action does not read is refused, never ignored; null is fine
    with pytest.raises(InvalidScenario, match="takes no message"):
        Mutation(
            t=1.0,
            device=A,
            action="set_position",
            position=(1.0, 2.0),
            message=b"x" * 500,
            mode="raw",
            discoverable=False,
        )
    for action, value, extra in (
        ("set_position", dict(position=(1.0, 2.0)), dict(message=b"x")),
        ("set_position", dict(position=(1.0, 2.0)), dict(mode=RAW)),
        ("set_discoverable", dict(discoverable=True), dict(mode=FRAMED)),
        ("set_discoverable", dict(discoverable=True), dict(position=(1.0, 2.0))),
        ("set_message", dict(message=b"x"), dict(discoverable=False)),
        ("set_message", dict(message=b"x"), dict(position=(1.0, 2.0))),
    ):
        with pytest.raises(InvalidScenario, match="takes no"):
            Mutation(t=1.0, device=A, action=action, **value, **extra)
        nulls = {name: None for name in extra}
        assert Mutation(t=1.0, device=A, action=action, **value, **nulls).action == action


@pytest.mark.parametrize("action", ["explode", None, 3, [], {}, ["set_message"]])
def test_unknown_schedule_action_is_invalid_not_a_type_error(action):
    with pytest.raises(InvalidScenario, match="unknown action"):
        Mutation(t=1.0, device=A, action=action, message=b"x")


def test_scenario_checks_capacity_in_the_mode_each_message_is_sent_in():
    long_raw = b"x" * 90  # fits raw (91), not framed (82)

    def scenario(t_raw, t_long):
        return Scenario(
            devices=[_device(A, message=b"m")],
            duration_s=100.0,
            schedule=[
                Mutation(t=t_long, device=A, action="set_message", message=long_raw),
                Mutation(t=t_raw, device=A, action="set_message", message=b"r", mode=RAW),
            ],
        )

    # the mode switch to raw comes first, so the long message is sent raw
    log = run(scenario(t_raw=10.0, t_long=20.0))
    last = [e.detail for e in log if e.kind == "MessageChanged"][-1]
    assert (last["mode"], last["message"]) == (RAW, long_raw.hex())
    with pytest.raises(InvalidScenario):
        scenario(t_raw=20.0, t_long=10.0)
    with pytest.raises(InvalidScenario):
        scenario(t_raw=10.0, t_long=10.0)  # same time: schedule order decides
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A, message=b"x" * 83)], duration_s=10.0)
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A, message=b"x" * 92, mode=RAW)], duration_s=10.0)
    with pytest.raises(InvalidScenario):
        Mutation(t=1.0, device=A, action="set_message", message=b"x", mode="bogus")


def test_declared_raw_mode_applies_without_an_initial_message():
    # 90 octets fit raw (91), not framed (82); the modeless set_message keeps
    # the device's declared mode although it advertised nothing at t=0
    sc = Scenario(
        devices=[_device(A, mode=RAW)],
        duration_s=10.0,
        schedule=[Mutation(t=5.0, device=A, action="set_message", message=b"x" * 90)],
    )
    sc = scenario_from_json(scenario_to_json(sc))
    (changed,) = [e.detail for e in run(sc) if e.kind == "MessageChanged"]
    assert changed == {"generation": 1, "mode": RAW, "message": (b"x" * 90).hex()}


def test_scenario_rejects_bad_message_hex():
    obj = json.loads(scenario_to_json(scenario_gen("two-device-default")))
    obj["devices"][0]["message"] = "zz"
    with pytest.raises(InvalidScenario):
        scenario_from_json(json.dumps(obj))


def test_address_case_insensitive():
    dev = _device("AA:00:00:00:00:0F")
    assert dev.address == "aa:00:00:00:00:0f"
    mut = Mutation(t=1.0, device="AA:00:00:00:00:0F", action="set_discoverable", discoverable=True)
    assert mut.device == "aa:00:00:00:00:0f"


def test_scan_budget_bounds_scenarios_and_overrides():
    def one_scanner(duration_s):
        return Scenario(devices=[_device(A, scan_interval_s=1.0)], duration_s=duration_s)

    one_scanner(float(MAX_SCANS - 1))  # scans at t = 0, 1, ..., MAX_SCANS - 1
    with pytest.raises(InvalidScenario):
        one_scanner(float(MAX_SCANS))
    with pytest.raises(InvalidScenario):
        run(_two_device_scenario(), duration_s=2.0**64)
    # 1e300 + 1e-300 is 1e300: a count that did not stop at the budget would never end
    with pytest.raises(InvalidScenario):
        Scenario(devices=[_device(A, scan_interval_s=1e-300)], duration_s=1e300)


def test_scan_budget_counts_the_runners_float_sums(monkeypatch):
    # 0.1 added seven times is 0.7, so the runner scans 8 times, where
    # duration_s // interval + 1 counts 7
    monkeypatch.setattr(sdpcast.model, "MAX_SCANS", 7)
    with pytest.raises(InvalidScenario, match="more than the budget of 7"):
        Scenario(devices=[_device(A, scan_interval_s=0.1)], duration_s=0.7)
    Scenario(devices=[_device(A, scan_interval_s=0.1)], duration_s=0.6)


def test_duration_override_revalidates_schedule():
    sc = Scenario(
        devices=[_device(A, message=b"m")],
        duration_s=100.0,
        schedule=[Mutation(t=50.0, device=A, action="set_message", message=b"n")],
    )
    with pytest.raises(InvalidScenario):
        run(sc, duration_s=40.0)


def test_seed_override_validated():
    sc = _two_device_scenario()
    with pytest.raises(InvalidScenario):
        run(sc, seed=2**64)
