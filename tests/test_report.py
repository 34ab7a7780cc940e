"""Report aggregation tests."""

import dataclasses
import gc
import json
import math
import random
import tracemalloc

import pytest

import sdpcast
from sdpcast import (
    BUILTIN_SCENARIOS,
    RAW,
    CapacityLimits,
    Device,
    FetchBandwidth,
    MalformedLog,
    Scenario,
    SdpcastError,
    SimEvent,
    advertise,
    build_report,
    format_lines,
    format_text,
    frame,
    load_log,
    raw_read,
    run,
    scenario_gen,
    unframe,
)

from test_sim import _bench_workloads

A = "aa:00:00:00:00:01"
B = "aa:00:00:00:00:02"
UUID = "01000268-6900-4000-8000-00000000c0de"
_LIMITS = {"max_outbound_slots": 7, "max_inbound_records": 21}
_HEADER = {"duration_s": 60.0, "limits": _LIMITS, "scanners": {A: 30.0}}


def _header(**changes):
    """A RunStarted header: `_HEADER` with `changes` to its detail."""
    return SimEvent(0.0, "RunStarted", "", "", {**_HEADER, **changes})


def _two_device_log(seed=0):
    return list(run(scenario_gen("two-device-default"), seed=seed))


def test_empty_log_empty_report():
    report = build_report([_header(scanners={})])
    assert report.latency.pairs == ()
    assert report.latency.changes_total == 0
    assert report.latency.fraction_within == 1.0
    assert report.bandwidth.devices == ()
    assert report.bandwidth.fetches == ()
    assert report.latency.changes_misdelivered == 0


def test_two_device_fraction_is_one():
    report = build_report(_two_device_log())
    lat = report.latency
    assert lat.changes_total == 5  # 2 initial + 3 scheduled, one observer each
    assert lat.changes_delivered == 5
    assert lat.changes_within_threshold == 5
    assert lat.fraction_within == 1.0


def test_latencies_nonnegative_and_bounded():
    for seed in (0, 5, 9):
        report = build_report(_two_device_log(seed))
        for pair in report.latency.pairs:
            assert pair.first_discovery_s is not None
            for latency in pair.latencies:
                assert 0.0 <= latency <= 300.0
            assert pair.min_s <= pair.median_s <= pair.max_s


def test_raw_seven_slot_advertiser_bandwidth():
    sc = Scenario(
        devices=[
            Device(address=A, scan_interval_s=None, message=b"r" * 91, mode=RAW),
            Device(address=B, position=(5.0, 0.0)),
        ],
        duration_s=60.0,
    )
    report = build_report(run(sc, seed=4))
    (dev,) = report.bandwidth.devices
    assert dev.device == A
    assert dev.slots == 7
    assert dev.advertised_octets == 91
    assert dev.utilization == 1.0
    assert report.bandwidth.fetches
    for fetch in report.bandwidth.fetches:
        assert fetch.payload_records == 7
        assert fetch.decoded_octets == 91
    assert report.latency.changes_delivered == 1
    assert report.latency.changes_misdelivered == 0
    reassembled = [e for e in run(sc, seed=4) if e.kind == "MessageReassembled"]
    assert reassembled
    payloads = reassembled[0].detail["payloads"]
    assert b"".join(bytes.fromhex(p) for p in sorted(payloads)) != b""


def test_bandwidth_is_measured_against_the_logged_limits():
    # 150 octets take ceil(152 / 12) = 13 framed chunks: over the default 7
    # slots, within the 15 this scenario's limits allow.
    sc = Scenario(
        devices=[
            Device(address=A, scan_interval_s=None, message=b"m" * 150),
            Device(address=B, position=(5.0, 0.0)),
        ],
        duration_s=60.0,
        limits=CapacityLimits(max_outbound_slots=15, max_inbound_records=30),
    )
    report = build_report(run(sc, seed=1))
    text = format_text(report)
    assert f"  {A}: 13 slots, 169 octets advertised (86.7% of 195)\n" in text
    assert "(ceiling 390)" in text
    bw = report.bandwidth
    assert (bw.outbound_ceiling, bw.inbound_ceiling) == (195, 390)
    assert bw.fetches
    for fetch in bw.fetches:
        assert fetch.decoded_octets == 169
        assert fetch.utilization == 169 / 390


def test_report_requires_one_header_first():
    header, changed = _header(), SimEvent(0.0, "MessageChanged", A, A, _CHANGED)
    first = "a log must begin with its RunStarted header; this one "
    second = "a log holds one RunStarted header; a second one is at "
    for events, message in (
        ([], first + "is empty"),
        ([changed], first + "begins with a MessageChanged"),
        ([changed, header], first + "begins with a MessageChanged"),
        ([header, header], second + "t=0.0"),
        ([header, changed, header._replace(t=5.0)], second + "t=5.0"),
    ):
        with pytest.raises(MalformedLog) as excinfo:
            build_report(load_log([event.to_json() for event in events]))
        assert str(excinfo.value) == message


def test_ceilings_respected_on_crowd():
    report = build_report(run(scenario_gen("crowd-20"), seed=2))
    for dev in report.bandwidth.devices:
        assert dev.advertised_octets <= report.bandwidth.outbound_ceiling == 91
    for fetch in report.bandwidth.fetches:
        assert fetch.decoded_octets <= report.bandwidth.inbound_ceiling == 273
        assert fetch.records <= 21


def test_delivered_bytes_match_advertised_on_builtins():
    for name in ("two-device-default", "crowd-20", "torn-read"):
        report = build_report(run(scenario_gen(name), seed=6))
        assert report.latency.changes_misdelivered == 0
        assert report.latency.changes_delivered > 0


def _without(events, kind):
    return [event for event in events if event.kind != kind]


def test_spliced_reassembly_is_misdelivered():
    # Two 7-chunk generations: a snapshot torn between them reassembles
    # without error into bytes that neither generation advertised. The
    # report derives both reassemblies from the fetched records, so it
    # reads the same whether or not the log holds their MessageReassembled.
    old, new = b"o" * 80, b"n" * 80
    old_chunks, new_chunks = frame(old), frame(new)
    assert len(old_chunks) == len(new_chunks) == 7
    splice = unframe(old_chunks[:3] + new_chunks[3:])
    assert splice not in (old, new)

    def changed(t, generation, message):
        detail = {"generation": generation, "mode": "framed", "message": message.hex()}
        return SimEvent(t, "MessageChanged", A, A, detail)

    def fetched(t, found, records):
        return SimEvent(t, "UuidsFetched", B, A, {"found": found, "records": records})

    def reassembled(t, message):
        detail = {"generation": 2, "mode": "framed", "message": message.hex()}
        return SimEvent(t, "MessageReassembled", B, A, detail)

    # B scans at 0, 30, 60 and 90 s, so its last fetch ends by 120 s
    full = [
        _header(scanners={B: 30.0}, duration_s=120.0),
        changed(0.0, 1, old),
        changed(10.0, 2, new),
        fetched(12.0, 5.0, old_chunks[:3] + new_chunks[3:]),
        reassembled(12.0, splice),
        fetched(40.0, 35.0, new_chunks[::-1]),
        reassembled(40.0, new),
    ]
    for log in (full, _without(full, "MessageReassembled")):
        lat = build_report(log).latency
        assert lat.changes_misdelivered == 1
        assert lat.changes_delivered == 1
        assert [pair.latencies for pair in lat.pairs] == [(30.0,)]
        assert [pair.first_discovery_s for pair in lat.pairs] == [5.0]

    for log in (full[:-2], _without(full[:-2], "MessageReassembled")):
        lat = build_report(log).latency
        assert lat.changes_misdelivered == 1
        assert lat.changes_delivered == 0
        assert lat.changes_within_threshold == 0
        assert [pair.latencies for pair in lat.pairs] == [()]

    # A pair is credited once per generation: the exact reads of generation 2
    # after the first, with splices between them, add no delivery.
    again = [
        *full[:3],
        fetched(20.0, 15.0, new_chunks),
        reassembled(20.0, new),
        fetched(40.0, 35.0, old_chunks[:3] + new_chunks[3:]),
        reassembled(40.0, splice),
        fetched(70.0, 65.0, new_chunks[::-1]),
        reassembled(70.0, new),
        fetched(100.0, 95.0, new_chunks[3:] + old_chunks[:3]),
        reassembled(100.0, splice),
    ]
    for log in (again, _without(again, "MessageReassembled")):
        lat = build_report(log).latency
        assert lat.changes_misdelivered == 2
        assert lat.changes_delivered == 1
        assert lat.changes_within_threshold == 1
        assert [pair.latencies for pair in lat.pairs] == [(10.0,)]
        assert [pair.first_discovery_s for pair in lat.pairs] == [15.0]


def _lines(events):
    return [event.to_json() for event in events]


def test_report_reads_nothing_from_reassembly_lines(same_records_scenarios, raw_torn_read):
    # The report derives every delivery from MessageChanged and UuidsFetched,
    # so a log without its MessageReassembled lines reports the same.
    for sc in [raw_torn_read, *same_records_scenarios]:
        for seed in (0, 1, 2, 42):
            log = list(run(sc, seed=seed))
            assert any(event.kind == "MessageReassembled" for event in log)
            full = build_report(load_log(_lines(log)))
            bare = build_report(load_log(_lines(_without(log, "MessageReassembled"))))
            assert format_lines(bare) == format_lines(full)
            assert format_text(bare) == format_text(full)


def test_a_log_without_fetches_credits_nothing():
    log = _two_device_log(1)
    assert build_report(log).latency.changes_delivered == 5
    # a MessageReassembled with no fetch before it is malformed
    with pytest.raises(MalformedLog, match="^the MessageReassembled at t="):
        build_report(load_log(_lines(_without(log, "UuidsFetched"))))
    fetchless = [e for e in log if e.kind not in ("UuidsFetched", "MessageReassembled")]
    report = build_report(load_log(_lines(fetchless)))
    assert report.latency.changes_total == 5
    assert report.latency.changes_delivered == 0
    assert report.latency.changes_misdelivered == 0
    assert report.bandwidth.fetches == ()


def test_raw_torn_read_is_misdelivered(raw_torn_read):
    for seed in range(4):
        lat = build_report(run(raw_torn_read, seed=seed)).latency
        assert lat.changes_misdelivered == 1
        assert lat.changes_delivered == 2


def test_torn_read_between_same_sized_generations_is_misdelivered():
    # torn-read with a 7-chunk new generation in place of its 6-chunk one:
    # the round-1 fetch splices the two into bytes neither advertised, and
    # the framing checks cannot tell, since the totals agree
    sc = scenario_gen("torn-read")
    new_message = b"new generation: " + b"y" * 66
    assert len(frame(new_message)) == len(frame(sc.devices[0].message)) == 7
    change = dataclasses.replace(sc.schedule[0], message=new_message)
    spliced = dataclasses.replace(sc, schedule=[change])
    for seed in range(200):
        assert build_report(run(spliced, seed=seed)).latency.changes_misdelivered == 1, seed


def test_fetch_payload_counts_match_raw_read(same_records_scenarios, raw_torn_read):
    # Oracle for the per-subject snapshot memo of log.Deliveries: each fetch
    # counts what an un-memoized raw_read of its records finds.
    scenarios = [scenario_gen(name) for name in sorted(BUILTIN_SCENARIOS)] + [raw_torn_read]
    for sc in scenarios + same_records_scenarios:
        for seed in (0, 1, 2, 42):
            lines = [event.to_json() for event in run(sc, seed=seed)]
            fetched = [e.detail["records"] for e in load_log(lines) if e.kind == "UuidsFetched"]
            fetches = build_report(load_log(lines)).bandwidth.fetches
            assert len(fetches) == len(fetched)
            for fetch, records in zip(fetches, fetched):
                assert fetch.payload_records == len(raw_read(records))
                assert fetch.decoded_octets == 13 * fetch.payload_records


def test_out_of_range_zero_deliveries():
    report = build_report(run(scenario_gen("out-of-range"), seed=1))
    assert report.latency.changes_total == 2
    assert report.latency.changes_delivered == 0
    assert report.latency.fraction_within == 0.0
    assert report.latency.pairs == ()
    assert report.bandwidth.fetches == ()


def test_report_is_deterministic():
    log = _two_device_log(7)
    assert build_report(log) == build_report(log)


def test_threshold_must_be_finite_and_non_negative():
    for threshold in (math.nan, math.inf, -5.0, True, "60", None, 10**400):
        with pytest.raises(SdpcastError, match="threshold"):
            build_report([], threshold_s=threshold)
    # the report holds the threshold as a float, and zero without a sign
    for threshold, held in ((0.0, "0.0"), (-0.0, "0.0"), (0, "0.0"), (60, "60.0"), (0.5, "0.5")):
        report = build_report([_header()], threshold_s=threshold)
        assert repr(report.latency.threshold_s) == held
        assert f'"threshold_s":{held},' in format_lines(report)
    assert "within 0 s" in format_text(build_report([_header()], threshold_s=-0.0))


def test_report_of_a_log_file_holds_little_beyond_the_report(tmp_path):
    # load_log yields one event per line as build_report folds it in, so
    # the traced peak stays within a margin far below the log's size.
    path = tmp_path / "crowd.jsonl"
    events = run(scenario_gen("crowd-20"), seed=1, duration_s=300.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(event.to_json() + "\n" for event in events)
    assert path.stat().st_size > 10**6
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            report = build_report(load_log(fh))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.bandwidth.fetches) == 3800
    assert peak - retained < 512 * 1024


def test_report_memory_grows_little_per_fetch(tmp_path):
    # A report keeps four numbers per fetch, not a record with its own
    # strings, so what stays allocated grows by a few machine words a fetch.
    paths = {}
    for seconds in (150.0, 600.0):
        paths[seconds] = tmp_path / f"crowd-{seconds:g}.jsonl"
        with open(paths[seconds], "w", encoding="utf-8") as fh:
            events = run(scenario_gen("crowd-20"), seed=1, duration_s=seconds)
            fh.writelines(event.to_json() + "\n" for event in events)

    def retained(path):
        gc.collect()
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                report = build_report(load_log(fh))
            return len(report.bandwidth.fetches), tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    retained(paths[150.0])  # leaves what a first report sets up once out of the difference
    (short, short_bytes), (long, long_bytes) = retained(paths[150.0]), retained(paths[600.0])
    assert (short, long) == (1900, 7600)
    assert (long_bytes - short_bytes) / (long - short) <= 64


def _fetch_oracle(events):
    """The report's fetches as the tuple they were: one FetchBandwidth per
    UuidsFetched, its payload count from raw_read."""
    ceiling = CapacityLimits(**events[0].detail["limits"]).inbound_ceiling
    oracle = []
    for e in events:
        if e.kind == "UuidsFetched":
            payload_records = len(raw_read(e.detail["records"]))
            decoded_octets = 13 * payload_records
            oracle.append(FetchBandwidth(
                e.t, e.observer, e.subject, len(e.detail["records"]), payload_records,
                decoded_octets, decoded_octets / ceiling,
            ))
    return tuple(oracle)


def test_fetches_read_as_the_tuple_of_records():
    churn_400 = _bench_workloads().churn_400(sdpcast, random.Random(0))
    for sc in (scenario_gen("crowd-20"), churn_400):
        lines = [event.to_json() for event in run(sc, seed=1)]
        oracle = _fetch_oracle(list(load_log(lines)))
        fetches = build_report(load_log(lines)).bandwidth.fetches
        assert len(oracle) > 1000
        assert len(fetches) == len(oracle)
        assert list(fetches) == list(oracle)  # in log order
        assert all(type(fetch) is FetchBandwidth for fetch in fetches)
        assert tuple(fetches) == oracle
        assert fetches == oracle and oracle == fetches and not fetches != oracle
        assert fetches != oracle[:-1] and fetches != ()
        assert fetches == build_report(load_log(lines)).bandwidth.fetches
    assert build_report([_header()]).bandwidth.fetches == ()


def test_load_log_round_trip():
    log = _two_device_log(3)
    lines = [e.to_json() + "\n" for e in log]
    assert list(load_log(lines)) == log


def test_load_log_skips_blank_lines():
    log = _two_device_log(3)
    lines = [e.to_json() + "\n" for e in log[:3]]
    lines.insert(1, "\n")
    assert list(load_log(lines)) == log[:3]


def test_load_log_reports_line_numbers():
    log = _two_device_log(3)
    lines = [e.to_json() for e in log[:3]]
    for broken in ("{broken", "[" * 100_000):
        lines[1] = broken
        with pytest.raises(MalformedLog, match="line 2"):
            list(load_log(lines))


def test_load_log_rejects_unknown_kind():
    # PayloadDecoded, ScanStarted and DeviceFound were kinds of older logs;
    # they are derivable from UuidsFetched, from the RunStarted header and
    # from the found time of a discovery's one line.
    for kind in ("Mystery", "PayloadDecoded", "ScanStarted", "DeviceFound"):
        with pytest.raises(MalformedLog, match="line 1"):
            list(load_log([_line(kind, {})]))


def test_load_log_rejects_a_device_found_line():
    # A DeviceFound line as logs held it before a discovery took one line.
    log = _lines(_two_device_log(1))
    old = f'[1.6123709293488147,"DeviceFound","{A}","{B}",{{"round":0}}]'
    with pytest.raises(MalformedLog) as excinfo:
        list(load_log([log[0], old, *log[1:]]))
    assert str(excinfo.value) == "line 2: event: 'kind' is missing or malformed: 'DeviceFound'"


def test_load_log_rejects_a_found_time_that_is_no_finite_number():
    # The first fetch's line of a run, with its found time edited: a bool, a
    # NaN, an infinity or a string is no time, though json reads each.
    log = _lines(_two_device_log(1))
    k = next(i for i, line in enumerate(log) if '"UuidsFetched"' in line)
    found = json.loads(log[k])[4]["found"]
    assert isinstance(found, float)
    for text in ("true", "false", "NaN", "Infinity", '"1.5"', "null"):
        edited = log[k].replace(f'"found":{found!r}', f'"found":{text}')
        assert edited != log[k]
        with pytest.raises(MalformedLog) as excinfo:
            list(load_log([*log[:k], edited]))
        assert str(excinfo.value) == (
            f"line {k + 1}: UuidsFetched detail: 'found' is missing or malformed: "
            f"{json.loads(text)!r}"
        )


def test_first_discovery_is_the_least_found_time():
    # B's discovery of A found at t = 5 aborts at 11; one found at 2 completes
    # at 12, after it; and a later completed discovery is found at 35. The
    # pair's first discovery is the least found time, not the first line's.
    message = {"generation": 1, "mode": "framed", "message": b"hi".hex()}
    log = [
        _header(scanners={B: 30.0}),
        SimEvent(0.0, "MessageChanged", A, A, message),
        SimEvent(11.0, "FetchAborted", B, A, {"found": 5.0}),
        SimEvent(12.0, "UuidsFetched", B, A, {"found": 2.0, "records": frame(b"hi")}),
        SimEvent(36.5, "UuidsFetched", B, A, {"found": 35.0, "records": frame(b"hi")}),
    ]
    report = build_report(load_log(_lines(log)))
    (pair,) = report.latency.pairs
    assert (pair.observer, pair.subject) == (B, A)
    assert pair.first_discovery_s == 2.0
    assert pair.latencies == (12.0,)
    assert len(report.bandwidth.fetches) == 2  # an aborted fetch fetched nothing
    # an aborted discovery alone makes a pair, with no delivery
    (pair,) = build_report(log[:3]).latency.pairs
    assert (pair.first_discovery_s, pair.latencies) == (5.0, ())
    # the least found time, whichever kind of line holds it
    swapped = [log[0], log[1], log[2]._replace(detail={"found": 1.0}), *log[3:]]
    (pair,) = build_report(swapped).latency.pairs
    assert pair.first_discovery_s == 1.0


def test_message_changed_generations_must_rise_per_subject():
    # The report keeps each subject's latest change alone, so a change whose
    # generation is not above its subject's previous one is malformed; the
    # runner never writes one.
    changed = {"generation": 1, "mode": "framed", "message": b"hi".hex()}

    def change(t, subject, generation):
        return SimEvent(t, "MessageChanged", subject, subject, {**changed, "generation": generation})

    header = _header(scanners={A: 30.0, B: 30.0})
    ok = [header, change(0.0, A, 1), change(0.0, B, 1), change(5.0, A, 2), change(6.0, A, 7)]
    # one opportunity per change: the other device's scans
    assert build_report(ok).latency.changes_total == 4
    for generation in (2, 7, 0, -1):
        with pytest.raises(MalformedLog) as excinfo:
            build_report([*ok, change(9.0, A, generation)])
        assert str(excinfo.value) == (
            f"the MessageChanged at t=9.0 of {A} holds generation {generation}, "
            f"not above its previous generation 7"
        )
    assert build_report([*ok, change(9.0, B, 2)]).latency.changes_total == 5


def _line(kind, detail, t=0.0, observer=A, subject=A):
    return json.dumps([t, kind, observer, subject, detail])


def _header_line(**changes):
    return _header(**changes).to_json()


# Each line with the exact text `load_log` raises for it, after "line 1: ".
_FETCHED = {"found": 0.5, "records": []}
_FRAMED = {"generation": 1, "mode": "framed", "message": "6869"}
_RAW = {"generation": 1, "mode": "raw", "payloads": ["6869"]}
_CHANGED = {"generation": 1, "mode": "raw", "message": "00"}
_HUGE = 10**400
_ARRAY = "event must be an array [t, kind, observer, subject, detail], got"
_LOG_ERRORS = [
    (_line("FetchAborted", {}), "FetchAborted detail: 'found' is missing or malformed: None"),
    (
        _line("FetchAborted", {"found": "0"}),
        "FetchAborted detail: 'found' is missing or malformed: '0'",
    ),
    (
        _line("FetchAborted", {"found": True}),
        "FetchAborted detail: 'found' is missing or malformed: True",
    ),
    # a found time is a finite number, as `t` is
    *(
        (
            _line(kind, {**detail, "found": value}),
            f"{kind} detail: 'found' is missing or malformed: {value!r}",
        )
        for kind, detail in (("FetchAborted", {}), ("UuidsFetched", _FETCHED))
        for value in (math.nan, math.inf, -math.inf, _HUGE, "0.5", [0.5], None, True, False)
    ),
    (_line("UuidsFetched", {}), "UuidsFetched detail: 'found' is missing or malformed: None"),
    (
        _line("UuidsFetched", {**_FETCHED, "records": 5}),
        "UuidsFetched detail: 'records' is missing or malformed: 5",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "records": ["", 7]}),
        "UuidsFetched detail: 'records' is missing or malformed: ['', 7]",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "records": [[1], None, {"x": 2}, 7]}),
        "UuidsFetched detail: 'records' is missing or malformed: [[1], None, {'x': 2}, 7]",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "records": ["", [1]]}),
        "UuidsFetched detail: 'records' is missing or malformed: ['', [1]]",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "records": ["", None]}),
        "UuidsFetched detail: 'records' is missing or malformed: ['', None]",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "records": ["", {"x": 2}]}),
        "UuidsFetched detail: 'records' is missing or malformed: ['', {'x': 2}]",
    ),
    (
        _line("MessageChanged", {}),
        "MessageChanged detail: 'generation' is missing or malformed: None",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "generation": "1"}),
        "MessageChanged detail: 'generation' is missing or malformed: '1'",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "generation": True}),
        "MessageChanged detail: 'generation' is missing or malformed: True",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "message": "zz"}),
        "MessageChanged detail: 'message' is missing or malformed: 'zz'",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "mode": "framed", "message": "zz"}),
        "MessageChanged detail: 'message' is missing or malformed: 'zz'",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "message": "0"}),
        "MessageChanged detail: 'message' is missing or malformed: '0'",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "message": "0A"}),
        "MessageChanged detail: 'message' is missing or malformed: '0A'",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "mode": "bogus"}),
        "MessageChanged detail: 'mode' is missing or malformed: 'bogus'",
    ),
    (
        _line("MessageReassembled", {}),
        "MessageReassembled detail: 'generation' is missing or malformed: None",
    ),
    (
        _line("MessageReassembled", {"generation": 1, "mode": "raw", "message": ""}),
        "MessageReassembled detail: 'payloads' is missing or malformed: None",
    ),
    (
        _line("MessageReassembled", {"generation": 1, "mode": "framed", "message": 5}),
        "MessageReassembled detail: 'message' is missing or malformed: 5",
    ),
    (
        _line("MessageReassembled", {"generation": 1, "mode": "raw", "payloads": ["0g"]}),
        "MessageReassembled detail: 'payloads' is missing or malformed: ['0g']",
    ),
    (
        _line("MessageReassembled", {"generation": 1, "mode": ["raw"], "payloads": []}),
        "MessageReassembled detail: 'mode' is missing or malformed: ['raw']",
    ),
    (_line("FetchAborted", []), 'FetchAborted detail must be an object, got []'),
    (_line("FetchAborted", None), 'FetchAborted detail must be an object, got None'),
    (_line("UuidsFetched", []), 'UuidsFetched detail must be an object, got []'),
    # a line that is not an array of the five fields, such as a line of a log
    # written in the former one-object-per-line form
    (
        json.dumps([0.0, "FetchAborted", A, A]),
        f"{_ARRAY} [0.0, 'FetchAborted', '{A}', '{A}']",
    ),
    ("[]", f"{_ARRAY} []"),
    ("NaN", f"{_ARRAY} nan"),
    ('"x"', f"{_ARRAY} 'x'"),
    ("{}", f"{_ARRAY} an object with keys []"),
    (
        json.dumps({"t": 0.5, "kind": "FetchAborted", "observer": A, "subject": A, "detail": {"found": 0.5}}),
        f"{_ARRAY} an object with keys ['t', 'kind', 'observer', 'subject', 'detail']",
    ),
    (_line("FetchAborted", {"found": 0.5}, t=math.inf), "event: 't' is missing or malformed: inf"),
    (_line("FetchAborted", {"found": 0.5}, t=True), "event: 't' is missing or malformed: True"),
    (_line("FetchAborted", {"found": 0.5}, t="0"), "event: 't' is missing or malformed: '0'"),
    (json.dumps([0.0, "FetchAborted"]), f"{_ARRAY} [0.0, 'FetchAborted']"),
    (
        _line("FetchAborted", {"found": 0.5}, observer=None),
        "event: 'observer' is missing or malformed: None",
    ),
    (_line("Mystery", {}), "event: 'kind' is missing or malformed: 'Mystery'"),
    (
        _line("FetchAborted", {"found": 0.5}, observer=5),
        "event: 'observer' is missing or malformed: 5",
    ),
    (
        _line("FetchAborted", {"found": 0.5}, subject=None),
        "event: 'subject' is missing or malformed: None",
    ),
    # an integer past float range converts to no float, so it is no finite time
    (_line("FetchAborted", {"found": 0.5}, t=_HUGE), f"event: 't' is missing or malformed: {_HUGE}"),
    (
        _line("FetchAborted", {"found": 0.5}, t=-_HUGE),
        f"event: 't' is missing or malformed: {-_HUGE}",
    ),
    # each key of the runner's lines, in their order, with a value that is
    # almost but not quite what the runner writes there
    (
        _header_line(duration_s=True),
        "RunStarted detail: 'duration_s' is missing or malformed: True",
    ),
    (
        _header_line(limits={**_LIMITS, "max_inbound_records": True}),
        "RunStarted detail: 'limits' is missing or malformed: "
        "{'max_outbound_slots': 7, 'max_inbound_records': True}",
    ),
    (
        _header_line(scanners={A: True}),
        f"RunStarted detail: 'scanners' is missing or malformed: {{'{A}': True}}",
    ),
    (
        _line("FetchAborted", {"found": False}),
        "FetchAborted detail: 'found' is missing or malformed: False",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "found": True}),
        "UuidsFetched detail: 'found' is missing or malformed: True",
    ),
    (
        _line("FetchAborted", {"found": 0.5}, t=1.5).replace("1.5", "1e400"),
        "event: 't' is missing or malformed: inf",
    ),
    (
        _line("FetchAborted", {"found": 0.5}, t=1.5).replace("1.5", "-1e400"),
        "event: 't' is missing or malformed: -inf",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "records": [UUID, 5]}),
        f"UuidsFetched detail: 'records' is missing or malformed: ['{UUID}', 5]",
    ),
    (
        _line("MessageReassembled", {**_FRAMED, "message": "686"}),
        "MessageReassembled detail: 'message' is missing or malformed: '686'",
    ),
    (
        _line("MessageReassembled", {**_FRAMED, "message": "686A"}),
        "MessageReassembled detail: 'message' is missing or malformed: '686A'",
    ),
    (
        _line("MessageReassembled", {**_RAW, "payloads": ["6869", "ABCD"]}),
        "MessageReassembled detail: 'payloads' is missing or malformed: ['6869', 'ABCD']",
    ),
    (
        _line("MessageReassembled", {**_RAW, "payloads": ["abc"]}),
        "MessageReassembled detail: 'payloads' is missing or malformed: ['abc']",
    ),
    (
        _line("MessageReassembled", {**_RAW, "payloads": [5]}),
        "MessageReassembled detail: 'payloads' is missing or malformed: [5]",
    ),
    (
        _line("MessageReassembled", {"generation": 1, "mode": "framed", "payloads": ["6869"]}),
        "MessageReassembled detail: 'message' is missing or malformed: None",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "message": "686"}),
        "MessageChanged detail: 'message' is missing or malformed: '686'",
    ),
    (
        _line("MessageChanged", {**_CHANGED, "message": "6869AB"}),
        "MessageChanged detail: 'message' is missing or malformed: '6869AB'",
    ),
    (
        _line(["FetchAborted"], {"found": 0.5}),
        "event: 'kind' is missing or malformed: ['FetchAborted']",
    ),
    (
        _line({"FetchAborted": 0}, {"found": 0.5}),
        "event: 'kind' is missing or malformed: {'FetchAborted': 0}",
    ),
    # a key that the line's kind, or its reassembly's mode, does not have
    (
        _line("FetchAborted", {"found": 0.5, "extra": None}),
        "FetchAborted detail: unknown keys ['extra']",
    ),
    # lines of older logs: a fetch that still holds `cached` and `delay`, a
    # change that still holds `slots`, a scan, a discovery of its own line,
    # and a fetch that names its round rather than its found time
    (
        _line("MessageChanged", {**_CHANGED, "slots": 1}),
        "MessageChanged detail: unknown keys ['slots']",
    ),
    (_line("ScanStarted", {"round": 0}), "event: 'kind' is missing or malformed: 'ScanStarted'"),
    (
        _line("UuidsFetched", {"found": 0.5, "cached": False, "delay": 6.0, "records": []}),
        "UuidsFetched detail: unknown keys ['cached', 'delay']",
    ),
    (_line("DeviceFound", {"round": 0}), "event: 'kind' is missing or malformed: 'DeviceFound'"),
    (
        _line("UuidsFetched", {"round": 0, "records": []}),
        "UuidsFetched detail: 'found' is missing or malformed: None",
    ),
    (
        _line("MessageReassembled", {**_RAW, "message": "6869"}),
        "MessageReassembled detail: unknown keys ['message']",
    ),
    (
        json.dumps([0.5, "FetchAborted", A, A, {"found": 0.5}, 1]),
        f"{_ARRAY} [0.5, 'FetchAborted', '{A}', '{A}', {{'found': 0.5}}, 1]",
    ),
    # the header's values: a duration, the limits `CapacityLimits` takes, and
    # each scanner's interval, all finite and positive
    *(
        (
            _header_line(duration_s=value),
            f"RunStarted detail: 'duration_s' is missing or malformed: {value!r}",
        )
        for value in (0, -0.0, -60.0, math.nan, math.inf, -math.inf, "60", None, [60.0])
    ),
    *(
        (
            _header_line(limits=value),
            f"RunStarted detail: 'limits' is missing or malformed: {value!r}",
        )
        for value in (
            {"max_outbound_slots": 7},
            {"max_inbound_records": 21},
            {**_LIMITS, "payload_per_uuid": 13},
            {**_LIMITS, "max_outbound_slots": 0},
            {**_LIMITS, "max_outbound_slots": 16},
            {**_LIMITS, "max_outbound_slots": 7.0},
            {**_LIMITS, "max_inbound_records": 0},
            {},
            [7, 21],
            None,
        )
    ),
    *(
        (
            _header_line(scanners={A: value}),
            f"RunStarted detail: 'scanners' is missing or malformed: {{'{A}': {value!r}}}",
        )
        for value in (0, 0.0, -30.0, math.nan, math.inf, False, "30", None)
    ),
    *(
        (
            _header_line(scanners=value),
            f"RunStarted detail: 'scanners' is missing or malformed: {value!r}",
        )
        for value in ([], [A], A, None)
    ),
    (
        _line("RunStarted", {"duration_s": 60.0, "scanners": {}}, observer="", subject=""),
        "RunStarted detail: 'limits' is missing or malformed: None",
    ),
    (_header_line(seed=0), "RunStarted detail: unknown keys ['seed']"),
    (_line("RunStarted", []), "RunStarted detail must be an object, got []"),
    ('{"t": 0} {}', 'Extra data: line 1 column 10 (char 9)'),
    ('{"t": 0}x', 'Extra data: line 1 column 9 (char 8)'),
    ('{"t": tru}', 'Expecting value: line 1 column 7 (char 6)'),
    ("{broken", 'Expecting property name enclosed in double quotes: line 1 column 2 (char 1)'),
    ("\ufeff{}", 'Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)'),
    ('{"t": "\x01"}', 'Invalid control character at: line 1 column 8 (char 7)'),
    # a line whose first character starts no JSON value, where the scanner
    # raises StopIteration, and one whose value fails inside the scanner
    ("x", "Expecting value: line 1 column 1 (char 0)"),
    ("]", "Expecting value: line 1 column 1 (char 0)"),
    ("-", "Expecting value: line 1 column 1 (char 0)"),
    ("[", "Expecting value: line 1 column 2 (char 1)"),
    ("[1,", "Expecting value: line 1 column 4 (char 3)"),
    ('["a', "Unterminated string starting at: line 1 column 2 (char 1)"),
    ("[1 2]", "Expecting ',' delimiter: line 1 column 4 (char 3)"),
    ('"\\x"', "Invalid \\escape: line 1 column 2 (char 1)"),
    ("[0.5] [1]", "Extra data: line 1 column 7 (char 6)"),
    ("[0.5]]", "Extra data: line 1 column 6 (char 5)"),
    ("\ufeff[]", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    # lines that load, but that no run writes after `_HEADER` (A scans, 60 s,
    # 21 records): the report rejects each with its own error
    (
        _line("UuidsFetched", _FETCHED, t=1.0, observer=B),
        f"the UuidsFetched at t=1.0 of {A} by {B} has an observer that is no scanner in the header",
    ),
    (
        _line("FetchAborted", {"found": 0.5}, t=1.0, observer="zz"),
        f"the FetchAborted at t=1.0 of {A} by zz has an observer that is no scanner in the header",
    ),
    (
        _line("UuidsFetched", _FETCHED, t=1.0),
        f"the UuidsFetched at t=1.0 of {A} by {A} has an observer that is its own subject",
    ),
    (
        _line("FetchAborted", {"found": 0.5}, t=1.0),
        f"the FetchAborted at t=1.0 of {A} by {A} has an observer that is its own subject",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "found": -50.0}, t=1.0, subject=B),
        f"the UuidsFetched at t=1.0 of {B} by {A} holds found -50.0, outside [0, 1.0]",
    ),
    (
        _line("FetchAborted", {"found": 1.5}, t=1.0, subject=B),
        f"the FetchAborted at t=1.0 of {B} by {A} holds found 1.5, outside [0, 1.0]",
    ),
    (
        _line("UuidsFetched", _FETCHED, t=60.5, subject=B),
        f"the UuidsFetched at t=60.5 of {B} by {A} comes after the run ends at duration_s 60.0",
    ),
    (
        _line("FetchAborted", {"found": 0.5}, t=400.0, subject=B),
        f"the FetchAborted at t=400.0 of {B} by {A} comes after the run ends at duration_s 60.0",
    ),
    (
        _line("MessageChanged", _CHANGED, t=60.5),
        f"the MessageChanged at t=60.5 of {A} by {A} comes after the run ends at duration_s 60.0",
    ),
    (
        _line("UuidsFetched", {**_FETCHED, "records": [UUID] * 22}, t=1.0, subject=B),
        f"the UuidsFetched at t=1.0 of {B} by {A} holds 22 records, over max_inbound_records 21",
    ),
    (
        _line("MessageChanged", _CHANGED, observer=B),
        f"the MessageChanged at t=0.0 of {A} by {B} has an observer other than its subject",
    ),
]


def test_load_log_error_messages():
    # A line that load_log reads is one that no run writes after `_HEADER`,
    # which the report rejects.
    for line, message in _LOG_ERRORS:
        try:
            list(load_log([line]))
        except MalformedLog as exc:
            assert str(exc) == f"line 1: {message}", line
            continue
        with pytest.raises(MalformedLog) as excinfo:
            build_report(load_log([_header_line(), line]))
        assert str(excinfo.value) == message, line


def test_a_log_at_the_bounds_of_a_run_reports():
    # What a run can write: a found time of 0 or of the fetch's own time, a
    # line at duration_s, and as many records as max_inbound_records.
    lines = [
        _header_line(),
        _line("FetchAborted", {"found": 0.0}, t=0.0, subject=B),
        _line("UuidsFetched", {"found": 7.0, "records": [UUID] * 21}, t=7.0, subject=B),
        _line("UuidsFetched", {"found": 60.0, "records": []}, t=60.0, subject=B),
        _line("MessageChanged", _CHANGED, t=60.0),
    ]
    report = build_report(load_log(lines))
    assert [fetch.records for fetch in report.bandwidth.fetches] == [21, 0]
    assert [pair.first_discovery_s for pair in report.latency.pairs] == [0.0]


def test_load_log_rejects_a_line_that_is_not_text():
    lines = [_line("FetchAborted", {"found": 0.5})] * 3
    lines[1] = lines[1].encode()
    with pytest.raises(MalformedLog, match="^line 2: a log line must be text, got bytes$"):
        list(load_log(lines))


def test_load_log_strips_only_json_whitespace():
    """JSON allows space, tab, LF and CR around a value, and nothing else: a
    line that begins with an ideographic space, or holds only an information
    separator, is malformed, neither trimmed nor skipped as blank."""
    log = _two_device_log(1)
    lines = [e.to_json() for e in log[:3]]
    lines[1] = f" \t{lines[1]}\r\n"
    assert list(load_log([*lines, " \r\n"])) == log[:3]
    for bad in ("\u3000" + lines[2], "\x1c"):
        with pytest.raises(MalformedLog) as excinfo:
            list(load_log([*lines, bad]))
        assert str(excinfo.value) == "line 4: Expecting value: line 1 column 1 (char 0)"
    # a blank line that is not text is not text, either
    with pytest.raises(MalformedLog, match="^line 2: a log line must be text, got bytes$"):
        list(load_log([lines[0], b"\n"]))


def test_fetch_bandwidth_is_a_named_tuple():
    fetch = FetchBandwidth(
        t=7.5, observer=A, subject=B, records=4, payload_records=3,
        decoded_octets=39, utilization=39 / 273,
    )
    # the fields of the former dataclass, in its order
    assert FetchBandwidth._fields == (
        "t", "observer", "subject", "records", "payload_records", "decoded_octets", "utilization",
    )
    assert fetch == (7.5, A, B, 4, 3, 39, 39 / 273)
    with pytest.raises(AttributeError):
        fetch.records = 5
    report = build_report(_two_device_log())
    rows = [json.loads(line) for line in format_lines(report).splitlines()]
    fetch_rows = [row for row in rows if row.pop("metric") == "fetch"]
    assert fetch_rows == [fetch._asdict() for fetch in report.bandwidth.fetches]
    assert all(list(row) == list(FetchBandwidth._fields) for row in fetch_rows)


def test_sim_event_is_an_immutable_record():
    event = SimEvent(t=1.5, kind="FetchAborted", observer=A, subject=A, detail={"found": 0.5})
    assert event == SimEvent(1.5, "FetchAborted", A, A, {"found": 0.5})
    assert event != SimEvent(1.5, "FetchAborted", A, B, {"found": 0.5})
    with pytest.raises(AttributeError):
        event.t = 2.0
    with pytest.raises(AttributeError):
        event.extra = 1
    for event in _two_device_log(3):
        assert SimEvent.from_array(json.loads(event.to_json())) == event


def test_load_log_rejects_decreasing_time():
    log = _two_device_log(3)
    lines = [e.to_json() for e in log[:5]]
    lines.append(lines[0])  # t jumps back to 0
    with pytest.raises(MalformedLog, match="decreases"):
        list(load_log(lines))
    # NaN compares false either way, so 5, NaN, 1 would pass the ordering check alone
    lines = [_line("FetchAborted", {"found": 0.5}, t=t) for t in (5.0, math.nan, 1.0)]
    with pytest.raises(MalformedLog, match="line 2"):
        list(load_log(lines))


_HI = {"generation": 1, "mode": "framed", "message": b"hi".hex()}


def _reassembled(detail, t=1.0, observer=B, subject=A):
    return _line("MessageReassembled", detail, t=t, observer=observer, subject=subject)


def _reassembly_log(changed, records, detail):
    """A change of A, B's fetch of `records` at t = 1, and the line of `detail`."""
    return [
        _header_line(scanners={B: 30.0}),
        _line("MessageChanged", changed),
        _line("UuidsFetched", {"found": 0.5, "records": records}, t=1.0, observer=B),
        _reassembled(detail),
    ]


def test_unknown_generation_rejected():
    # "1" and true are not generation 1: a log is read as written, never converted
    lines = _reassembly_log(_HI, frame(b"hi"), _HI)
    assert build_report(load_log(lines)).latency.changes_delivered == 1
    for generation in (9, "1", True):
        lines[-1] = _reassembled({**_HI, "generation": generation})
        with pytest.raises(MalformedLog, match="MessageReassembled"):
            build_report(load_log(lines))


def test_a_reassembly_line_must_repeat_its_fetch():
    # Each MessageReassembled line must equal, in t, pair and detail, the one
    # the UuidsFetched just before it implies; any other ends in MalformedLog.
    raw = advertise(b"hi" * 8, RAW)
    payloads = sorted(p.hex() for p in raw_read(raw))
    assert len(payloads) == 2
    raw_changed = {"generation": 1, "mode": "raw", "message": (b"hi" * 8).hex()}
    raw_detail = {"generation": 1, "mode": "raw", "payloads": payloads}
    hi = _reassembly_log(_HI, frame(b"hi"), _HI)
    hi_raw = _reassembly_log(raw_changed, raw[::-1], raw_detail)
    for lines in (hi, hi_raw):
        report = build_report(load_log(lines))
        assert report.latency.changes_delivered == 1
        assert format_lines(report) == format_lines(build_report(load_log(lines[:-1])))
    later = [line.replace("1.0", "2.0", 1) for line in hi[2:]]  # the fetch again, at t = 2
    bad = [
        # an altered message or payload, or raw payloads out of order
        hi[:-1] + [_reassembled({**_HI, "message": "6868"})],
        hi_raw[:-1] + [_reassembled({**raw_detail, "payloads": payloads[:1] * 2})],
        hi_raw[:-1] + [_reassembled({**raw_detail, "payloads": payloads[::-1]})],
        # another time, observer or subject
        hi[:-1] + [_reassembled(_HI, t=1.5)],
        hi[:-1] + [_reassembled(_HI, observer=A)],
        hi[:-1] + [_reassembled(_HI, subject=B)],
        # no fetch before it, or another event between the two
        hi[:2] + hi[3:],
        hi[:3] + [_line("FetchAborted", {"found": 0.5}, t=1.0, observer=B)] + hi[3:],
        # a second line for one fetch, and a line for a later fetch that
        # repeats what the pair's last line says
        hi + hi[3:],
        hi + later,
    ]
    for lines in bad:
        with pytest.raises(MalformedLog, match="^the MessageReassembled at t="):
            build_report(load_log(lines))
    assert build_report(load_log(hi + later[:1])).latency.changes_delivered == 1


_DELETED = object()
_LOG_FUZZ_VALUES = (
    None, True, False, 0, -1, 0.5, 2**64, math.inf, math.nan,
    "x", "zz", "", [], {}, [0], ["zz"], _DELETED,
)


# Edits of the line's array that move an item rather than set a value: each
# applies to one item, and `_AS_OBJECT` to the whole line.
_DUPLICATED = object()
_SWAPPED = object()  # with the next item, the last with the first
_AS_OBJECT = object()  # the line in the former one-object-per-line form


def _log_edits(log):
    """(line index, path, value) for one-value edits of the first event of
    each kind: each item, and each value in its detail, replaced or deleted;
    each item duplicated or swapped with the next; a sixth item added; and
    the line written as an object."""
    firsts = {}
    for index, event in enumerate(log):
        firsts.setdefault(event.kind, index)
    for index in firsts.values():
        items = json.loads(log[index].to_json())
        detail = items[-1]
        paths = [()] + [(i,) for i in range(len(items))] + [(4, key) for key in detail]
        paths += [(4, key, 0) for key, item in detail.items() if isinstance(item, list) and item]
        for path in paths:
            for value in _LOG_FUZZ_VALUES:
                yield index, path, value
        for i in range(len(items)):
            yield index, (i,), _DUPLICATED
            yield index, (i,), _SWAPPED
        for value in _LOG_FUZZ_VALUES[:-1]:  # every value but _DELETED
            yield index, (len(items),), value
        yield index, (), _AS_OBJECT


def _edited(line, path, value):
    items = json.loads(line)
    if not path:
        if value is _AS_OBJECT:
            return json.dumps(dict(zip(SimEvent._fields, items)))
        return json.dumps(None if value is _DELETED else value)
    target = items
    for key in path[:-1]:
        target = target[key]
    key = path[-1]
    if value is _DELETED:
        del target[key]
    elif value is _DUPLICATED:
        target.insert(key, target[key])
    elif value is _SWAPPED:
        other = (key + 1) % len(target)
        target[key], target[other] = target[other], target[key]
    elif key == len(target):
        target.append(value)
    else:
        target[key] = value
    return json.dumps(items)


def test_edited_log_loads_or_is_rejected(raw_torn_read):
    """A log with any one value replaced or deleted loads and reports, or raises MalformedLog."""
    for log in (_two_device_log(3), list(run(raw_torn_read, seed=0))):
        lines = [e.to_json() for e in log]
        for index, path, value in _log_edits(log):
            edited = lines[:index] + [_edited(lines[index], path, value)] + lines[index + 1:]
            try:
                report = build_report(load_log(edited))
            except MalformedLog:
                continue
            format_text(report)
            format_lines(report)


def test_format_text_smoke():
    text = format_text(build_report(_two_device_log()))
    assert "latency" in text
    assert "bandwidth" in text
    assert "fraction 1.00" in text
    assert "0 misdelivered" in text


def test_format_text_empty():
    text = format_text(build_report([_header(scanners={})]))
    assert "no pairs observed" in text
    assert "no advertisers observed" in text


def test_format_lines_parses_and_covers_metrics():
    out = format_lines(build_report(_two_device_log()))
    rows = [json.loads(line) for line in out.strip().split("\n")]
    metrics = {row["metric"] for row in rows}
    assert metrics == {"pair", "changes", "device", "fetch"}
    (changes,) = [r for r in rows if r["metric"] == "changes"]
    assert changes["fraction"] == 1.0
    assert changes["misdelivered"] == 0
