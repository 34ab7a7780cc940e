"""Acceptance gate: one test per shipped criterion, strictest stated tolerance.

Each test prints a single PASS/FAIL line (bypassing capture) before
asserting, so a full run always shows the per-criterion scoreboard.
"""

import random
import time

from sdpcast import (
    BUILTIN_SCENARIOS,
    DEFAULT_LIMITS,
    PAYLOAD_OCTETS,
    ReassemblyError,
    build_report,
    decode,
    detect,
    encode,
    frame,
    run,
    scenario_gen,
    unframe,
)

ANCHOR = "ff724081-fe5d-4fb2-8745-af149cc2c0de"


def _verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_1_codec_round_trip_speed(capsys):
    rng = random.Random(0xC0DE)
    n = 100_000
    start = time.perf_counter()
    failures = 0
    for _ in range(n):
        payload = rng.randbytes(PAYLOAD_OCTETS)
        if decode(encode(payload)) != payload:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    _verdict(
        capsys,
        "1 codec round trip",
        ok,
        f"{n} payloads, {failures} failures, {elapsed:.2f}s (limit 5s)",
    )
    assert failures == 0
    assert elapsed < 5.0


def test_criterion_2_anchor_uuid_fidelity(capsys):
    payload = detect(ANCHOR)
    ok = payload is not None and encode(payload) == ANCHOR
    _verdict(capsys, "2 anchor UUID fidelity", ok, f"detect+re-encode of {ANCHOR}")
    assert payload is not None
    assert encode(payload) == ANCHOR


def test_criterion_3_capacity_arithmetic(capsys):
    values = (
        PAYLOAD_OCTETS,
        DEFAULT_LIMITS.outbound_ceiling,
        DEFAULT_LIMITS.inbound_ceiling,
    )
    ok = values == (13, 91, 273)
    _verdict(capsys, "3 capacity arithmetic", ok, f"13/91/273 == {values}")
    assert PAYLOAD_OCTETS == 13
    assert DEFAULT_LIMITS.outbound_ceiling == 13 * 7 == 91
    assert DEFAULT_LIMITS.inbound_ceiling == 13 * 21 == 273


def test_criterion_4_framing_permutation(capsys):
    rng = random.Random(0xF7A3E)
    n = 1_000
    failures = 0
    for _ in range(n):
        message = rng.randbytes(rng.randint(0, 82))
        records = frame(message)
        rng.shuffle(records)
        if unframe(records) != message:
            failures += 1
    ok = failures == 0
    _verdict(capsys, "4 framing permutation", ok, f"{n} (message, shuffle) pairs, {failures} failures")
    assert failures == 0


def test_criterion_5_torn_read_safety(capsys):
    old_message = b"old generation: " + bytes(range(66))  # 82 octets, 7 chunks
    new_message = b"new generation: " + bytes(range(48))  # 64 octets, 6 chunks
    old_chunks = frame(old_message)
    new_chunks = frame(new_message)
    assert len(old_chunks) == 7 and len(new_chunks) == 6
    silent = 0
    errors = []
    for split in range(1, 7):
        mixed = old_chunks[:split] + new_chunks[split:]
        try:
            unframe(mixed)
            silent += 1
            errors.append("NONE")
        except ReassemblyError as exc:
            errors.append(type(exc).__name__)
    ok = silent == 0
    _verdict(
        capsys,
        "5 torn-read safety",
        ok,
        f"splits 1..6 -> {errors}, {silent} silent corruptions",
    )
    assert silent == 0


def test_criterion_6_sub_minute_propagation(capsys):
    scenario = scenario_gen("two-device-default")
    assert scenario.timing.inquiry_duration_s == 12.0
    assert scenario.timing.fetch_latency_fresh_s == 6.0
    assert scenario.timing.fetch_latency_cached_s == 1.5
    start = time.perf_counter()
    late = 0
    total = 0
    for seed in range(100):
        report = build_report(run(scenario, seed=seed))
        total += report.latency.changes_total
        late += report.latency.changes_total - report.latency.changes_within_threshold
        assert report.latency.changes_delivered == report.latency.changes_total
    elapsed = time.perf_counter() - start
    ok = late == 0 and total == 500 and elapsed < 10.0
    _verdict(
        capsys,
        "6 sub-minute propagation",
        ok,
        f"100 seeds, {total} changes, {late} late (>60s), wall {elapsed:.2f}s (limit 10s)",
    )
    assert late == 0
    assert total == 500
    assert elapsed < 10.0


def test_criterion_7_latency_asymmetry(capsys):
    violations = 0
    pairs_checked = 0
    runs = [("two-device-default", seed) for seed in range(100)]
    runs += [(name, 0) for name in ("crowd-20", "torn-read")]
    for name, seed in runs:
        # each fetch's delay from its found time, per pair in log order
        delays = {}
        for event in run(scenario_gen(name), seed=seed):
            if event.kind == "UuidsFetched":
                delay = event.t - event.detail["found"]
                delays.setdefault((event.observer, event.subject), []).append(delay)
        for sequence in delays.values():
            if len(sequence) >= 2:
                pairs_checked += 1
                if not all(delay < sequence[0] for delay in sequence[1:]):
                    violations += 1
    ok = violations == 0 and pairs_checked > 0
    _verdict(
        capsys,
        "7 latency asymmetry",
        ok,
        f"{pairs_checked} pairs with >=2 fetches, {violations} violations",
    )
    assert pairs_checked > 0
    assert violations == 0


def test_criterion_8_determinism(capsys):
    mismatches = []
    for name in BUILTIN_SCENARIOS:
        scenario = scenario_gen(name)
        first = "\n".join(e.to_json() for e in run(scenario, seed=42))
        second = "\n".join(e.to_json() for e in run(scenario, seed=42))
        if first != second:
            mismatches.append(name)
    ok = not mismatches
    _verdict(
        capsys,
        "8 determinism",
        ok,
        f"{len(BUILTIN_SCENARIOS)} built-ins, byte-identical logs"
        f"{'' if ok else ': mismatch in ' + str(mismatches)}",
    )
    assert mismatches == []


def test_criterion_9_rejection_soundness(capsys):
    base = encode(b"sweep payload")
    accepted = []
    for version in "0123456789abcdef":
        for variant in "0123456789abcdef":
            candidate = base[:14] + version + base[15:19] + variant + base[20:]
            if detect(candidate) is not None:
                accepted.append((version, variant))
    ok = accepted == [("4", "8")]
    _verdict(
        capsys,
        "9 rejection soundness",
        ok,
        f"256 version/variant cells, accepted {accepted}",
    )
    assert accepted == [("4", "8")]
