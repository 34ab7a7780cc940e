"""The runner's delivery latency against a closed form.

On `two-device-default` each pair is static and in range, torn reads are
off, and I + L_fresh < S (inquiry I, fresh fetch latency L_fresh, scan
interval S). An observer scans at the float sums 0.0, S, S + S, ...; round
k's fetch completes at kS + U_k + L_k, with U_k ~ U(0, I), L_0 = L_fresh and
later L_k = L_cached. A change at t_c is delivered by the first fetch that
completes after t_c, so its first-delivery latency D has

    P(D > x) = prod_k (1 - P(t_c < kS + U_k + L_k <= t_c + x)).

The runner's latencies over many seeds must fit that law, by a
Kolmogorov-Smirnov test at the 1% level, and stay within its bounds:
I + L_fresh for the message at t = 0, S + I for a later change.

crowd-20's graph is complete and static too, so cut to one scan round
(`duration_s` = S) each of its 380 ordered pairs' first delivery is
U(0, I) + L_fresh, by the same law with one round.

One window law covers torn reads and aborts. Round 1 of crowd-20 scans at
S = 30 and its fetches are cached, so a pair's fetch window is the open
interval (S + U, S + U + L_cached). A message change at t_m is torn into
the fetch iff it lies strictly inside the window; a fetch aborts iff its
observer or subject has left range by the window's end, t_m <= S + U +
L_cached. For t_m in [S + L_cached, S + I] the first has probability
L_cached / I and the second 1 - (t_m - S - L_cached) / I. A torn read
between two generations of the same chunk count is misdelivered.
"""

import dataclasses
import math
import random

from sdpcast import Mutation, build_report, frame, run, scenario_gen
from test_sim import DISCOVERY_KINDS, _scan_rounds

SEEDS = range(500)


def _uniform_cdf(x, width):
    return min(max(x / width, 0.0), 1.0)


def _closed_form_cdf(x, t_c, starts, timing):
    """P(D <= x) for a change at `t_c` and an observer scanning at `starts`."""
    inquiry = timing.inquiry_duration_s
    survival = 1.0
    for k, start in enumerate(starts):
        latency = timing.fetch_latency_cached_s if k else timing.fetch_latency_fresh_s
        ready = start + latency  # the fetch completes at ready + U_k
        survival *= 1.0 - (
            _uniform_cdf(t_c + x - ready, inquiry) - _uniform_cdf(t_c - ready, inquiry)
        )
    return 1.0 - survival


def _ks_distance(samples, cdf):
    xs = sorted(samples)
    n = len(xs)
    return max(max((i + 1) / n - cdf(x), cdf(x) - i / n) for i, x in enumerate(xs))


def _first_deliveries(events):
    """(change time, latency) of each change's first reassembly, per observer."""
    changed, first = {}, {}
    for event in events:
        if event.kind == "MessageChanged":
            changed[event.subject, event.detail["generation"]] = event.t
        elif event.kind == "MessageReassembled":
            t_c = changed[event.subject, event.detail["generation"]]
            first.setdefault((event.observer, event.subject, t_c), (t_c, event.t - t_c))
    return first.values()


def _latencies_by_change(sc, seeds, duration_s=None):
    """Change time -> first-delivery latencies over `seeds`, and the scan starts."""
    by_change = {}
    for seed in seeds:
        events = list(run(sc, seed=seed, duration_s=duration_s))
        for t_c, latency in _first_deliveries(events):
            by_change.setdefault(t_c, []).append(latency)
    # every scanner shares the interval, so they scan at the same times
    starts = sorted({t for _, _, t in _scan_rounds(events[0])})
    return by_change, starts


def _assert_fits_the_closed_form(latencies, t_c, starts, timing):
    distance = _ks_distance(latencies, lambda x: _closed_form_cdf(x, t_c, starts, timing))
    assert distance < 1.63 / math.sqrt(len(latencies)), (t_c, distance)


def test_first_delivery_latency_follows_the_closed_form():
    sc = scenario_gen("two-device-default")
    (interval,) = {device.scan_interval_s for device in sc.devices}
    timing = sc.timing
    assert timing.inquiry_duration_s + timing.fetch_latency_fresh_s < interval
    by_change, starts = _latencies_by_change(sc, SEEDS)
    # both messages at t = 0, then one change of A, one of B, one of A
    assert {t_c: len(latencies) for t_c, latencies in by_change.items()} == {
        0.0: 2 * len(SEEDS), 95.0: len(SEEDS), 130.0: len(SEEDS), 185.0: len(SEEDS)
    }
    for t_c, latencies in by_change.items():
        _assert_fits_the_closed_form(latencies, t_c, starts, timing)
        if t_c == 0.0:
            bound = timing.inquiry_duration_s + timing.fetch_latency_fresh_s
        else:
            bound = interval + timing.inquiry_duration_s
        assert max(latencies) <= bound, (t_c, max(latencies))


def test_crowd_20_first_delivery_follows_the_closed_form():
    sc = scenario_gen("crowd-20")
    (interval,) = {device.scan_interval_s for device in sc.devices}
    timing = sc.timing
    assert not sc.schedule and not sc.torn_read_mode
    seeds = range(100)
    by_change, starts = _latencies_by_change(sc, seeds, duration_s=interval)
    # one scan round delivers every message to every other device
    assert list(by_change) == [0.0]
    (latencies,) = by_change.values()
    assert len(latencies) == 20 * 19 * len(seeds)
    _assert_fits_the_closed_form(latencies, 0.0, starts, timing)
    assert timing.fetch_latency_fresh_s <= min(latencies)
    assert max(latencies) <= timing.inquiry_duration_s + timing.fetch_latency_fresh_s


# -- the fetch window: torn reads and aborts ------------------------------------

WINDOW_SEEDS = range(200)


def _crowd_20_two_rounds(schedule, torn_read_mode=False):
    """crowd-20 cut to 59 s, so its scans at 0 and 30 s are its only rounds."""
    sc = scenario_gen("crowd-20")
    assert sc.timing.inquiry_duration_s + sc.timing.fetch_latency_cached_s + 30.0 < 59.0
    return dataclasses.replace(
        sc, duration_s=59.0, torn_read_mode=torn_read_mode, schedule=schedule
    )


def _round_1(events):
    """The line of each discovery of a two-round run's second scan round:
    each found at or after that round's scan time, which the header gives."""
    header, *rest = events
    _, start = sorted({t for _, _, t in _scan_rounds(header)})
    return [e for e in rest if e.kind in DISCOVERY_KINDS and e.detail["found"] >= start]


def _spread(n, timing):
    """`n` change times spread evenly over [S + L_cached, S + I], with S = 30."""
    first, last = 30.0 + timing.fetch_latency_cached_s, 30.0 + timing.inquiry_duration_s
    return [first + (last - first) * k / (n - 1) for k in range(n)]


def test_torn_reads_follow_the_window_law():
    # Every device changes once, to a random message of the same size.
    sc = scenario_gen("crowd-20")
    rng = random.Random(20)
    old = {d.address: set(frame(d.message)) for d in sc.devices}
    new_messages = {d.address: rng.randbytes(len(d.message)) for d in sc.devices}
    new = {address: set(frame(message)) for address, message in new_messages.items()}
    assert all(len(old[a]) == len(new[a]) == 3 and not old[a] & new[a] for a in old)
    times = _spread(len(sc.devices), sc.timing)
    schedule = [
        Mutation(t=t, device=address, action="set_message", message=new_messages[address])
        for t, address in zip(times, new_messages)
    ]
    sc = _crowd_20_two_rounds(schedule, torn_read_mode=True)
    torn = fetches = misdelivered = 0
    for seed in WINDOW_SEEDS:
        events = list(run(sc, seed=seed))
        for event in _round_1(events):
            if event.kind == "UuidsFetched":
                fetches += 1
                records = set(event.detail["records"])
                torn += bool(records & old[event.subject] and records & new[event.subject])
        misdelivered += build_report(events).latency.changes_misdelivered
    assert fetches == len(WINDOW_SEEDS) * 20 * 19
    expected = fetches * sc.timing.fetch_latency_cached_s / sc.timing.inquiry_duration_s
    assert expected == 9500
    assert abs(torn - expected) <= 0.01 * expected, torn
    # Old and new take 3 chunks each, so the framing cannot tell a torn read:
    # the report counts every one of them misdelivered.
    assert misdelivered == torn


def test_aborted_fetches_follow_the_window_law():
    # Ten devices move 1 km away, each to its own spot, so no two of them
    # stay in range of each other.
    sc = scenario_gen("crowd-20")
    timing = sc.timing
    moved_at = dict(zip((d.address for d in sc.devices[::2]), _spread(10, timing)))
    schedule = [
        Mutation(t=t, device=address, action="set_position", position=(1000.0, 100.0 * k))
        for k, (address, t) in enumerate(moved_at.items())
    ]
    sc = _crowd_20_two_rounds(schedule)
    found = aborted = 0
    for seed in WINDOW_SEEDS:
        for event in _round_1(list(run(sc, seed=seed))):
            found += 1
            aborted += event.kind == "FetchAborted"
    assert found == len(WINDOW_SEEDS) * 20 * 19
    # A pair's fetch aborts iff the first of its two to move does so by the
    # window's end, 30 + U + L_cached.
    expected = 0.0
    for a in sc.devices:
        for b in sc.devices:
            t_m = min(moved_at.get(a.address, math.inf), moved_at.get(b.address, math.inf))
            if a is not b and t_m < math.inf:
                ready = 30.0 + timing.fetch_latency_cached_s
                expected += 1.0 - _uniform_cdf(t_m - ready, timing.inquiry_duration_s)
    expected *= len(WINDOW_SEEDS)
    assert round(expected) == 35833
    assert abs(aborted - expected) <= 0.01 * expected, aborted


def test_the_fetch_window_is_open_at_both_ends():
    # A's round-1 fetch by B spans (t_start, t_end). A change at either end
    # is read whole in the new generation, one in between is torn; a move at
    # t_end aborts the fetch, one a float later does not.
    sc = _crowd_20_two_rounds([], torn_read_mode=True)
    a, b = sc.devices[:2]

    def line_of_a(sc):
        """The line of B's round-1 discovery of A."""
        (line,) = [
            e for e in _round_1(list(run(sc, seed=0)))
            if (e.observer, e.subject) == (b.address, a.address)
        ]
        return line

    line = line_of_a(sc)
    assert line.kind == "UuidsFetched"
    t_start, t_end = line.detail["found"], line.t
    message = bytes(reversed(a.message))
    old, new = set(frame(a.message)), set(frame(message))

    def fetch_of_a(mutation):
        """The records of B's round-1 fetch of A, or None if it aborted."""
        line = line_of_a(dataclasses.replace(sc, schedule=[mutation]))
        assert (line.t, line.detail["found"]) == (t_end, t_start)
        if line.kind == "FetchAborted":
            return None
        return set(line.detail["records"]) - set(a.wellknown_records)

    for t, records in ((t_start, new), ((t_start + t_end) / 2, None), (t_end, new)):
        got = fetch_of_a(Mutation(t=t, device=a.address, action="set_message", message=message))
        if records is None:
            assert got & old and got & new, t
        else:
            assert got == records, t
    away = dict(device=a.address, action="set_position", position=(1000.0, 0.0))
    assert fetch_of_a(Mutation(t=t_end, **away)) is None
    assert fetch_of_a(Mutation(t=math.nextafter(t_end, math.inf), **away)) == old
