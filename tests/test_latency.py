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
"""

import math

from sdpcast import run, scenario_gen
from test_sim import _scan_rounds

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
