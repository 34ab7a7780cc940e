"""Built-in scenario fixtures: shape, goldens, reachability oracles, and file fuzzing."""

import dataclasses
import json
import math
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpcast import (
    BUILTIN_SCENARIOS,
    InvalidScenario,
    TimingModel,
    UnknownScenario,
    in_range,
    run,
    scenario_from_json,
    scenario_gen,
    scenario_to_json,
)
from sdpcast.scenarios import _CLASSES

DATA = Path(__file__).parent / "data"


def test_builtin_names():
    assert set(BUILTIN_SCENARIOS) == {
        "two-device-default",
        "crowd-20",
        "out-of-range",
        "torn-read",
    }


def test_unknown_scenario_rejected():
    with pytest.raises(UnknownScenario):
        scenario_gen("three-device-default")


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builders_match_committed_goldens(name):
    golden = (DATA / f"{name}.json").read_text(encoding="utf-8")
    assert scenario_to_json(scenario_gen(name)) == golden


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builders_are_reproducible(name):
    assert scenario_to_json(scenario_gen(name)) == scenario_to_json(scenario_gen(name))


def test_two_device_default_shape():
    sc = scenario_gen("two-device-default")
    assert len(sc.devices) == 2
    a, b = sc.devices
    assert math.dist(a.position, b.position) == 5.0
    assert a.scan_interval_s == b.scan_interval_s == 30.0
    assert in_range(a, b) and in_range(b, a)
    assert sc.timing.inquiry_duration_s == 12.0
    assert sc.timing.fetch_latency_fresh_s == 6.0
    assert sc.timing.fetch_latency_cached_s == 1.5
    # every change leaves at least 60 s of run time to be delivered in
    assert all(m.t <= sc.duration_s - 60.0 for m in sc.schedule)
    assert sc.schedule  # mid-run changes are the point of the fixture


def test_out_of_range_shape():
    sc = scenario_gen("out-of-range")
    a, b = sc.devices
    assert math.dist(a.position, b.position) == 200.0
    assert not in_range(a, b)
    assert not in_range(b, a)


def test_crowd_20_graph_is_complete():
    sc = scenario_gen("crowd-20")
    assert len(sc.devices) == 20
    center_max = max(math.hypot(*d.position) for d in sc.devices)
    assert center_max <= 10.0  # inside a 20 m diameter disc
    for a in sc.devices:
        for b in sc.devices:
            if a is not b:
                assert in_range(a, b)
    assert len({d.address for d in sc.devices}) == 20
    assert len({d.message for d in sc.devices}) == 20


def test_torn_read_shape():
    sc = scenario_gen("torn-read")
    assert sc.torn_read_mode
    advertiser, observer = sc.devices
    assert advertiser.scan_interval_s is None
    assert observer.scan_interval_s == 30.0
    assert sc.timing.fetch_latency_cached_s < sc.timing.fetch_latency_fresh_s
    assert len(sc.schedule) == 1
    change = sc.schedule[0]
    assert change.t == 50.0
    # old generation frames to 7 chunks, new to 6: mixes are detectable
    assert len(advertiser.message) == 82
    assert len(change.message) == 64



def test_limits_no_longer_take_payload_per_uuid():
    """13 octets per UUID is fixed by the UUID layout, so it is no setting."""
    obj = json.loads(scenario_to_json(scenario_gen("two-device-default")))
    obj["limits"]["payload_per_uuid"] = 13
    with pytest.raises(InvalidScenario, match=r"^scenario\.limits: unknown keys \['payload_per_uuid'\]$"):
        scenario_from_json(json.dumps(obj))


def test_timing_is_stored_as_floats():
    """A Decimal, a Fraction or an int timing passes the checks as a finite
    number, and is stored as a float, as every other real-valued field is:
    the scenario then writes, reads back and runs as its float twin does."""
    base = scenario_gen("two-device-default")
    twin = dataclasses.replace(base, timing=TimingModel(12.0, 6.0, 1.0))
    for values in (
        (Decimal(12), Decimal("6.0"), Decimal(1)),
        (Fraction(12), Fraction(12, 2), Fraction(1)),
        (12, 6, 1),
    ):
        timing = TimingModel(*values)
        assert [type(getattr(timing, f.name)) for f in fields(TimingModel)] == [float] * 3
        assert timing == twin.timing
        sc = dataclasses.replace(base, timing=timing)
        text = scenario_to_json(sc)
        assert text == scenario_to_json(twin)
        assert '"inquiry_duration_s": 12.0' in text
        assert scenario_from_json(text) == sc
        assert list(run(sc, seed=1)) == list(run(twin, seed=1))


def test_scenario_classes_hold_only_init_fields():
    """The file format is every field of each class, so run state has no place there."""
    for cls in _CLASSES:
        assert [f.name for f in fields(cls) if not f.init] == [], cls.__name__


# -- scenario file fuzzing ----------------------------------------------------

_FUZZ_BASES = ("two-device-default", "torn-read")
_FUZZ_VALUES = (
    None, True, False, 0, -1, 0.5, 1e-9, 1e308, 2**64, math.inf, math.nan,
    "x", "false", [], {}, [0, 0],
)
_UNKNOWN_KEY = object()


def _paths(value, prefix=()):
    """Every path into a parsed JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _edits(name):
    base = json.loads(scenario_to_json(scenario_gen(name)))
    edits = [(name, path, value) for path in _paths(base) for value in _FUZZ_VALUES]
    edits += [
        (name, path, _UNKNOWN_KEY) for path in _paths(base) if isinstance(_at(base, path), dict)
    ]
    return edits


def _edited(name, path, value):
    obj = json.loads(scenario_to_json(scenario_gen(name)))
    if value is _UNKNOWN_KEY:
        _at(obj, path)["surprise"] = 1
        return obj
    if not path:
        return value
    _at(obj, path[:-1])[path[-1]] = value
    return obj


def _written_back(written, read):
    """True iff `written` says what `read` said: booleans apart from numbers,
    numbers compared by value. Keys that `read` omits may appear in `written`,
    holding the defaults the loader filled in."""
    if isinstance(read, bool) or isinstance(written, bool):
        return read is written
    if isinstance(read, dict):
        return (
            isinstance(written, dict)
            and read.keys() <= written.keys()
            and all(_written_back(written[key], read[key]) for key in read)
        )
    if isinstance(read, list):
        return (
            isinstance(written, list)
            and len(written) == len(read)
            and all(map(_written_back, written, read))
        )
    if isinstance(read, (int, float)):
        return isinstance(written, (int, float)) and written == read
    return type(written) is type(read) and written == read


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([edit for name in _FUZZ_BASES for edit in _edits(name)]))
def test_edited_scenario_file_loads_as_written_or_is_rejected(edit):
    obj = _edited(*edit)
    try:
        sc = scenario_from_json(json.dumps(obj))
    except InvalidScenario:
        return
    list(run(sc))
    assert _written_back(json.loads(scenario_to_json(sc)), obj)
