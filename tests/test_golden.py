"""Golden sha256 hashes pin event logs and reports across commits.

`tests/data/golden-sha256.json` holds, per scenario and seed, the sha256 of
the JSONL log exactly as `sdpcast simulate` writes it and of
`format_lines(build_report(load_log(log)))`, which the log without its
MessageReassembled lines must report, too. The scenarios are the
built-ins, one layout each of the benchmark's sparse-1000 (framed, one
message per device) and churn-400 (raw and framed, torn reads, moves)
workloads, and `toggles-400`, the 400-device layout of moves and
discoverability toggles in `conftest.toggle_layout`. `sparse-1000/layout0`
is what `bench/workloads.py` builds from `random.Random(0)`. A change that
alters a log or a report on purpose regenerates the file with
`PYTHONPATH=src python tests/test_golden.py > tests/data/golden-sha256.json`
and names the change.
"""

import hashlib
import importlib.util
import io
import json
import random
from pathlib import Path

import pytest

import sdpcast
from sdpcast import build_report, format_lines, format_text, load_log, run, scenario_gen

from conftest import toggle_layout

GOLDEN = Path(__file__).parent / "data" / "golden-sha256.json"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

SEEDS = {
    "two-device-default": (0, 1, 42),
    "out-of-range": (0, 1, 42),
    "torn-read": (0, 1, 42),
    "crowd-20": (1,),  # about a second per seed
    "sparse-1000/layout0": (1,),
    "churn-400/layout0": (1,),
    "toggles-400": (3,),
}
CASES = [(name, seed) for name, seeds in SEEDS.items() for seed in seeds]

# The last line of a case's text report, the line whose fetch count the
# benchmark is to read in place of the report's internals.
TEXT_TAILS = {("crowd-20", 1): "  fetches: 7600; max decoded 39 octets (ceiling 273)"}


def _scenario(name):
    """A built-in by name, `toggles-400`, or `<workload>/layout<k>`: the benchmark's layout k."""
    if name == "toggles-400":
        return toggle_layout()
    workload, _, layout = name.partition("/layout")
    if not layout:
        return scenario_gen(name)
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    builder = module.WORKLOADS[workload][0]
    return builder(sdpcast, random.Random(int(layout)))


def _hashes(name, seed):
    log = "".join(event.to_json() + "\n" for event in run(_scenario(name), seed=seed))
    report = format_lines(build_report(load_log(io.StringIO(log))))
    return {
        "log": hashlib.sha256(log.encode()).hexdigest(),
        "report": hashlib.sha256(report.encode()).hexdigest(),
    }


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert {(name, int(seed)) for name, seeds in _golden().items() for seed in seeds} == set(CASES)


@pytest.mark.parametrize("name,seed", CASES)
def test_log_and_report_match_golden_hashes(name, seed):
    assert _hashes(name, seed) == _golden()[name][str(seed)]


@pytest.mark.parametrize("name,seed", CASES)
def test_report_reads_nothing_from_reassembly_lines(name, seed):
    # The report derives every delivery from MessageChanged and UuidsFetched,
    # so the log without its MessageReassembled lines reports the same.
    events = list(run(_scenario(name), seed=seed))
    full = build_report(load_log(event.to_json() for event in events))
    bare = build_report(
        load_log(event.to_json() for event in events if event.kind != "MessageReassembled")
    )
    report = format_lines(bare)
    assert hashlib.sha256(report.encode()).hexdigest() == _golden()[name][str(seed)]["report"]
    assert report == format_lines(full)
    text = format_text(full)
    assert format_text(bare) == text
    if (name, seed) in TEXT_TAILS:
        assert text.splitlines()[-1] == TEXT_TAILS[name, seed]


if __name__ == "__main__":
    golden = {name: {str(seed): _hashes(name, seed) for seed in seeds} for name, seeds in SEEDS.items()}
    print(json.dumps(golden, indent=2))
