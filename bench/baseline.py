"""Re-measure the ROADMAP re-anchor baseline: crowd-20, simulator seed 1, stage by stage.

    python3 bench/baseline.py

Times `run`, serializing every event with `SimEvent.to_json`, `load_log`
of those lines and `build_report`, in memory, REPS times. Prints each
stage's median and quartiles beside the re-anchor figure and the gap
between them, and exits 1 if the event count is not the re-anchor's 46 040.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time

from pipeline import import_sdpcast

REPS = 7
ANCHOR_EVENTS = 46_040
ANCHOR_MS = {"run": 355.0, "to_json": 317.0, "load_log": 447.0, "build_report": 120.0}


def main() -> int:
    sdp = import_sdpcast()
    scenario = sdp.scenario_gen("crowd-20")
    samples: dict[str, list[float]] = {stage: [] for stage in ANCHOR_MS}
    counts = set()
    for _ in range(REPS):
        gc.collect()
        t0 = time.perf_counter()
        events = sdp.run(scenario, seed=1)
        t1 = time.perf_counter()
        lines = [event.to_json() + "\n" for event in events]
        t2 = time.perf_counter()
        loaded = sdp.load_log(lines)
        t3 = time.perf_counter()
        sdp.build_report(loaded)
        t4 = time.perf_counter()
        for stage, a, b in zip(ANCHOR_MS, (t0, t1, t2, t3), (t1, t2, t3, t4)):
            samples[stage].append(1e3 * (b - a))
        counts.add(len(events))
        del events, lines, loaded

    summary = {"events": sorted(counts), "stages_ms": {}}
    print(f"crowd-20 seed 1: events {sorted(counts)} (re-anchor {ANCHOR_EVENTS}), {REPS} reps")
    for stage, values in samples.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        gap = med / ANCHOR_MS[stage] - 1
        summary["stages_ms"][stage] = {"q1": q1, "median": med, "q3": q3, "anchor": ANCHOR_MS[stage]}
        print(f"  {stage:13s} median {med:7.1f} ms  q1 {q1:7.1f}  q3 {q3:7.1f}  "
              f"re-anchor {ANCHOR_MS[stage]:5.0f} ms  gap {100 * gap:+.0f}%")
    print(json.dumps(summary))
    return 0 if counts == {ANCHOR_EVENTS} else 1


if __name__ == "__main__":
    sys.exit(main())
