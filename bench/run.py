"""sdpcast benchmark: the scenario -> simulate -> log -> report pipeline, in scaled host time.

    python3 bench/run.py --workload crowd-20 --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; the package is imported from `src/`.
One process, one thread, closed loop: a single caller runs one pipeline
after the other for `--seconds`, each with a new simulator seed, cycling
over the run's layouts. Layouts and simulator seeds all derive from
`--seed`. Set-up (build the scenario, `scenario_to_json`,
`scenario_from_json`) is timed on its own, in batches of at least
SETUP_BATCH_S, once per layout before the loop and again after every
pipeline, so its samples cover the whole run. An untimed, checked
pipeline comes first, and after the loop two fresh processes measure the
peak memory of each half of the pipeline (memprobe.py).

Every end-to-end timing is scaled to a fixed host speed: a batch of
reference calls runs right before and right after each timed pipeline and
each block of set-ups, and the host seconds in between are scaled by the
reference's median time (hostspeed.py). The workloads are sized so that
one pipeline takes about a second, so that the reference batches stay
close in time to what they scale.

`--trace 0` prints the end-to-end metrics. `--trace 1` prints the
per-layer ones: spans around each call into a layer, a replay of codec and
framing calls over the first pipeline's traffic and a message-size sweep.
Either way the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Traces and a full result record (machine, Python version,
commit, every sample) go to `.bench_out/` in the checkout; the event log
written there is removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from pipeline import OUT, ROOT, Checks, import_sdpcast, inspect, median, read_log, run_pipeline, write_log
from tracing import Tracer, replay, replay_inputs, sweep
from workloads import WORKLOADS

# Spelled out rather than imported: the per-layer metric names must not
# change when the simulator drops or adds an event kind.
EVENT_KINDS = (
    "ScanStarted",
    "DeviceFound",
    "UuidsFetched",
    "PayloadDecoded",
    "MessageReassembled",
    "MessageChanged",
)
SETUP_STEPS = ("setup.build", "setup.to_json", "setup.from_json")
SETUP_SHARE = 0.05  # set-up time spent after each pipeline, as a share of that pipeline's time
SETUP_BATCH_S = 0.05  # one set-up sample repeats set-ups of a layout until it lasts this long
CHILD_TIMEOUT_S = 170


class SetUp:
    """Builds, serializes and reloads layouts of one workload, timing each step.

    A sample is a batch of set-ups of one layout that lasts at least
    SETUP_BATCH_S; it records the mean time per set-up and per step, and
    `block` gives each sample the host-speed factor of the block it ran in.
    """

    def __init__(self, sdp, builder, layouts: int, key: str, checks: Checks, tracer: Tracer | None) -> None:
        self.sdp, self.builder, self.layouts, self.key = sdp, builder, layouts, key
        self.checks, self.tracer = checks, tracer
        self.texts: dict[int, str] = {}
        self.count = 0
        self.totals: list[float] = []
        self.factors: list[float] = []
        self.steps: dict[str, list[float]] = {name: [] for name in SETUP_STEPS}

    def block(self, samples: int, min_s: float) -> dict:
        """At least `samples` samples, and at least `min_s` of them, of the
        layouts in turn, between two reference batches. Returns the last
        scenario built of each layout sampled."""
        before = hostspeed.batch()
        first = len(self.totals)
        start = time.perf_counter()
        scenarios = {}
        while len(self.totals) - first < samples or time.perf_counter() - start < min_s:
            layout = len(self.totals) % self.layouts
            scenarios[layout] = self.sample(layout)
        factor = hostspeed.scale(before, hostspeed.batch())
        self.factors.extend([factor] * (len(self.totals) - first))
        return scenarios

    def scaled(self, values: list[float]) -> float:
        return median([v * f for v, f in zip(values, self.factors)])

    def sample(self, layout: int):
        """One batch of set-ups of `layout`; returns the last scenario built."""
        step_ns = [0] * len(SETUP_STEPS)
        done = 0
        while sum(step_ns) < SETUP_BATCH_S * 1e9 or not done:
            scenario = self.once(layout, step_ns)
            done += 1
        self.count += done
        self.totals.append(sum(step_ns) / done / 1e9)
        for name, ns in zip(SETUP_STEPS, step_ns):
            self.steps[name].append(ns / done / 1e9)
        return scenario

    def once(self, layout: int, step_ns: list[int]):
        clock = time.perf_counter_ns
        sdp = self.sdp
        t0 = clock()
        built = self.builder(sdp, random.Random(f"{self.key}/layout{layout}"))
        t1 = clock()
        text = sdp.scenario_to_json(built)
        t2 = clock()
        scenario = sdp.scenario_from_json(text)
        t3 = clock()
        root = self.tracer.add("bench.setup", None, t0, t3) if self.tracer else None
        for i, (name, start, end) in enumerate(zip(SETUP_STEPS, (t0, t1, t2), (t1, t2, t3))):
            step_ns[i] += end - start
            if self.tracer:
                self.tracer.add(name, root, start, end)
        if layout in self.texts:
            self.checks.expect(text == self.texts[layout], f"layout {layout} gives a byte-identical scenario JSON")
        else:
            self.texts[layout] = text
        return scenario

    def per_layer(self) -> dict[str, float]:
        out = {f"{name}_s": self.scaled(values) for name, values in self.steps.items()}
        out["setup.scenario_bytes"] = len(self.texts[0].encode("utf-8"))
        return out


def log_bytes_by_kind(events) -> dict[str, int]:
    out = dict.fromkeys(EVENT_KINDS, 0)
    for event in events:
        out[event.kind] = out.get(event.kind, 0) + len(event.to_json()) + 1
    return out


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_peak_mb(mode: str, scenario_path: Path, seed: int, log_path: Path) -> float:
    """Peak RSS of a fresh process that runs one half of the pipeline (see memprobe.py)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "memprobe.py"),
         mode, str(scenario_path), str(seed), str(log_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return int(done.stdout.split()[-1]) / 1e6


def commit() -> str:
    """The checkout's commit when it is a git work tree, read without running git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(),
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sdp = import_sdpcast()
    builder, layouts, fixed = WORKLOADS[args.workload]
    key = f"sdpcast-bench/{args.workload}/{args.seed}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"log-{tag}.jsonl"
    scenario_path = OUT / f"scenario-{tag}.json"
    checks = Checks()
    tracer = Tracer() if args.trace else None
    setup = SetUp(sdp, builder, layouts, key, checks, tracer)
    built = setup.block(layouts, 0.0)
    scenarios = [built[layout] for layout in range(layouts)]
    checks.expect(
        sdp.scenario_to_json(scenarios[0]) == setup.texts[0],
        "scenario_from_json(scenario_to_json(s)) serializes back to the same text",
    )

    # --seconds covers this first, untimed pipeline, the timed loop and
    # the checks. The first pipeline has the first timed pipeline's layout
    # and seed, and keeps run's events to compare them with load_log of
    # the written log.
    started = time.perf_counter()
    sim_rng = random.Random(key + "/sim")
    seeds = [sim_rng.getrandbits(32)]
    events = list(sdp.run(scenarios[0], seed=seeds[0]))
    write_log(events, log_path)
    checks.expect(read_log(sdp, log_path) == events, "load_log of the written log equals run's events")
    if tracer is not None:
        inputs = replay_inputs(events)
        kind_bytes = log_bytes_by_kind(events)
    del events

    # The timed loop. The first `fixed` pipelines always run, whatever
    # --seconds says; the deterministic metrics come from them alone.
    seconds, factors, stages, facts, trace_ns = [], [], [], [], []
    while len(seconds) < fixed or time.perf_counter() - started < args.seconds:
        if seconds:
            seeds.append(sim_rng.getrandbits(32))
        scenario = scenarios[len(seconds) % layouts]
        gc.collect()
        before = hostspeed.batch()
        outcome = run_pipeline(sdp, scenario, seeds[-1], log_path)
        factors.append(hostspeed.scale(before, hostspeed.batch()))
        if tracer is not None:
            t = time.perf_counter_ns()
            tracer.add_pipeline(outcome.marks)
            trace_ns.append(time.perf_counter_ns() - t)
        facts.append(inspect(sdp, outcome, scenario, log_path, checks, scenario.torn_read_mode))
        seconds.append(outcome.seconds)
        stages.append(outcome.stage_seconds())
        del outcome
        setup.block(1, SETUP_SHARE * seconds[-1])
    loop_s = time.perf_counter() - started
    scaled = [s * f for s, f in zip(seconds, factors)]

    scenario_path.write_text(setup.texts[0], encoding="utf-8")
    peaks = {mode: probe_peak_mb(mode, scenario_path, seeds[0], log_path) for mode in ("simulate", "report")}
    scenario_path.unlink()
    log_path.unlink()

    head = facts[:fixed]
    delays = [d for f in head for d in f.delays]
    if tracer is None:
        metrics = {
            "setup_s": (setup.scaled(setup.totals), "s"),
            "pipeline_p50_s": (median(scaled), "s"),
            "fetches_per_s": (median([f.fetches / s for f, s in zip(facts, scaled)]), "1/s"),
            "peak_mem_mb": (max(peaks.values()), "MB"),
            "log_bytes_per_fetch": (sum(f.log_bytes for f in head) / sum(f.fetches for f in head), "B"),
            "sim_delivery_p50_s": (median(delays), "s"),
        }
    else:
        metrics = per_layer_metrics(
            sdp, tracer, key, setup.per_layer(), scaled, factors, stages, facts, peaks, trace_ns, kind_bytes, inputs,
        )
        tracer.write(OUT / f"trace-{tag}.jsonl")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "pipelines": len(seconds),
        "loop_s": loop_s,
        "sim_seeds": seeds,
        "pipeline_s": seconds,
        "pipeline_factors": factors,
        "pipeline_fetches": [f.fetches for f in facts],
        "setup_s": setup.totals,
        "setup_factors": setup.factors,
        "setups": setup.count,
        "peak_mb": peaks,
        "deliveries": len(delays),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: value for name, (value, _unit) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    q = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    print(
        f"bench: {args.workload} seed {args.seed}: {len(seconds)} pipelines over {layouts} layouts "
        f"in {loop_s:.1f} s; pipeline s min {min(seconds):.3f} q1 {q[0]:.3f} median {q[1]:.3f} "
        f"q3 {q[2]:.3f} max {max(seconds):.3f}; scaled median {median(scaled):.3f}; "
        f"{setup.count} set-ups in {len(setup.totals)} samples; "
        f"Python {platform.python_version()}"
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer_metrics(sdp, tracer, key, setup_layer, scaled, factors, stages, facts, peaks, trace_ns,
                      kind_bytes, inputs) -> dict:
    def stage_p50(name: str) -> float:
        return median([s[name] * f for s, f in zip(stages, factors)])

    first = facts[0]
    fetches = first.fetches
    found = first.kinds["DeviceFound"]

    values: dict[str, tuple[float, str]] = {}
    for name, value in setup_layer.items():
        values[name] = (value, "B" if name.endswith("bytes") else "s")
    values.update({
        "sim.run_s": (stage_p50("sim.run"), "s"),
        "sim.us_per_fetch": (median([1e6 * s["sim.run"] * k / f.fetches for s, k, f in zip(stages, factors, facts) if f.fetches]), "us"),
        "sim.scans": (first.kinds["ScanStarted"], "count"),
        "sim.found": (found, "count"),
        "sim.fetches": (fetches, "count"),
        "sim.reassembled": (first.reassembled, "count"),
        "sim.misdelivered": (first.misdelivered, "count"),
        "sim.events": (sum(first.kinds.values()), "count"),
    })
    for kind in EVENT_KINDS:
        values[f"sim.events.{kind}"] = (first.kinds[kind], "count")
    values.update({
        "sim.fetch_yield": (fetches / found if found else 0.0, "ratio"),
        "sim.reassembly_yield": (first.reassembled / fetches if fetches else 0.0, "ratio"),
        "sim.peak_mem_mb": (peaks["simulate"], "MB"),
        "log.write_s": (stage_p50("log.write"), "s"),
        "log.bytes": (first.log_bytes, "B"),
    })
    for kind in EVENT_KINDS:
        values[f"log.bytes.{kind}"] = (kind_bytes[kind], "B")
    values.update({
        "report.load_s": (stage_p50("report.load_log"), "s"),
        "report.build_s": (stage_p50("report.build_report"), "s"),
        "report.peak_mem_mb": (peaks["report"], "MB"),
    })
    values.update(replay(sdp, tracer, *inputs))
    values.update(sweep(sdp, tracer, random.Random(key + "/sweep")))
    values.update({
        "trace.pipeline_p50_s": (median(scaled), "s"),
        "bench.ref_us": (hostspeed.REF_S * median(factors) ** (-1 / hostspeed.ELASTICITY) * 1e6, "us"),
        "trace.overhead_s": (median(trace_ns) / 1e9, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    for layer, value in tracer.self_seconds().items():
        values[f"self.{layer}_s"] = (value, "s")
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
