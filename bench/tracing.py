"""Spans around the benchmark's calls into each layer, and the replay that times them.

A span is `(name, parent, start_ns, end_ns)`; `parent` is the index of the
enclosing span or None. The first part of a name is its layer: `bench`
(the benchmark's own glue), `setup`, `sim`, `log`, `report`, `codec` and
`framing`. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter, defaultdict
from pathlib import Path

from pipeline import STAGES, raw_payloads

LAYERS = ("bench", "setup", "sim", "log", "report", "codec", "framing")
FAIL_CLASSES = ("IncompleteSet", "InconsistentTotals", "ConflictingDuplicate")
SWEEP_SIZES = (0, 13, 82)
SWEEP_REPS = 500


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []

    def open(self, name: str, parent: int | None = None) -> int:
        self.spans.append([name, parent, time.perf_counter_ns(), None])
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter_ns()

    def add(self, name: str, parent: int | None, start: int, end: int) -> int:
        self.spans.append((name, parent, start, end))
        return len(self.spans) - 1

    def call(self, name: str, parent: int, fn, *args):
        """`fn(*args)` inside a span, which is recorded even when it raises."""
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, parent, start, time.perf_counter_ns()))

    def add_pipeline(self, marks: tuple[int, ...]) -> None:
        root = self.add("bench.pipeline", None, marks[0], marks[-1])
        for name, start, end in zip(STAGES, marks, marks[1:]):
            self.add(name, root, start, end)

    def us_per_call(self, parent: int) -> dict[str, float]:
        """Mean µs per child span of `parent`, by span name."""
        total: Counter = Counter()
        calls: Counter = Counter()
        for name, span_parent, start, end in self.spans:
            if span_parent == parent:
                total[name] += end - start
                calls[name] += 1
        return {name: total[name] / calls[name] / 1e3 for name in calls}

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time of its child spans."""
        covered: dict[int, int] = defaultdict(int)
        for _name, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, (name, _parent, start, end) in enumerate(self.spans):
            out[name.split(".")[0]] += (end - start - covered[sid]) / 1e9
        return out

    def write(self, path: Path) -> None:
        origin = min((s[2] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, start - origin, end - origin]) + "\n")


def replay_inputs(events) -> tuple[list, list]:
    """The advertised messages and the fetched record sets of one run, with each subject's mode."""
    mode: dict[str, str] = {}
    messages, fetches = [], []
    for event in events:
        if event.kind == "MessageChanged":
            mode[event.subject] = event.detail["mode"]
            messages.append((event.detail["mode"], bytes.fromhex(event.detail["message"])))
        elif event.kind == "UuidsFetched":
            fetches.append((mode.get(event.subject), list(event.detail["records"])))
    return messages, fetches


def _slot_payloads(sdp, mode: str, message: bytes) -> list[bytes]:
    if mode == "raw":
        return raw_payloads(message)
    return [sdp.detect(str(u)) for u in sdp.frame(message)]


def replay(sdp, tracer: Tracer, messages: list, fetches: list) -> dict[str, tuple[float, str]]:
    """Time codec and framing call by call on one run's own traffic.

    `detect` runs over every fetched record, `encode` over every advertised
    payload, `frame` over every framed message, and `unframe` or `raw_read`
    (by the subject's mode) over every fetch's record set.
    """
    root = tracer.open("bench.replay")
    call = tracer.call
    records = [record for _mode, recs in fetches for record in recs]
    payload_records = sum(call("codec.detect", root, sdp.detect, r) is not None for r in records)
    for mode, message in messages:
        for payload in _slot_payloads(sdp, mode, message):
            call("codec.encode", root, sdp.encode, payload)
        if mode == "framed":
            call("framing.frame", root, sdp.frame, message)
    fails: Counter = Counter()
    for mode, recs in fetches:
        if mode == "raw":
            call("framing.raw_read", root, sdp.raw_read, recs)
            continue
        try:
            call("framing.unframe", root, sdp.unframe, recs)
        except sdp.ReassemblyError as exc:
            fails[type(exc).__name__] += 1
    tracer.close(root)

    us = tracer.us_per_call(root)
    metrics = {
        "codec.records": (len(records), "count"),
        "codec.detect_us": (us.get("codec.detect", 0.0), "us"),
        "codec.encode_us": (us.get("codec.encode", 0.0), "us"),
        "codec.payload_ratio": (payload_records / len(records) if records else 0.0, "ratio"),
        "framing.frame_us": (us.get("framing.frame", 0.0), "us"),
        "framing.unframe_us": (us.get("framing.unframe", 0.0), "us"),
        "framing.raw_read_us": (us.get("framing.raw_read", 0.0), "us"),
    }
    for name in FAIL_CLASSES:
        metrics[f"framing.fail.{name}"] = (fails[name], "count")
    return metrics


def sweep(sdp, tracer: Tracer, rng: random.Random) -> dict[str, tuple[float, str]]:
    """µs per message of 0, 13 and 82 octets for encode, detect, frame and unframe.

    One message of m octets is framed into max(1, ceil((m + 2) / 12))
    chunks; encode and detect cover every chunk of it, frame and unframe
    the whole message.
    """
    call = tracer.call
    metrics = {}
    for size in SWEEP_SIZES:
        root = tracer.open(f"bench.sweep.{size}")
        message = rng.randbytes(size)
        records = [str(u) for u in sdp.frame(message)]
        rng.shuffle(records)
        payloads = [sdp.detect(r) for r in records]
        for _ in range(SWEEP_REPS):
            for payload in payloads:
                call("codec.encode", root, sdp.encode, payload)
            for record in records:
                call("codec.detect", root, sdp.detect, record)
            call("framing.frame", root, sdp.frame, message)
            call("framing.unframe", root, sdp.unframe, records)
        tracer.close(root)
        per_message = {"codec.encode": len(payloads), "codec.detect": len(records)}
        for name, us in tracer.us_per_call(root).items():
            metrics[f"{name}_us.{size}"] = (us * per_message.get(name, 1), "us")
    return metrics
