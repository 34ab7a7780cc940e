"""How fast the host runs Python right now, from a fixed reference workload.

The host this benchmark was defined on is shared: the same code runs up to
twice as slow for stretches of seconds to minutes, and a whole 35 s run can
fall in one slow stretch. The fastest or the median pipeline of a run moves
with that load. So every end-to-end timing is scaled by the host's speed,
measured right before and right after the timed work:

    scaled = host seconds * (REF_S / median seconds of one reference call) ** ELASTICITY

A scaled time is the time the work would take on a host that runs the
reference in REF_S. It still rises and falls with the program's own
speed, because the reference never calls sdpcast. Different code slows by
different amounts in a slow stretch, so the reference mixes three kinds
of work the pipeline does, in about equal time: small objects with a
`json` round trip and a sort; dict updates and str formatting; and calls,
attribute reads and float math as in the discovery scan.

A slow stretch slows the pipeline less than the reference. Over five
35 s runs per workload, log pipeline time against log reference time had
a slope of 0.70 on crowd-20 and 0.90 on sparse-1000, so the factor is
raised to ELASTICITY = 0.8. With it, the median pipeline times of those
runs spread by 0.7% on crowd-20, 6.2% on sparse-1000 and 6.8% on
churn-400 (q3 - q1 over the median), against 27%, 14% and 14% unscaled.

The reference, REF_S and ELASTICITY are part of the benchmark's
definition: changing any of them changes every scaled figure.
"""

from __future__ import annotations

import json
import statistics
import time

REF_S = 0.004  # about one reference call on a 2-vCPU Xeon VM with CPython 3.11, when it runs fast
REPS = 6  # reference calls in one batch
ELASTICITY = 0.8  # d log(pipeline time) / d log(reference time) under host load


class _Record:
    __slots__ = ("t", "kind", "detail")

    def __init__(self, t: float, kind: str, detail: dict) -> None:
        self.t, self.kind, self.detail = t, kind, detail


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


_DOC = [
    {
        "t": i * 0.5,
        "kind": f"K{i % 6}",
        "observer": f"02:00:00:00:00:{i % 256:02x}",
        "detail": {"round": i, "records": [i, i + 1, "ab" * 8]},
    }
    for i in range(150)
]
_POINTS = [_Point(i * 0.37 % 600.0, i * 0.91 % 600.0) for i in range(10000)]


def _records() -> list:
    """Small objects, a json round trip and a sort, as in the log and report."""
    lines = []
    for obj in _DOC:
        rec = _Record(obj["t"], obj["kind"], obj["detail"])
        lines.append(json.dumps({"t": rec.t, "kind": rec.kind, "detail": rec.detail}, separators=(",", ":")))
    back = [json.loads(line) for line in lines]
    return sorted(back, key=lambda r: (r["kind"], r["t"]))


def _counters() -> int:
    """Dict updates and str formatting, as in event bookkeeping."""
    counts: dict[int, int] = {}
    width = 0
    for i in range(4000):
        counts[i % 977] = counts.get(i % 977, 0) + i
        width += len(str(i))
    return width


def _near(a: _Point, b: _Point) -> bool:
    dx, dy = a.x - b.x, a.y - b.y
    return dx * dx + dy * dy <= 100.0


def _distances() -> int:
    """Calls, attribute reads and float math, as in the discovery scan."""
    origin = _POINTS[0]
    return sum(1 for p in _POINTS if _near(origin, p))


def reference() -> None:
    """The fixed reference work: three kinds of Python work the pipeline does."""
    _records()
    _counters()
    _distances()


def batch() -> list[int]:
    """Nanoseconds of each of REPS reference calls, made now."""
    out = []
    for _ in range(REPS):
        start = time.perf_counter_ns()
        reference()
        out.append(time.perf_counter_ns() - start)
    return out


def scale(before: list[int], after: list[int]) -> float:
    """The factor that turns host seconds, measured between two batches,
    into seconds on a host that runs the reference in REF_S."""
    return (REF_S / (statistics.median(before + after) / 1e9)) ** ELASTICITY
