"""The pipeline a user runs, and the checks on its outputs.

`run_pipeline` is the timed unit: `run` -> one `SimEvent.to_json` line per
event into a JSONL file -> `load_log` of that file -> `build_report`.
`inspect` then reads the log file back, outside the timed region, checks
the outputs and collects the counts that the metrics are built from.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

STAGES = ("sim.run", "log.write", "report.load_log", "report.build_report")
PAYLOAD_OCTETS = 13
CHUNK_BODY_OCTETS = 12  # framed payload octets per chunk, after the one-octet header
LENGTH_PREFIX_OCTETS = 2  # big-endian message length at the start of chunk 0


def import_sdpcast():
    """Import the package from this checkout's `src/`, never from site-packages."""
    src = ROOT / "src"
    if not (src / "sdpcast" / "__init__.py").is_file():
        sys.exit(f"bench: no sdpcast sources in {src}")
    sys.path.insert(0, str(src))
    import sdpcast

    if Path(sdpcast.__file__).resolve().parent != src / "sdpcast":
        sys.exit(f"bench: imported sdpcast from {sdpcast.__file__}, not from {src}")
    return sdpcast


@dataclass
class Outcome:
    report: object
    marks: tuple[int, ...]  # perf_counter_ns at the start and after each stage

    @property
    def seconds(self) -> float:
        return (self.marks[-1] - self.marks[0]) / 1e9

    def stage_seconds(self) -> dict[str, float]:
        return {name: (b - a) / 1e9 for name, a, b in zip(STAGES, self.marks, self.marks[1:])}


def write_log(events, log_path: Path) -> None:
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.writelines(event.to_json() + "\n" for event in events)


def read_log(sdp, log_path: Path) -> list:
    with open(log_path, encoding="utf-8") as fh:
        return list(sdp.load_log(fh))


def run_pipeline(sdp, scenario, seed: int, log_path: Path) -> Outcome:
    """One timed pipeline. It keeps nothing but the report, so it works the
    same whether `run` and `load_log` return lists or iterators."""
    clock = time.perf_counter_ns
    t0 = clock()
    events = sdp.run(scenario, seed=seed)
    t1 = clock()
    write_log(events, log_path)
    del events
    t2 = clock()
    with open(log_path, encoding="utf-8") as fh:
        loaded = sdp.load_log(fh)
        t3 = clock()
        report = sdp.build_report(loaded)
    del loaded
    t4 = clock()
    return Outcome(report, (t0, t1, t2, t3, t4))


class Checks:
    """Output checks, each one an attempted operation that passes or fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"bench: {failed} of {attempted} checks failed: {what}", file=sys.stderr)


@dataclass
class Facts:
    """What one pipeline produced, gathered while checking it."""

    kinds: Counter = field(default_factory=Counter)
    reassembled: int = 0
    misdelivered: int = 0
    log_bytes: int = 0
    delays: list[float] = field(default_factory=list)

    @property
    def fetches(self) -> int:
        return self.kinds["UuidsFetched"]


def raw_payloads(message: bytes) -> list[bytes]:
    """The zero-padded 13-octet payloads a raw-mode device advertises for `message`."""
    segments = [message[i:i + PAYLOAD_OCTETS] for i in range(0, len(message), PAYLOAD_OCTETS)]
    return [s.ljust(PAYLOAD_OCTETS, b"\x00") for s in segments or [b""]]


def framed_body(message: bytes) -> bytes:
    """The octets a framed message spreads over its chunks: a big-endian
    length prefix and the message, zero-padded to whole chunk bodies."""
    body = len(message).to_bytes(LENGTH_PREFIX_OCTETS, "big") + message
    return body.ljust(-(-len(body) // CHUNK_BODY_OCTETS) * CHUNK_BODY_OCTETS, b"\x00")


def advertised(mode: str, message: bytes) -> tuple[str, object]:
    """What a reader of a generation should reassemble: the message, or the raw slot payloads."""
    if mode == "raw":
        return "raw", sorted(p.hex() for p in raw_payloads(message))
    return "framed", message.hex()


def delivered(detail: dict) -> tuple[str, object]:
    if detail["mode"] == "raw":
        return "raw", sorted(detail["payloads"])
    return "framed", detail["message"]


def splices(mode: str, old: bytes, new: bytes) -> list[tuple[str, object]]:
    """Everything a torn read across a change from `old` to `new` can reassemble.

    The snapshot holds the old generation's slots before a split point and
    the new one's from it on, with 1 <= split < the old slot count. Framed
    chunks mix only when both generations have the same chunk count; the
    length prefix, in chunk 0, is then the old one.
    """
    if mode == "raw":
        a, b = raw_payloads(old), raw_payloads(new)
        return [("raw", sorted(p.hex() for p in a[:k] + b[k:])) for k in range(1, len(a))]
    a, b = framed_body(old), framed_body(new)
    if len(a) != len(b):
        return []
    cut = [k * CHUNK_BODY_OCTETS for k in range(1, len(a) // CHUNK_BODY_OCTETS)]
    body = slice(LENGTH_PREFIX_OCTETS, LENGTH_PREFIX_OCTETS + len(old))
    return [("framed", (a[:c] + b[c:])[body].hex()) for c in cut]


def inspect(sdp, outcome: Outcome, scenario, log_path: Path, checks: Checks, splice_allowed: bool) -> Facts:
    """Check one pipeline's outputs, read back from its log file, and count what it produced.

    Every MessageReassembled must carry exactly its generation's advertised
    bytes. Where torn reads are on (`splice_allowed`), it may instead carry
    a splice of the previous generation and its own (see `splices`); that
    counts as misdelivered, not as a failed check. Any other bytes fail.
    Only exact deliveries give delays.
    """
    loaded = read_log(sdp, log_path)
    facts = Facts(log_bytes=log_path.stat().st_size)
    max_records = scenario.limits.max_inbound_records
    # (subject, generation) -> (change time, mode, message)
    promised: dict[tuple[str, int], tuple[float, str, bytes]] = {}
    first_delivery: set[tuple[str, str, int]] = set()
    oversized = 0
    mismatched = []
    for event in loaded:
        facts.kinds[event.kind] += 1
        if event.kind == "MessageChanged":
            detail = event.detail
            promised[(event.subject, detail["generation"])] = (
                event.t, detail["mode"], bytes.fromhex(detail["message"]))
        elif event.kind == "UuidsFetched":
            oversized += len(event.detail["records"]) > max_records
        elif event.kind == "MessageReassembled":
            facts.reassembled += 1
            generation = event.detail["generation"]
            got = delivered(event.detail)
            current = promised.get((event.subject, generation))
            if current is not None and got == advertised(*current[1:]):
                key = (event.observer, event.subject, generation)
                if key not in first_delivery:
                    first_delivery.add(key)
                    facts.delays.append(event.t - current[0])
                continue
            previous = promised.get((event.subject, generation - 1))
            if (splice_allowed and current is not None and previous is not None
                    and previous[1] == current[1]
                    and got in splices(current[1], previous[2], current[2])):
                facts.misdelivered += 1
            else:
                mismatched.append(event)
    where = ", ".join(f"{e.observer} <- {e.subject} at t={e.t}" for e in mismatched[:3])
    checks.tally(facts.reassembled, len(mismatched), f"reassembled bytes match no advertisement: {where}")
    checks.tally(facts.fetches, oversized, f"fetches over {max_records} records")
    checks.expect(
        len(outcome.report.bandwidth.fetches) == facts.fetches,
        f"report counts {len(outcome.report.bandwidth.fetches)} fetches, the log {facts.fetches}",
    )
    return facts


def median(values) -> float:
    return statistics.median(values) if values else 0.0
