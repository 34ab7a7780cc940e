"""Aggregation of event logs into latency and bandwidth reports.

A log begins with its RunStarted header, which names the scanners, the
run's duration and the capacity limits the report counts against.  A line
that no run writes after it is MalformedLog: a fetch or abort whose
observer is no scanner or is its own subject, whose found time lies
outside [0, t], or whose t is past the duration; a fetch of more records
than the inbound limit; a change past the duration, or whose observer is
not its subject.  Each UuidsFetched reassembles
by `log.Deliveries`, as in the runner, and latency matches each
MessageChanged to the first fetch per observer that reassembles to what the
subject advertised for that generation: the message in framed mode, the
zero-padded 13-octet payloads in raw mode.  Any other bytes, such as a
splice of two same-sized generations, count as misdelivered and get no
latency.  A pair's latencies are the only record of its deliveries, and
the delivered and within-threshold counts are taken from them.  A pair's
first discovery is the least found time among its
UuidsFetched and FetchAborted lines.  A MessageReassembled is credited
with nothing and must repeat what the fetch just before it implies.
Bandwidth counts advertised octets per device and decoded octets per fetch
against the run's outbound and inbound ceilings (91/273 octets under the
default limits).  A report keeps one record per subject (its latest
change), one per (observer, subject) pair (fetch index, first discovery,
delivery latencies, last generation credited) and four numbers per fetch
in columns (time, pair index, record count, payload-record count), from
which `BandwidthReport.fetches`, a sized iterable that compares equal to
the tuple of its records, builds each `FetchBandwidth` as it is read.
"""

from __future__ import annotations

import statistics
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .codec import PAYLOAD_OCTETS
from .errors import MalformedLog, SdpcastError
from .framing import CapacityLimits, chunk_count, raw_payloads
from .log import (
    FETCH_ABORTED, MESSAGE_CHANGED, MESSAGE_REASSEMBLED, RUN_STARTED, UUIDS_FETCHED, Deliveries,
    SimEvent, _iterencode,
)
from .model import RAW, _is_finite

DELIVERY_THRESHOLD_S = 60.0


@dataclass(frozen=True)
class PairLatency:
    """Delivery figures for one (observer, subject) pair."""

    observer: str
    subject: str
    first_discovery_s: float | None
    latencies: tuple[float, ...]

    @property
    def min_s(self) -> float | None:
        return min(self.latencies) if self.latencies else None

    @property
    def median_s(self) -> float | None:
        return statistics.median(self.latencies) if self.latencies else None

    @property
    def max_s(self) -> float | None:
        return max(self.latencies) if self.latencies else None


@dataclass(frozen=True)
class LatencyReport:
    """Per-pair latencies plus the delivered-within-threshold aggregate.

    An opportunity is one (message change, scanning observer) pair; the
    aggregate fraction counts opportunities delivered within threshold_s.
    changes_misdelivered counts reassemblies whose bytes differ from what
    the subject advertised for that generation; none of them is delivered.
    """

    pairs: tuple[PairLatency, ...]
    threshold_s: float
    changes_total: int
    changes_delivered: int
    changes_within_threshold: int
    changes_misdelivered: int

    @property
    def fraction_within(self) -> float:
        if self.changes_total == 0:
            return 1.0
        return self.changes_within_threshold / self.changes_total


@dataclass(frozen=True)
class DeviceBandwidth:
    """Outbound usage of one advertiser at its latest generation."""

    device: str
    slots: int
    advertised_octets: int
    utilization: float


class FetchBandwidth(NamedTuple):
    """Inbound usage of one completed fetch; a named tuple, like a log's
    `SimEvent`, built when `BandwidthReport.fetches` is read."""

    t: float
    observer: str
    subject: str
    records: int
    payload_records: int
    decoded_octets: int
    utilization: float


class _Fetches:
    """The fetches of a report, in log order: a read-only, sized iterable of
    `FetchBandwidth` that holds four columns and builds each record as it is
    read. It compares equal to the tuple of its records, which `tuple(...)`
    gives for indexing.
    """

    __slots__ = ("_columns", "_pairs", "_inbound_ceiling")

    def __init__(
        self, columns: tuple[array, array, array, array], pairs: tuple[tuple[str, str], ...],
        inbound_ceiling: int,
    ) -> None:
        # times, pair indices into `pairs`, record counts, payload-record counts
        self._columns, self._pairs, self._inbound_ceiling = columns, pairs, inbound_ceiling

    def _fetch(self, t: float, pair: int, records: int, payload_records: int) -> FetchBandwidth:
        decoded_octets = payload_records * PAYLOAD_OCTETS
        return FetchBandwidth(
            t, *self._pairs[pair], records, payload_records, decoded_octets,
            decoded_octets / self._inbound_ceiling,
        )

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[FetchBandwidth]:
        return map(self._fetch, *self._columns)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (_Fetches, tuple)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented


@dataclass(frozen=True)
class BandwidthReport:
    devices: tuple[DeviceBandwidth, ...]
    fetches: _Fetches
    outbound_ceiling: int
    inbound_ceiling: int


@dataclass(frozen=True)
class Report:
    latency: LatencyReport
    bandwidth: BandwidthReport


def _advertised(detail: dict) -> tuple[dict, int]:
    """The MessageReassembled detail of an exact delivery of a MessageChanged,
    and the slots its advert takes. Framed, that detail is the MessageChanged's."""
    message = detail["message"]
    if detail["mode"] == RAW:
        payloads = sorted(p.hex() for p in raw_payloads(bytes.fromhex(message)))
        exact = {"generation": detail["generation"], "mode": RAW, "payloads": payloads}
        return exact, len(payloads)
    return detail, chunk_count(len(message) // 2)


def _unwritten(kind: str, t: float, observer: str, subject: str, why: str) -> MalformedLog:
    """The error for a line that no run writes, saying why."""
    return MalformedLog(f"the {kind} at t={t} of {subject} by {observer} {why}")


def build_report(events: Iterable[SimEvent], threshold_s: float = DELIVERY_THRESHOLD_S) -> Report:
    """Aggregate a run's events in one pass; pure and deterministic for a given log.

    Raises SdpcastError, before reading any event, unless `threshold_s` is a
    finite, non-negative number, not a bool; the report holds it as a float.
    Raises MalformedLog unless the first event, and only the first, is the
    RunStarted header, unless each MessageChanged holds a generation above
    its subject's previous one, and unless each MessageReassembled is the one
    that the UuidsFetched just before it implies; and for a line that no run
    writes after that header (see the module docstring).
    """
    if not (_is_finite(threshold_s) and threshold_s >= 0):
        raise SdpcastError(
            f"threshold must be a finite, non-negative number of seconds, got {threshold_s!r}"
        )
    threshold_s = float(threshold_s) + 0.0  # -0.0 + 0.0 is 0.0
    events = iter(events)
    header = next(events, None)
    if header is None or header.kind != RUN_STARTED:
        begins = "is empty" if header is None else f"begins with a {header.kind}"
        raise MalformedLog(f"a log must begin with its {RUN_STARTED} header; this one {begins}")
    limits = CapacityLimits(**header.detail["limits"])
    duration_s, scanners = header.detail["duration_s"], header.detail["scanners"]
    max_records = limits.max_inbound_records
    ends = f"comes after the run ends at duration_s {duration_s}"
    # A fetch reassembles in its subject's latest generation, so only the
    # latest change of each subject is kept: subject -> (generation, change
    # time, the detail of an exact delivery, the slots its advert takes).
    latest: dict[str, tuple[int, float, dict, int]] = {}
    changes_total = 0
    # (observer, subject) -> [the pair's index in the fetch columns, the least
    # found time of its fetch windows, the latencies of its first exact
    # deliveries, the last generation credited]. Generations rise, so a
    # delivery is its generation's first unless that is the last credited.
    per_pair: dict[tuple[str, str], list] = {}
    misdelivered = 0
    # The columns of the report's fetches, one entry per UuidsFetched: its
    # time, its pair's index, its record count and its payload-record count.
    times, pair_of, record_counts, payload_counts = array("d"), array("q"), array("q"), array("q")
    deliveries = Deliveries()
    fetched = deliveries.fetched
    implied = None  # (t, observer, subject, detail or None) of the previous fetch

    for t, kind, observer, subject, detail in events:
        if kind == UUIDS_FETCHED or kind == FETCH_ABORTED:
            found = detail["found"]
            if not 0.0 <= found <= t <= duration_s:
                why = f"holds found {found}, outside [0, {t}]" if t <= duration_s else ends
                raise _unwritten(kind, t, observer, subject, why)
            pair = per_pair.get((observer, subject))
            if pair is None:  # the pair's first line: its observer is checked once
                if observer not in scanners or observer == subject:
                    why = "its own subject" if observer == subject else "no scanner in the header"
                    raise _unwritten(kind, t, observer, subject, f"has an observer that is {why}")
                pair = per_pair[observer, subject] = [len(per_pair), found, (), None]
            elif found < pair[1]:
                pair[1] = found
            if kind == FETCH_ABORTED:
                implied = None
                continue
            records = detail["records"]
            count = len(records)
            if count > max_records:
                why = f"holds {count} records, over max_inbound_records {max_records}"
                raise _unwritten(kind, t, observer, subject, why)
            payload_records, reassembled = fetched(observer, subject, records)
            times.append(t)
            pair_of.append(pair[0])
            record_counts.append(count)
            payload_counts.append(payload_records)
            implied = (t, observer, subject, reassembled)
            if reassembled is None:
                continue
            generation, changed_at, advertised, _ = latest[subject]
            if reassembled != advertised:
                misdelivered += 1
                continue
            if generation != pair[3]:
                pair[2] += (t - changed_at,)
                pair[3] = generation
        elif kind == MESSAGE_CHANGED:
            if observer != subject or t > duration_s:
                why = "has an observer other than its subject" if observer != subject else ends
                raise _unwritten(kind, t, observer, subject, why)
            generation = detail["generation"]
            previous = latest.get(subject)
            if previous is not None and generation <= previous[0]:
                raise MalformedLog(
                    f"the MessageChanged at t={t} of {subject} holds generation {generation}, "
                    f"not above its previous generation {previous[0]}"
                )
            latest[subject] = (generation, t, *_advertised(detail))
            changes_total += len(scanners) - (subject in scanners)
            deliveries.changed(subject, generation, detail["mode"])
            implied = None
        elif kind == MESSAGE_REASSEMBLED:
            if (t, observer, subject, detail) != implied:
                raise MalformedLog(
                    f"the MessageReassembled at t={t} of {subject} by {observer} is not "
                    f"what the UuidsFetched just before it reassembles to"
                )
            implied = None
        elif kind == RUN_STARTED:
            raise MalformedLog(
                f"a log holds one {RUN_STARTED} header; a second one is at t={t}"
            )

    pairs = tuple(
        PairLatency(observer, subject, first_discovery_s=found, latencies=latencies)
        for (observer, subject), (_, found, latencies, _) in sorted(per_pair.items())
    )
    # each delivery is one latency of its pair's record
    latencies = [latency for pair in pairs for latency in pair.latencies]

    devices = tuple(
        DeviceBandwidth(
            device=device,
            slots=slots,
            advertised_octets=slots * PAYLOAD_OCTETS,
            utilization=slots * PAYLOAD_OCTETS / limits.outbound_ceiling,
        )
        for device, (*_, slots) in sorted(latest.items())
    )

    return Report(
        latency=LatencyReport(
            pairs=pairs,
            threshold_s=threshold_s,
            changes_total=changes_total,
            changes_delivered=len(latencies),
            changes_within_threshold=sum(latency <= threshold_s for latency in latencies),
            changes_misdelivered=misdelivered,
        ),
        bandwidth=BandwidthReport(
            devices=devices,
            fetches=_Fetches(
                (times, pair_of, record_counts, payload_counts), tuple(per_pair),
                limits.inbound_ceiling,
            ),
            outbound_ceiling=limits.outbound_ceiling,
            inbound_ceiling=limits.inbound_ceiling,
        ),
    )


def _fmt_s(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def format_text(report: Report) -> str:
    """Human-readable summary."""
    lat, bw = report.latency, report.bandwidth
    out = ["latency"]
    if not lat.pairs:
        out.append("  no pairs observed")
    for pair in lat.pairs:
        out.append(
            f"  {pair.observer} <- {pair.subject}: first discovery {_fmt_s(pair.first_discovery_s)} s; "
            f"{len(pair.latencies)} deliveries, min/median/max "
            f"{_fmt_s(pair.min_s)}/{_fmt_s(pair.median_s)}/{_fmt_s(pair.max_s)} s"
        )
    out.append(
        f"  changes: {lat.changes_total} opportunities, {lat.changes_delivered} delivered, "
        f"{lat.changes_within_threshold} within {lat.threshold_s:g} s "
        f"(fraction {lat.fraction_within:.2f}), {lat.changes_misdelivered} misdelivered"
    )
    out.append("bandwidth")
    if not bw.devices:
        out.append("  no advertisers observed")
    for dev in bw.devices:
        out.append(
            f"  {dev.device}: {dev.slots} slots, {dev.advertised_octets} octets advertised "
            f"({100 * dev.utilization:.1f}% of {bw.outbound_ceiling})"
        )
    max_decoded = max((f.decoded_octets for f in bw.fetches), default=0)
    out.append(
        f"  fetches: {len(bw.fetches)}; max decoded {max_decoded} octets "
        f"(ceiling {bw.inbound_ceiling})"
    )
    return "\n".join(out) + "\n"


def format_lines(report: Report) -> str:
    """One JSON record per metric, for streaming consumers."""
    return "".join(_lines(report))


def _lines(report: Report) -> Iterator[str]:
    """The lines of `format_lines`, one row each, encoded as the rows come."""
    lat, bw = report.latency, report.bandwidth
    rows = chain(
        (
            {
                "metric": "pair",
                "observer": pair.observer,
                "subject": pair.subject,
                "first_discovery_s": pair.first_discovery_s,
                "deliveries": len(pair.latencies),
                "min_s": pair.min_s,
                "median_s": pair.median_s,
                "max_s": pair.max_s,
            }
            for pair in lat.pairs
        ),
        [
            {
                "metric": "changes",
                "total": lat.changes_total,
                "delivered": lat.changes_delivered,
                "within_threshold": lat.changes_within_threshold,
                "threshold_s": lat.threshold_s,
                "fraction": lat.fraction_within,
                "misdelivered": lat.changes_misdelivered,
            }
        ],
        # a row's keys are its record's fields, in field order
        ({"metric": "device", **vars(dev)} for dev in bw.devices),
        ({"metric": "fetch", **fetch._asdict()} for fetch in bw.fetches),
    )
    for row in rows:
        yield "".join(_iterencode(row, 0)) + "\n"
