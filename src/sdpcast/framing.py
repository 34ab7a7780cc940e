"""Split messages across advertisement slots and reassemble unordered chunk sets.

Service discovery enumerates records in no particular order, so framed mode
spends the first payload octet of every chunk on a header (index in the high
nibble, chunk count in the low nibble) and the first two body octets of chunk
0 on a big-endian message length.  With the default 7 slots that leaves
7*12 - 2 = 82 octets of framed capacity, against the raw per-slot ceilings of
13 octets per UUID, 91 octets outbound and 273 octets per inbound fetch.

There is no message id or checksum: a snapshot torn across a message change
is detected only when the resulting chunk set is inconsistent (missing
indices, mixed totals, or conflicting duplicates).  Two generations with the
same chunk count reassemble silently into mixed bytes; see the tests that
document this limitation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .codec import DEFAULT_CONFIG, PAYLOAD_OCTETS, CodecConfig, _match_payload, _payload_uuid
from .errors import ConflictingDuplicate, IncompleteSet, InconsistentTotals, MessageTooLong

CHUNK_BODY_OCTETS = 12     # payload octets per chunk after the header
LENGTH_PREFIX_OCTETS = 2   # leading octets of chunk 0, big-endian message length
MAX_CHUNKS = 15            # header packs the total into one nibble


class FrameHeader(NamedTuple):
    """Chunk position within a frame, packed into one octet."""

    index: int
    total: int

    def pack(self) -> int:
        if not 1 <= self.total <= MAX_CHUNKS:
            raise ValueError(f"total {self.total} does not fit in a nibble")
        if not 0 <= self.index < self.total:
            raise ValueError(f"index {self.index} out of range for total {self.total}")
        return (self.index << 4) | self.total

    @classmethod
    def unpack(cls, octet: int) -> FrameHeader:
        return cls(index=octet >> 4, total=octet & 0x0F)

    @property
    def valid(self) -> bool:
        return self.total >= 1 and 0 <= self.index < self.total


# The header octet as `frame` and `reassemble` use it, tabulated from
# FrameHeader: the hex of each (index, total) header by total, and
# (index, total) by octet, None for an invalid header.
_HEADER_HEX = {
    total: [f"{FrameHeader(index, total).pack():02x}" for index in range(total)]
    for total in range(1, MAX_CHUNKS + 1)
}
_HEADER_OF = tuple(
    tuple(header) if header.valid else None for header in map(FrameHeader.unpack, range(256))
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CapacityLimits:
    """Slot and record budgets observed on the measured Android stack."""

    max_outbound_slots: int = 7
    max_inbound_records: int = 21

    def __post_init__(self) -> None:
        slots, records = self.max_outbound_slots, self.max_inbound_records
        if not (_is_int(slots) and 1 <= slots <= MAX_CHUNKS):
            raise ValueError(
                f"max_outbound_slots must be 1..{MAX_CHUNKS}, got {slots}"
            )
        if not (_is_int(records) and records >= 1):
            raise ValueError(f"max_inbound_records must be a positive integer, got {records}")

    @property
    def outbound_ceiling(self) -> int:
        """Raw outbound octets: 7 * 13 = 91 with defaults."""
        return self.max_outbound_slots * PAYLOAD_OCTETS

    @property
    def inbound_ceiling(self) -> int:
        """Octets decodable from one fetch: 21 * 13 = 273 with defaults."""
        return self.max_inbound_records * PAYLOAD_OCTETS

    @property
    def framed_capacity(self) -> int:
        """Framed message octets: 7 * 12 - 2 = 82 with defaults."""
        return self.max_outbound_slots * CHUNK_BODY_OCTETS - LENGTH_PREFIX_OCTETS


DEFAULT_LIMITS = CapacityLimits()


def chunk_count(length: int) -> int:
    """The chunks a framed message of `length` octets takes: ceil((length + 2) / 12)."""
    return -(-(length + LENGTH_PREFIX_OCTETS) // CHUNK_BODY_OCTETS)


def frame(
    message: bytes,
    limits: CapacityLimits = DEFAULT_LIMITS,
    codec: CodecConfig = DEFAULT_CONFIG,
) -> list[str]:
    """Split a message into headered, length-prefixed chunks, one UUID each.

    Emits `chunk_count(len(message))` UUIDs; the final chunk is zero-padded.
    """
    message = bytes(message)
    if len(message) > limits.framed_capacity:
        raise MessageTooLong(
            f"message is {len(message)} octets, framed capacity is {limits.framed_capacity}"
        )
    total = chunk_count(len(message))
    body = len(message).to_bytes(LENGTH_PREFIX_OCTETS, "big") + message
    digits = body.ljust(total * CHUNK_BODY_OCTETS, b"\x00").hex()
    step = 2 * CHUNK_BODY_OCTETS
    return [
        _payload_uuid(header + digits[start:start + step], codec.marker)
        for header, start in zip(_HEADER_HEX[total], range(0, len(digits), step))
    ]


def raw_payloads(message: bytes) -> list[bytes]:
    """The zero-padded 13-octet payloads of a raw-mode message, one per slot.

    An empty message still takes one (all-zero) slot.
    """
    message = bytes(message)
    segments = [message[i:i + PAYLOAD_OCTETS] for i in range(0, len(message), PAYLOAD_OCTETS)]
    return [segment.ljust(PAYLOAD_OCTETS, b"\x00") for segment in segments or [b""]]


def unframe(
    uuids: Iterable[str],
    codec: CodecConfig = DEFAULT_CONFIG,
) -> bytes:
    """Reassemble a message from unordered UUID strings, skipping non-payload records."""
    return reassemble(raw_read(uuids, codec))


def reassemble(payloads: Iterable[bytes]) -> bytes:
    """Reassemble a message from an unordered batch of decoded 13-octet payloads.

    Payloads without a plausible chunk header, or empty, are ignored; duplicates with
    identical bodies are accepted.  Raises ConflictingDuplicate,
    InconsistentTotals or IncompleteSet when the surviving chunks do not
    form exactly one complete frame.
    """
    chunks: dict[int, bytes] = {}
    conflicts: set[int] = set()
    totals: set[int] = set()
    for payload in payloads:
        header = _HEADER_OF[payload[0]] if payload else None
        if header is None:
            continue
        index, total = header
        body = payload[1:]
        if index in chunks and chunks[index] != body:
            conflicts.add(index)
        chunks[index] = body
        totals.add(total)

    if conflicts:
        raise ConflictingDuplicate(
            f"conflicting bodies for chunk indices {sorted(conflicts)}"
        )
    if len(totals) > 1:
        raise InconsistentTotals(f"mixed chunk totals {sorted(totals)}")
    if not chunks:
        raise IncompleteSet("no frame chunks found")
    total = totals.pop()
    if len(chunks) < total:  # every index is below the one total
        missing = sorted(set(range(total)) - chunks.keys())
        raise IncompleteSet(f"missing chunk indices {missing} of {total}")

    body = b"".join([chunks[i] for i in range(total)])
    declared = int.from_bytes(body[:LENGTH_PREFIX_OCTETS], "big")
    if chunk_count(declared) != total:
        raise InconsistentTotals(
            f"declared length {declared} inconsistent with {total} chunks"
        )
    return body[LENGTH_PREFIX_OCTETS:LENGTH_PREFIX_OCTETS + declared]


def raw_read(
    uuids: Iterable[str],
    codec: CodecConfig = DEFAULT_CONFIG,
) -> list[bytes]:
    """All 13-octet payloads detected in a batch, in input order.

    Each string is matched against the codec's payload pattern, as `detect`
    matches it; anything else, malformed or not a string, is skipped.
    """
    fullmatch = codec._pattern.fullmatch
    return [
        _match_payload(match)
        for u in uuids
        if isinstance(u, str) and (match := fullmatch(u)) is not None
    ]
