"""Encode 13-octet payloads into v4-shaped service UUIDs and extract them back.

A payload UUID looks like a random version-4 UUID to any Bluetooth stack, but
its 26 free hex digits carry application data and its last 4 digits carry a
fixed marker that distinguishes it from ordinary service records:

    d0..d7 - d8..d11 - 4 d12..d14 - 8 d15..d17 - d18..d25 MARKER

where d0..d25 is the big-endian hex expansion of the 13 payload octets.  The
version nibble is pinned to ``4`` and the variant nibble to ``8``, so every
emitted UUID is a plausible RFC 4122 v4 identifier.

A genuinely random v4 UUID with variant ``8`` matches the marker with
probability 2**-16; callers who care can pick their own marker.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field

from .errors import (
    InvalidMarker,
    MalformedUuid,
    NotAPayloadUuid,
    PayloadTooLong,
    PayloadTooShort,
)

PAYLOAD_OCTETS = 13
DEFAULT_MARKER = "c0de"

_UUID_SHAPE = re.compile(
    r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}"
)
_MARKER_SHAPE = re.compile(r"[0-9a-f]{4}")

# Offsets into the 32-digit hyphenless form.
_VERSION_NIBBLE = 12
_VARIANT_NIBBLE = 16
_RFC4122_VARIANTS = "89ab"


@dataclass(frozen=True)
class CodecConfig:
    """Marker and padding behaviour for one codec instance.

    In text mode, short input is zero-padded up to 13 octets on encode and
    trailing zero octets are stripped on decode; this mirrors string-oriented
    use but silently truncates binary payloads with meaningful trailing
    zeros.  Raw mode (the default) requires exactly 13 octets and preserves
    them bit-exactly.
    """

    marker: str = DEFAULT_MARKER
    text_mode: bool = False
    # `detect`'s pattern for this marker, compiled once per config
    _pattern: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.marker, str):
            raise InvalidMarker(f"marker must be 4 hex digits, got {self.marker!r}")
        marker = self.marker.lower()
        if not _MARKER_SHAPE.fullmatch(marker):
            raise InvalidMarker(f"marker must be 4 hex digits, got {self.marker!r}")
        object.__setattr__(self, "marker", marker)
        object.__setattr__(self, "_pattern", _payload_pattern(marker))


def _payload_uuid(d: str, marker: str) -> str:
    """The payload UUID of the 26 hex digits `d` under `marker`: the one statement of its layout."""
    return f"{d[0:8]}-{d[8:12]}-4{d[12:15]}-8{d[15:18]}-{d[18:26]}{marker}"


def _payload_pattern(marker: str) -> re.Pattern:
    """Matches exactly the payload UUIDs under `marker`, in any case; its groups are the 26 digits.

    Built from `_payload_uuid` itself, so the layout is written down once.
    Only the marker is matched under IGNORECASE: the digit runs list both
    cases instead, which halves the time of a match.
    """
    template = _payload_uuid("." * (2 * PAYLOAD_OCTETS), f"(?i:{marker})")
    return re.compile(re.sub(r"\.+", lambda run: f"([0-9a-fA-F]{{{len(run[0])}}})", template))


DEFAULT_CONFIG = CodecConfig()


def _hex32(uuid_str: str) -> str:
    """Lowercase 32-digit form of a UUID string, or raise MalformedUuid."""
    s = uuid_str.lower() if isinstance(uuid_str, str) else ""
    if not _UUID_SHAPE.fullmatch(s):
        raise MalformedUuid(f"not a valid UUID string: {uuid_str!r}")
    return s.replace("-", "")


def encode(payload: bytes, config: CodecConfig = DEFAULT_CONFIG) -> str:
    """Encode a 13-octet payload into a marker-tagged v4-shaped UUID.

    Returns the canonical lowercase 8-4-4-4-12 string; `uuid.UUID(s).bytes`
    gives its 16-octet binary form.  Text mode zero-pads shorter input; raw
    mode requires exactly 13 octets.
    """
    payload = bytes(payload)
    if len(payload) != PAYLOAD_OCTETS:
        if len(payload) > PAYLOAD_OCTETS:
            raise PayloadTooLong(
                f"payload is {len(payload)} octets, capacity is {PAYLOAD_OCTETS}"
            )
        if not config.text_mode:
            raise PayloadTooShort(
                f"raw mode needs exactly {PAYLOAD_OCTETS} octets, got {len(payload)}"
            )
        payload = payload.ljust(PAYLOAD_OCTETS, b"\x00")
    return _payload_uuid(payload.hex(), config.marker)


def detect(uuid_str: str, config: CodecConfig = DEFAULT_CONFIG) -> bytes | None:
    """Extract the 13 payload octets from a UUID string, or None.

    Returns the payload iff the version nibble is 4, the variant nibble is 8
    and the trailing 4 digits equal the configured marker.  Matching is
    case-insensitive; raises MalformedUuid for non-UUID input.
    """
    try:
        match = config._pattern.fullmatch(uuid_str)  # its groups are the 26 digits
    except TypeError:  # not a string
        match = None
    if match is None:
        _hex32(uuid_str)  # raises unless it is a UUID, which then carries no payload
        return None
    return _match_payload(match)


def _match_payload(match: re.Match) -> bytes:
    """The 13 octets of a match of `CodecConfig._pattern`."""
    # Direct nibble-to-octet mapping: leading zeros survive.
    return bytes.fromhex("".join(match.groups()))


def decode(uuid_str: str, config: CodecConfig = DEFAULT_CONFIG) -> bytes:
    """Payload octets of a payload UUID: all 13 in raw mode, zero-stripped in text mode."""
    payload = detect(uuid_str, config)
    if payload is None:
        raise NotAPayloadUuid(f"no payload in {uuid_str!s}")
    if config.text_mode:
        return payload.rstrip(b"\x00")
    return payload


def is_well_formed_v4(uuid_str: str) -> bool:
    """True iff the string parses as a v4 UUID with an RFC 4122 variant nibble."""
    try:
        digits = _hex32(uuid_str)
    except MalformedUuid:
        return False
    return digits[_VERSION_NIBBLE] == "4" and digits[_VARIANT_NIBBLE] in _RFC4122_VARIANTS


def printable_text(payload: bytes) -> str | None:
    """The payload as text when every octet is printable ASCII, else None."""
    try:
        text = payload.decode("ascii")
    except UnicodeDecodeError:
        return None
    if text and all(c in string.printable and c not in "\x0b\x0c" for c in text):
        return text
    return None
