"""Exception hierarchy shared across the package."""


class SdpcastError(Exception):
    """Base class for all sdpcast errors."""


# -- codec ------------------------------------------------------------------

class PayloadTooLong(SdpcastError):
    """Input exceeds the 13-octet UUID payload capacity."""


class PayloadTooShort(SdpcastError):
    """Raw-mode input is shorter than 13 octets; padding must be explicit."""


class InvalidMarker(SdpcastError):
    """Marker is not exactly 4 hex digits."""


class MalformedUuid(SdpcastError):
    """Input is not a syntactically valid 8-4-4-4-12 UUID string."""


class NotAPayloadUuid(SdpcastError):
    """UUID is well-formed but carries no payload (wrong version/variant/marker)."""


# -- framing ----------------------------------------------------------------

class MessageTooLong(SdpcastError):
    """Message exceeds the advertised capacity for the selected mode."""


class ReassemblyError(SdpcastError):
    """A chunk set cannot be reassembled into a message."""


class IncompleteSet(ReassemblyError):
    """Chunk indices are missing (typically a torn read)."""


class InconsistentTotals(ReassemblyError):
    """Chunks disagree about the frame layout (mixed generations)."""


class ConflictingDuplicate(ReassemblyError):
    """Two chunks claim the same index with different bodies."""


# -- simulator --------------------------------------------------------------

class InvalidScenario(SdpcastError):
    """Scenario fails validation; message carries the diagnosis."""


class UnknownScenario(SdpcastError):
    """No built-in scenario with the requested name."""


# -- reporting --------------------------------------------------------------

class MalformedLog(SdpcastError):
    """Event log line cannot be parsed; message carries the line number."""
