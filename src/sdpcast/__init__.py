"""Payload-bearing service UUIDs: codec, framing, discovery simulation, reporting.

Binary payloads ride in the free nibbles of version-4-shaped UUIDs (13
octets per UUID), multi-UUID messages ride on a small chunk header, and a
deterministic simulator exercises the whole pipeline over virtual devices.
"""

from .codec import (
    DEFAULT_CONFIG,
    DEFAULT_MARKER,
    PAYLOAD_OCTETS,
    CodecConfig,
    decode,
    detect,
    encode,
    is_well_formed_v4,
    printable_text,
)
from .errors import (
    ConflictingDuplicate,
    IncompleteSet,
    InconsistentTotals,
    InvalidMarker,
    InvalidScenario,
    MalformedLog,
    MalformedUuid,
    MessageTooLong,
    NotAPayloadUuid,
    PayloadTooLong,
    PayloadTooShort,
    ReassemblyError,
    SdpcastError,
    UnknownScenario,
)
from .framing import (
    CHUNK_BODY_OCTETS,
    DEFAULT_LIMITS,
    LENGTH_PREFIX_OCTETS,
    MAX_CHUNKS,
    CapacityLimits,
    FrameHeader,
    frame,
    raw_read,
    unframe,
)
from .log import SimEvent, load_log
from .model import FRAMED, RAW, Device, Mutation, Scenario, TimingModel
from .report import (
    BandwidthReport,
    DeviceBandwidth,
    FetchBandwidth,
    LatencyReport,
    PairLatency,
    Report,
    build_report,
    format_lines,
    format_text,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    load_scenario,
    scenario_from_json,
    scenario_gen,
    scenario_to_json,
)
from .sim import advertise, fetch_snapshot, in_range, run

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SCENARIOS",
    "BandwidthReport",
    "CHUNK_BODY_OCTETS",
    "CapacityLimits",
    "CodecConfig",
    "ConflictingDuplicate",
    "DEFAULT_CONFIG",
    "DEFAULT_LIMITS",
    "DEFAULT_MARKER",
    "Device",
    "DeviceBandwidth",
    "FRAMED",
    "FetchBandwidth",
    "FrameHeader",
    "IncompleteSet",
    "InconsistentTotals",
    "InvalidMarker",
    "InvalidScenario",
    "LENGTH_PREFIX_OCTETS",
    "LatencyReport",
    "MAX_CHUNKS",
    "MalformedLog",
    "MalformedUuid",
    "MessageTooLong",
    "Mutation",
    "NotAPayloadUuid",
    "PAYLOAD_OCTETS",
    "PairLatency",
    "PayloadTooLong",
    "PayloadTooShort",
    "RAW",
    "ReassemblyError",
    "Report",
    "Scenario",
    "SdpcastError",
    "SimEvent",
    "TimingModel",
    "UnknownScenario",
    "advertise",
    "build_report",
    "decode",
    "detect",
    "encode",
    "fetch_snapshot",
    "format_lines",
    "format_text",
    "frame",
    "in_range",
    "is_well_formed_v4",
    "load_log",
    "load_scenario",
    "printable_text",
    "raw_read",
    "run",
    "scenario_from_json",
    "scenario_gen",
    "scenario_to_json",
    "unframe",
]
