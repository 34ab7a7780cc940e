"""Package layout: one module per decision, imported in one fixed order.

Each module of `src/sdpcast/` may import only modules before it in ORDER, so
the import graph has no cycles and no upward edges. The package `__init__`
re-exports the public names of the modules before it; `cli` reads
`__version__` from it.
"""

import ast
from pathlib import Path

import sdpcast
import sdpcast.sim

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sdpcast"

ORDER = [
    "errors", "codec", "framing", "model", "log", "sim", "scenarios", "report", "__init__", "cli"
]

# Facts more than one module uses, each defined in exactly one module.
OWNERS = {
    "_is_int": "framing",
    "chunk_count": "framing",
    "_is_finite": "model",
    "MODES": "model",
    "RAW": "model",
    "FRAMED": "model",
    "MAX_SCANS": "model",
    "Device": "model",
    "TimingModel": "model",
    "Mutation": "model",
    "Scenario": "model",
    "EVENT_KINDS": "log",
    "MESSAGE_CHANGED": "log",
    "RUN_STARTED": "log",
    "UUIDS_FETCHED": "log",
    "FETCH_ABORTED": "log",
    "MESSAGE_REASSEMBLED": "log",
    "_ENCODER": "log",
    "_iterencode": "log",
    "SimEvent": "log",
    "Deliveries": "log",
    "load_log": "log",
    "MAX_EVENTS": "sim",
    "run": "sim",
}

# `sdpcast.__all__` when the modules were split, less `AdvertisementTable` and
# `OutOfRange`, removed with the run state they held; each must stay importable.
PUBLIC = (
    "BUILTIN_SCENARIOS BandwidthReport CHUNK_BODY_OCTETS CapacityLimits "
    "CodecConfig ConflictingDuplicate DEFAULT_CONFIG DEFAULT_LIMITS DEFAULT_MARKER Device "
    "DeviceBandwidth FRAMED FetchBandwidth FrameHeader IncompleteSet InconsistentTotals "
    "InvalidMarker InvalidScenario LENGTH_PREFIX_OCTETS LatencyReport MAX_CHUNKS MalformedLog "
    "MalformedUuid MessageTooLong Mutation NotAPayloadUuid PAYLOAD_OCTETS PairLatency "
    "PayloadTooLong PayloadTooShort RAW ReassemblyError Report Scenario SdpcastError SimEvent "
    "TimingModel UnknownScenario advertise build_report decode detect encode fetch_snapshot "
    "format_lines format_text frame in_range is_well_formed_v4 load_log load_scenario "
    "printable_text raw_read run scenario_from_json scenario_gen scenario_to_json unframe"
).split()


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imports(module):
    """The package modules that `module` imports, `__init__` for the package itself."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # `from . import name`: a module, or a name of the package
                found.update(a.name if a.name in ORDER else "__init__" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sdpcast"):
            found.add(node.module.split(".")[1] if "." in node.module else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sdpcast":
                    found.add(alias.name.split(".")[1] if "." in alias.name else "__init__")
    return found


def _defined(module):
    """Names bound at the top level of `module`."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_module_has_a_place_in_the_order():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(ORDER)


def test_modules_import_only_earlier_modules():
    for position, module in enumerate(ORDER):
        later = _imports(module) - set(ORDER[:position])
        assert not later, f"{module} imports {sorted(later)}, which are not before it"


def test_each_shared_fact_is_defined_in_one_module():
    for name, owner in OWNERS.items():
        assert [m for m in ORDER if name in _defined(m)] == [owner], name


def test_public_names_stay_importable():
    for name in PUBLIC:
        assert name in sdpcast.__all__, name
        assert hasattr(sdpcast, name), name
    # tests patch the event budget where the runner reads it
    assert isinstance(sdpcast.sim.MAX_EVENTS, int)
    assert sdpcast.sim.run is sdpcast.run
