"""The `run` scaling sweep in tools/sweep.py: the shape of one tiny point, with no timing bound."""

import importlib.util
import math
from pathlib import Path

SWEEP = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"


def _sweep():
    spec = importlib.util.spec_from_file_location("sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_points_cover_both_series():
    points = _sweep().points()
    assert [p["n"] for p in points if p["series"] == "size"] == [20, 100, 400, 1000, 4000, 10000]
    density = [p for p in points if p["series"] == "density"]
    assert [p["target_in_range"] for p in density] == [1, 4, 16, 64]
    assert {p["n"] for p in density} == {400}
    # sparse-1000's square at N = 1 000
    assert math.isclose(next(p["side_m"] for p in points if p["n"] == 1000), 600.0)


def test_sweep_measures_one_tiny_point():
    sweep = _sweep()
    row = sweep.measure(n=20, side_m=20.0, repeats=2)
    assert set(row) == {
        "scans",
        "in_range_per_scan",
        "candidates_per_scan",
        "run_us_per_device",
        "scaled_us_per_device",
        "run_us_per_device_samples",
    }
    assert row["scans"] == 20  # one round
    assert 0 < row["in_range_per_scan"] < 20
    # the scanner itself and every device in range are among the candidates
    assert row["in_range_per_scan"] + 1 <= row["candidates_per_scan"] <= 20
    assert len(row["run_us_per_device_samples"]) == 2
    assert row["run_us_per_device"] > 0 and row["scaled_us_per_device"] > 0
    assert sweep.layout(20, 20.0).devices == sweep.layout(20, 20.0).devices
