"""Scaling sweep of the simulator's `run`: time per device and grid work per scan.

    python3 tools/sweep.py --tree parent=../sdpcast-parent --tree change=. --out BENCH_sweep.json

Each `--tree LABEL=PATH` names a checkout whose `src/` is measured; without
one, the checkout holding this file is measured under the label `this`.
Every (point, tree) runs in a fresh child process, and the trees take turns
going first from one point to the next, so a slow stretch of a shared host
does not fall on one tree only.

A point is a seeded layout of N framed devices, uniform in a square, 10 m
range, one scan round (sparse-1000's shape). Two series:

- N in {20, 100, 400, 1 000, 4 000, 10 000} at sparse-1000's density,
  1 000 devices per 600 m square;
- N = 400, in a square sized for {1, 4, 16, 64} devices in range on
  average, away from the edges.

Per point it records the scans (one `_Runner._candidates` call each), the
mean devices in range per scan (discoveries over scans: a discovery is one
UuidsFetched or FetchAborted line), the mean
grid candidates per scan (the length of `_Runner._candidates`, which counts
the scanner itself), and the median of `REPEATS` timed runs of `run` in µs
per device: host time, and host time scaled to the benchmark's reference
host speed (`bench/hostspeed.py`).
No figure is checked against a bound; the sweep is a record, not a gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RANGE_M = 10.0
DENSITY = 1000 / 600.0**2  # devices per square metre, as in sparse-1000
SIZES = (20, 100, 400, 1000, 4000, 10000)
IN_RANGE = (1, 4, 16, 64)  # mean devices in range, for the density series
DENSITY_N = 400
MAX_FRAMED_OCTETS = 82
REPEATS = 3  # timed runs per (point, tree)
CHILD_TIMEOUT_S = 600


def _load_hostspeed():
    spec = importlib.util.spec_from_file_location("hostspeed", ROOT / "bench" / "hostspeed.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def points() -> list[dict]:
    """Every point of both series: its N and the side of its square in metres."""
    out = [{"series": "size", "n": n, "side_m": math.sqrt(n / DENSITY)} for n in SIZES]
    for k in IN_RANGE:
        side = math.sqrt(DENSITY_N * math.pi * RANGE_M**2 / k)
        out.append({"series": "density", "n": DENSITY_N, "side_m": side, "target_in_range": k})
    return out


def layout(n: int, side_m: float, seed: int = 0):
    """`n` framed devices uniform in a `side_m` square; every one scans at t = 0, once."""
    import sdpcast as sdp

    rng = random.Random(seed)
    devices = [
        sdp.Device(
            address=f"02:00:00:00:{k >> 8:02x}:{k & 0xFF:02x}",
            position=(rng.uniform(0.0, side_m), rng.uniform(0.0, side_m)),
            range_m=RANGE_M,
            scan_interval_s=30.0,
            message=rng.randbytes(rng.randint(0, MAX_FRAMED_OCTETS)),
            mode=sdp.FRAMED,
        )
        for k in range(n)
    ]
    return sdp.Scenario(name=f"sweep-{n}", duration_s=25.0, seed=0, devices=devices)


def measure(n: int, side_m: float, repeats: int, seed: int = 0) -> dict:
    """Counts from one instrumented run and µs per device from `repeats` plain ones."""
    import sdpcast as sdp
    from sdpcast.sim import _Runner

    class Counting(_Runner):
        scans = candidates = 0

        def _candidates(self, node):
            found = super()._candidates(node)
            self.scans += 1
            self.candidates += len(found)
            return found

    hostspeed = _load_hostspeed()
    sc = layout(n, side_m, seed)
    runner = Counting(sc)
    found = sum(event.kind in ("UuidsFetched", "FetchAborted") for event in runner.execute())
    scans = runner.scans
    host_us, scaled_us = [], []
    for _ in range(repeats):
        before = hostspeed.batch()
        start = time.perf_counter()
        for _ in sdp.run(sc):
            pass
        seconds = time.perf_counter() - start
        after = hostspeed.batch()
        host_us.append(seconds / n * 1e6)
        scaled_us.append(seconds * hostspeed.scale(before, after) / n * 1e6)
    return {
        "scans": scans,
        "in_range_per_scan": found / scans,
        "candidates_per_scan": runner.candidates / scans,
        "run_us_per_device": statistics.median(host_us),
        "scaled_us_per_device": statistics.median(scaled_us),
        "run_us_per_device_samples": host_us,
    }


def _child(tree: Path, n: int, side_m: float) -> None:
    sys.path.insert(0, str(tree / "src"))  # `measure` imports the tree's sdpcast
    print(json.dumps(measure(n, side_m, REPEATS)))


def _commit(tree: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH")
    parser.add_argument("--out", type=Path, default=Path("BENCH_sweep.json"))
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--n", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--side", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        _child(args.child, args.n, args.side)
        return 0
    trees = {}
    for spec in args.tree or [f"this={ROOT}"]:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "sdpcast").is_dir():
            parser.error(f"--tree {spec!r}: expected LABEL=PATH to a checkout with src/sdpcast")
        trees[label] = Path(path).resolve()
    results = {label: [] for label in trees}
    for i, point in enumerate(points()):
        order = list(trees) if i % 2 == 0 else list(reversed(trees))
        for label in order:
            cmd = [
                sys.executable, __file__, "--child", str(trees[label]),
                "--n", str(point["n"]), "--side", repr(point["side_m"]),
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
            results[label].append({**point, **json.loads(out.stdout)})
            row = results[label][-1]
            print(
                f"{label:>8} n={point['n']:>6} side={point['side_m']:8.1f} m  "
                f"in range {row['in_range_per_scan']:6.2f}  candidates {row['candidates_per_scan']:7.2f}  "
                f"{row['scaled_us_per_device']:7.1f} us/device (scaled)",
                file=sys.stderr,
            )
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "range_m": RANGE_M,
        "density_per_m2": DENSITY,
        "layout_seed": 0,
        "repeats": REPEATS,
        "trees": {
            label: {"commit": _commit(trees[label]), "points": results[label]} for label in trees
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
