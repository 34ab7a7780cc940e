"""Seeded scenario builders for the benchmark workloads.

Each builder takes the sdpcast module and a `random.Random` made from the
benchmark's `--seed`, and returns a validated `Scenario`. The simulator sees
only the generated scenario, never the benchmark seed itself.
"""

from __future__ import annotations

import random

MAX_FRAMED_OCTETS = 82  # framed capacity under the default limits


def _address(k: int) -> str:
    return f"02:00:00:00:{k >> 8:02x}:{k & 0xFF:02x}"


def _message(rng: random.Random) -> bytes:
    return rng.randbytes(rng.randint(0, MAX_FRAMED_OCTETS))


def crowd_20(sdp, rng: random.Random):
    """The built-in crowd-20 scenario; only the simulator seeds vary."""
    return sdp.scenario_gen("crowd-20")


def sparse_1000(sdp, rng: random.Random):
    """1000 framed devices, uniform in a 600 m square, 10 m range, one scan round.

    Every device scans at t = 0 and the run ends before the next round at
    30 s, so each pipeline is short enough to be timed many times per run.
    """
    side = 600.0
    devices = [
        sdp.Device(
            address=_address(k),
            position=(rng.uniform(0.0, side), rng.uniform(0.0, side)),
            range_m=10.0,
            scan_interval_s=30.0,
            message=_message(rng),
            mode=sdp.FRAMED,
        )
        for k in range(1000)
    ]
    return sdp.Scenario(name="sparse-1000", duration_s=25.0, seed=0, devices=devices)


def churn_400(sdp, rng: random.Random):
    """400 devices in a 190 m square, a quarter raw, torn reads on, 1600 mutations.

    Mutations alternate set_message (0-82 random octets, the device keeps
    its mode) and set_position (a fresh uniform position), at uniform times
    over the 60 s run: three scan rounds.
    """
    side, duration, n_devices, n_mutations = 190.0, 60.0, 400, 1600
    devices = [
        sdp.Device(
            address=_address(k),
            position=(rng.uniform(0.0, side), rng.uniform(0.0, side)),
            range_m=10.0,
            scan_interval_s=30.0,
            message=_message(rng),
            mode=sdp.RAW if k % 4 == 0 else sdp.FRAMED,
        )
        for k in range(n_devices)
    ]
    times = sorted(rng.uniform(0.0, duration) for _ in range(n_mutations))
    schedule = []
    for i, t in enumerate(times):
        device = _address(rng.randrange(n_devices))
        if i % 2 == 0:
            schedule.append(
                sdp.Mutation(t=t, device=device, action="set_message", message=_message(rng))
            )
        else:
            position = (rng.uniform(0.0, side), rng.uniform(0.0, side))
            schedule.append(
                sdp.Mutation(t=t, device=device, action="set_position", position=position)
            )
    return sdp.Scenario(
        name="churn-400",
        duration_s=duration,
        seed=0,
        torn_read_mode=True,
        devices=devices,
        schedule=schedule,
    )


# name -> (builder, layouts built per run, pipelines that feed the deterministic metrics).
# A run cycles its pipelines over its layouts, so a run's figures average over
# several random layouts rather than hang on one.
WORKLOADS = {
    "crowd-20": (crowd_20, 1, 2),
    "sparse-1000": (sparse_1000, 8, 8),
    "churn-400": (churn_400, 8, 8),
}
