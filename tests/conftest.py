"""Scenarios shared by the simulator, report and golden tests."""

import dataclasses
import random

import pytest

from sdpcast import RAW, Device, Mutation, Scenario, advertise, frame, scenario_gen

A = "aa:00:00:00:00:01"
B = "aa:00:00:00:00:02"


@pytest.fixture
def same_records_scenarios():
    """Two-device runs whose fetches repeat a subject's records under a new generation.

    In the first, framed b"hi" and the raw message 01000268690000000000000000
    advertise the same one UUID, so only the mode tells their reassemblies
    apart; in the second, set_message re-sends identical bytes. Both change
    device A at t = 70 s, between B's scans, so fetches before and after the
    change see the same records.
    """
    raw_hi = bytes.fromhex("01000268690000000000000000")
    assert advertise(raw_hi, RAW) == frame(b"hi")
    assert frame(b"hi") == ["01000268-6900-4000-8000-00000000c0de"]

    def two_devices(message, change):
        devices = [Device(A, message=message), Device(B, position=(5.0, 0.0), message=b"from b")]
        schedule = [Mutation(t=70.0, device=A, action="set_message", **change)]
        return Scenario(devices=devices, duration_s=120.0, schedule=schedule)

    return [
        two_devices(b"hi", {"message": raw_hi, "mode": RAW}),
        two_devices(b"from a", {"message": b"from a"}),
    ]


@pytest.fixture
def raw_torn_read():
    """torn-read with its advertiser in raw mode, so its reassemblies carry
    payloads, not a message; built by `dataclasses.replace`, which checks it."""
    sc = scenario_gen("torn-read")
    advertiser, *others = sc.devices
    return dataclasses.replace(sc, devices=[dataclasses.replace(advertiser, mode=RAW), *others])


def address(k):
    """The MAC-style address of device `k` of a generated layout."""
    return f"02:00:00:00:{k >> 8:02x}:{k & 0xFF:02x}"


def toggle_layout():
    """400 devices with mixed ranges in a 190 m square, some hidden at the
    start, and 800 changes over three scan rounds: moves across the whole
    square alternating with discoverability toggles, off and on again."""
    rng = random.Random(400)
    side, n = 190.0, 400

    def spot():
        return (rng.uniform(0.0, side), rng.uniform(0.0, side))

    devices = [
        Device(
            address=address(k),
            position=spot(),
            range_m=rng.choice((1.0, 5.0, 10.0, 20.0)),
            scan_interval_s=30.0,
            discoverable=rng.random() < 0.9,
            message=rng.randbytes(rng.randint(0, 40)),
        )
        for k in range(n)
    ]
    schedule = []
    for i, t in enumerate(sorted(rng.uniform(0.0, 60.0) for _ in range(800))):
        device = address(rng.randrange(n))
        if i % 2:
            schedule.append(Mutation(t=t, device=device, action="set_position", position=spot()))
        else:
            toggle = Mutation(t=t, device=device, action="set_discoverable", discoverable=rng.random() < 0.5)
            schedule.append(toggle)
    return Scenario(devices=devices, duration_s=60.0, schedule=schedule)
