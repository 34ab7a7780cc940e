"""CLI behavior: round trips, exit codes, file plumbing."""

import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import sdpcast
from sdpcast import (
    Device, Scenario, SimEvent, build_report, format_lines, frame, load_log, scenario_to_json,
)
from sdpcast.cli import main

ANCHOR = "ff724081-fe5d-4fb2-8745-af149cc2c0de"
DATA = Path(__file__).parent / "data"


def test_encode_decode_round_trip(capsys):
    assert main(["encode", "--text", "hello, cli"]) == 0
    uuid = capsys.readouterr().out.strip()
    for written in (uuid, uuid.upper()):
        assert main(["decode", "--text", written]) == 0
        assert capsys.readouterr().out.strip() == "hello, cli"


def test_encode_hex_payload(capsys):
    payload = "ff724081fe5dfb2745af149cc2"
    assert main(["encode", payload]) == 0
    assert capsys.readouterr().out.strip() == ANCHOR
    assert main(["decode", ANCHOR]) == 0
    assert capsys.readouterr().out.strip() == payload


def test_encode_bad_hex_exits_1(capsys):
    assert main(["encode", "zz"]) == 1
    assert "hex" in capsys.readouterr().err
    # a command line byte that is not UTF-8 reaches argv as a lone surrogate
    for command in ("encode", "frame"):
        assert main([command, "--text", "a\udcff"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "sdpcast: the message is not UTF-8 ('\\udcff': surrogates not allowed)\n"
        )
        assert captured.out == ""


def test_encode_oversize_exits_1(capsys):
    assert main(["encode", "--text", "way more than thirteen characters"]) == 1
    assert capsys.readouterr().err.startswith("sdpcast:")


def test_decode_non_payload_exits_1(capsys):
    assert main(["decode", "00001101-0000-1000-8000-00805f9b34fb"]) == 1
    assert capsys.readouterr().err


def test_frame_unframe_round_trip(capsys):
    for flags, marker in (([], "c0de"), (["--marker", "ABCD"], "abcd")):
        assert main(["frame", "--text", *flags, "a message that spans several chunks"]) == 0
        uuids = capsys.readouterr().out.split()
        assert len(uuids) == 4
        assert all(uuid.endswith(marker) for uuid in uuids)
        assert main(["unframe", "--text", *flags, *uuids]) == 0
        assert capsys.readouterr().out.strip() == "a message that spans several chunks"


def test_unframe_reads_stdin(capsys, monkeypatch):
    uuids = frame(b"stdin delivery")
    stdin = io.TextIOWrapper(io.BytesIO(("\n".join(uuids) + "\n").encode()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["unframe", "--text"]) == 0
    assert capsys.readouterr().out.strip() == "stdin delivery"
    # stdin is read as strict UTF-8, whatever errors sys.stdin decodes with
    for errors in ("strict", "surrogateescape"):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["unframe"]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "sdpcast: standard input is not UTF-8 (b'\\xff': invalid start byte)\n"
        )
        assert captured.out == ""


def test_unframe_incomplete_exits_2(capsys):
    uuids = frame(b"x" * 40)
    assert main(["unframe", *uuids[:-1]]) == 2
    assert "missing" in capsys.readouterr().err


def test_unframe_conflict_exits_1(capsys):
    from sdpcast.codec import encode
    from sdpcast.framing import FrameHeader

    uuids = frame(b"y" * 40)
    clash = encode(bytes([FrameHeader(1, 4).pack()]) + b"Z" * 12)
    assert main(["unframe", *uuids, clash]) == 1


def test_custom_marker_flag(capsys):
    assert main(["encode", "--text", "--marker", "beef", "marked"]) == 0
    uuid = capsys.readouterr().out.strip()
    assert uuid.endswith("beef")
    assert main(["decode", "--text", "--marker", "beef", uuid]) == 0
    assert capsys.readouterr().out.strip() == "marked"
    assert main(["decode", uuid]) == 1  # wrong marker under the default config
    capsys.readouterr()


def test_scenario_gen_stdout_and_file(tmp_path, capsys):
    assert main(["scenario-gen", "two-device-default"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "sc.json"
    assert main(["scenario-gen", "two-device-default", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == text
    json.loads(text)


def test_scenario_gen_unknown_exits_1(capsys):
    assert main(["scenario-gen", "does-not-exist"]) == 1
    assert "built-ins" in capsys.readouterr().err


def test_simulate_and_report_pipeline(tmp_path, capsys):
    scenario = tmp_path / "sc.json"
    log = tmp_path / "out.jsonl"
    assert main(["scenario-gen", "two-device-default", "--out", str(scenario)]) == 0
    assert main(
        ["simulate", "--scenario", str(scenario), "--seed", "42", "--out", str(log)]
    ) == 0
    golden = json.loads((DATA / "golden-sha256.json").read_text())["two-device-default"]["42"]
    assert hashlib.sha256(log.read_bytes()).hexdigest() == golden["log"]
    lines = log.read_text(encoding="utf-8").strip().split("\n")
    assert len(list(load_log(lines))) == len(lines)

    assert main(["report", str(log)]) == 0
    text = capsys.readouterr().out
    assert "fraction 1.00" in text

    assert main(["report", str(log), "--format", "lines"]) == 0
    out = capsys.readouterr().out
    assert out == format_lines(build_report(load_log(lines)))  # written row by row
    assert hashlib.sha256(out.encode()).hexdigest() == golden["report"]
    rows = [json.loads(l) for l in out.strip().split("\n")]
    (changes,) = [row for row in rows if row["metric"] == "changes"]
    assert changes["delivered"] == 5
    assert changes["misdelivered"] == 0


def test_simulate_seed_changes_log(tmp_path):
    scenario = tmp_path / "sc.json"
    main(["scenario-gen", "two-device-default", "--out", str(scenario)])
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["simulate", "--scenario", str(scenario), "--seed", "1", "--out", str(a)])
    main(["simulate", "--scenario", str(scenario), "--seed", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    main(["simulate", "--scenario", str(scenario), "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_simulate_duration_override(tmp_path):
    scenario = tmp_path / "sc.json"
    log = tmp_path / "log.jsonl"
    main(["scenario-gen", "out-of-range", "--out", str(scenario)])
    assert main(
        ["simulate", "--scenario", str(scenario), "--duration", "45", "--out", str(log)]
    ) == 0
    times = [event.t for event in load_log(log.read_text().strip().split("\n"))]
    assert max(times) <= 45.0


def test_simulate_over_the_event_budget_leaves_no_log(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sdpcast.sim.MAX_EVENTS", 1000)
    devices = [Device(address=f"aa:00:00:00:00:{k:02x}", message=b"m") for k in range(40)]
    scenario = tmp_path / "dense.json"
    scenario.write_text(scenario_to_json(Scenario(devices=devices, duration_s=300.0)))
    log = tmp_path / "log.jsonl"
    simulate = ["simulate", "--scenario", str(scenario), "--out", str(log)]
    assert main(simulate) == 1
    assert "budget" in capsys.readouterr().err
    assert not log.exists()
    log.write_text("kept\n")
    assert main(simulate) == 1
    assert log.read_text() == "kept\n"  # an existing log is not clobbered
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dense.json", "log.jsonl"]


def _out_writers(tmp_path):
    """Each command that writes an --out file, with a fresh directory of its own.

    Both go through one writer, so the --out tests below run over both.
    """
    scenario = tmp_path / "sc.json"
    main(["scenario-gen", "two-device-default", "--out", str(scenario)])
    for command in (["scenario-gen", "crowd-20"], ["simulate", "--scenario", str(scenario)]):
        workdir = tmp_path / command[0]
        workdir.mkdir()
        yield command, workdir


def test_simulate_out_through_a_symlink_writes_its_target(tmp_path):
    for command, workdir in _out_writers(tmp_path):
        expected = workdir / "expected.jsonl"
        main(command + ["--out", str(expected)])
        target = workdir / "logs" / "run.jsonl"
        target.parent.mkdir()
        target.write_text("old\n")
        target.chmod(0o640)
        link = workdir / "link.jsonl"
        link.symlink_to(target)
        assert main(command + ["--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == expected.read_bytes()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert [p.name for p in target.parent.iterdir()] == ["run.jsonl"]


def test_simulate_out_to_a_fifo_writes_into_it(tmp_path):
    # A special file is written in place, not renamed over; a FIFO stands
    # in for a device such as os.devnull, which a regression would replace.
    for command, workdir in _out_writers(tmp_path):
        expected = workdir / "expected.jsonl"
        main(command + ["--out", str(expected)])
        fifo = workdir / "fifo"
        os.mkfifo(fifo)
        received = []

        def drain():
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        try:
            assert main(command + ["--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=10)
        assert received == [expected.read_bytes()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in workdir.iterdir()) == ["expected.jsonl", "fifo"]


def test_simulate_missing_file_exits_1(capsys):
    assert main(["simulate", "--scenario", "/nonexistent/sc.json"]) == 1
    assert capsys.readouterr().err


def test_simulate_invalid_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text, error in (
        ('{"duration_s": 10.0, "devices": [], "warp": 1}', "unknown keys"),
        # 1e300 + 1e-300 is 1e300, so only the scan budget ends this at load
        (
            '{"devices": [{"address": "aa:00:00:00:00:01", "scan_interval_s": 1e-300}], '
            '"duration_s": 1e300}',
            "budget",
        ),
    ):
        bad.write_text(text)
        assert main(["simulate", "--scenario", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("sdpcast: ")
        assert error in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace('"name": ""', '"name": "\xff"').encode("latin-1"),
        # Python refuses to parse an integer literal of more than 4300 digits
        lambda text: text.replace('"seed": 0', '"seed": ' + "9" * 5000).encode(),
    ],
    ids=["not-utf8", "overlong-integer"],
)
def test_simulate_undecodable_scenario_exits_1(tmp_path, capsys, edit):
    bad = tmp_path / "bad.json"
    sc = Scenario(devices=[Device(address="aa:00:00:00:00:01")], duration_s=1.0)
    bad.write_bytes(edit(scenario_to_json(sc)))
    assert main(["simulate", "--scenario", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sdpcast: scenario ")
    assert captured.out == ""


def test_report_stdin(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "sc.json"
    log = tmp_path / "log.jsonl"
    main(["scenario-gen", "two-device-default", "--out", str(scenario)])
    main(["simulate", "--scenario", str(scenario), "--out", str(log)])
    stdin = io.TextIOWrapper(io.BytesIO(log.read_bytes()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["report", "-"]) == 0
    assert "latency" in capsys.readouterr().out


def test_report_rejects_a_log_that_is_not_utf8(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "sc.json"
    log = tmp_path / "log.jsonl"
    main(["scenario-gen", "two-device-default", "--out", str(scenario)])
    main(["simulate", "--scenario", str(scenario), "--out", str(log)])
    good = log.read_bytes()
    bad = good.replace(b',"aa:00:00:00:00:01",', b',"a\xff",', 1)
    assert bad != good
    log.write_bytes(bad)
    assert main(["report", str(log)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sdpcast: line ")
    assert "UTF-8" in captured.err
    assert captured.out == ""
    # In Python's UTF-8 mode (the C locale) sys.stdin decodes with surrogateescape,
    # so "a\xff" would load as an observer unless the report reads stdin strictly.
    stdin = io.TextIOWrapper(io.BytesIO(bad), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["report", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("sdpcast: line ")
    assert "UTF-8" in captured.err
    assert captured.out == ""


def test_report_malformed_log_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert main(["report", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_report_wrongly_typed_log_exits_1(tmp_path, capsys):
    def event(t, kind, detail, observer="aa:00:00:00:00:01"):
        subject = "aa:00:00:00:00:01"
        return [t, kind, observer, subject, detail]

    fetched = {"found": 0.5, "records": 5}
    changed = {"generation": 1, "mode": "raw", "message": "zz"}
    bad_logs = [
        [event(0.0, "MessageChanged", {})],
        [event(0.0, "UuidsFetched", fetched)],
        [event(0.0, "MessageChanged", changed)],
        [event(t, "FetchAborted", {"found": 0.5}) for t in (5.0, float("nan"), 1.0)],
        [event(0.0, "FetchAborted", [])],
        [event(0.0, "FetchAborted", {"found": 0.5}, observer=5)],
        [event(0.0, "FetchAborted", {"found": True})],
        # a line of the former format, which logged each discovery on its own
        [event(0.0, "DeviceFound", {"round": 0})],
    ]
    limits = {"max_outbound_slots": 7, "max_inbound_records": 21}
    header = event(0.0, "RunStarted", {"duration_s": 60.0, "limits": limits, "scanners": {}})
    bad = tmp_path / "bad.jsonl"
    for events in bad_logs:
        bad.write_text("".join(json.dumps(e) + "\n" for e in [header, *events]))
        assert main(["report", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("sdpcast: line ")
        assert captured.out == ""


def test_report_of_a_log_without_its_header_exits_1(tmp_path, capsys):
    scenario = tmp_path / "sc.json"
    log = tmp_path / "log.jsonl"
    main(["scenario-gen", "two-device-default", "--out", str(scenario)])
    main(["simulate", "--scenario", str(scenario), "--out", str(log)])
    header, *lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    [first] = load_log([header])
    assert first.kind == "RunStarted"
    # MessageChanged lines that hold `slots`, as logs written before the header did
    old = [line.replace('"mode":"framed",', '"mode":"framed","slots":3,') for line in lines]
    # a log written when each line was an object, not the array of its fields
    objects = [json.dumps(dict(zip(SimEvent._fields, json.loads(line)))) + "\n" for line in [header, *lines]]
    for text, error in (
        (
            "".join(lines),
            "sdpcast: line 1: a log must begin with its RunStarted header; "
            "this one begins with a MessageChanged\n",
        ),
        ("".join(old), "sdpcast: line 1: MessageChanged detail: unknown keys ['slots']\n"),
        (
            "".join(objects),
            "sdpcast: line 1: event must be an array [t, kind, observer, subject, detail], "
            "got an object with keys ['t', 'kind', 'observer', 'subject', 'detail']\n",
        ),
    ):
        log.write_text(text, encoding="utf-8")
        assert main(["report", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.err == error
        assert captured.out == ""


def _unwritten_logs(lines):
    """Edits of a two-device log's `lines`, with or without its
    MessageReassembled lines, into logs that no run writes: for each, the
    edited lines, the number of the line the report rejects, and its error.

    The first UuidsFetched, in which `a` fetches `b`, gets an observer that
    is no scanner, its subject as observer, a found time of -50 or 22
    records; `a`'s first MessageChanged gets `b` as observer; or a fetch, an
    abort or a change comes after the run's end.
    """
    duration_s = json.loads(lines[0])[4]["duration_s"]
    k = next(i for i, line in enumerate(lines) if '"UuidsFetched"' in line)
    t, _, a, b, detail = fetch = json.loads(lines[k])
    change = json.loads(lines[1])
    assert change[1:4] == ["MessageChanged", a, a]

    def edited(i, event, error):
        return [*lines[:i], json.dumps(event), *lines[i + 1:]], i + 1, error

    def appended(event, error):
        return [*lines, json.dumps(event)], len(lines) + 1, error

    at = f"the UuidsFetched at t={t} of {b} by"
    end = duration_s + 100.0
    after = f"comes after the run ends at duration_s {duration_s}"
    records = [*detail["records"], *[ANCHOR] * 22][:22]
    return [
        edited(
            k, [*fetch[:2], "zz", *fetch[3:]],
            f"{at} zz has an observer that is no scanner in the header",
        ),
        edited(k, [*fetch[:2], b, *fetch[3:]], f"{at} {b} has an observer that is its own subject"),
        edited(
            k, [*fetch[:4], {**detail, "found": -50.0}],
            f"{at} {a} holds found -50.0, outside [0, {t}]",
        ),
        edited(
            k, [*fetch[:4], {**detail, "records": records}],
            f"{at} {a} holds 22 records, over max_inbound_records 21",
        ),
        edited(
            1, [*change[:2], b, *change[3:]],
            f"the MessageChanged at t=0.0 of {a} by {b} has an observer other than its subject",
        ),
        appended([end, *fetch[1:]], f"the UuidsFetched at t={end} of {b} by {a} {after}"),
        appended(
            [end, "FetchAborted", a, b, {"found": t}],
            f"the FetchAborted at t={end} of {b} by {a} {after}",
        ),
        appended(
            [end, "MessageChanged", a, a, {**change[4], "generation": 99}],
            f"the MessageChanged at t={end} of {a} by {a} {after}",
        ),
    ]


def test_report_names_the_line_of_its_own_errors(tmp_path, capsys):
    # The report's own errors name the last line read, the one whose event
    # they are about, as the errors of load_log name theirs.
    scenario = tmp_path / "sc.json"
    log = tmp_path / "log.jsonl"
    main(["scenario-gen", "two-device-default", "--out", str(scenario)])
    main(["simulate", "--scenario", str(scenario), "--seed", "1", "--out", str(log)])
    header, *lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if '"MessageReassembled"' in line)
    edited = lines[k].replace('"message":"68', '"message":"00', 1)
    assert edited != lines[k]
    reassembled = SimEvent.from_array(json.loads(lines[k]))
    assert '"MessageChanged"' in lines[0] and '"generation":1,' in lines[0]
    for text, error in (
        (
            "".join(lines),
            "line 1: a log must begin with its RunStarted header; "
            "this one begins with a MessageChanged",
        ),
        (
            "".join([header, header, *lines]),
            "line 2: a log holds one RunStarted header; a second one is at t=0.0",
        ),
        (
            "".join([header, *lines[:k], edited, *lines[k + 1:]]),
            f"line {k + 2}: the MessageReassembled at t={reassembled.t} of {reassembled.subject} "
            f"by {reassembled.observer} is not what the UuidsFetched just before it reassembles to",
        ),
        (
            "".join([header, lines[0], lines[0], *lines[1:]]),
            f"line 3: the MessageChanged at t=0.0 of {json.loads(lines[0])[3]} holds "
            "generation 1, not above its previous generation 1",
        ),
        # blank lines count, and a log of nothing else has no line to name
        (
            "\n" + "".join(lines),
            "line 2: a log must begin with its RunStarted header; "
            "this one begins with a MessageChanged",
        ),
        ("\n\n", "a log must begin with its RunStarted header; this one is empty"),
        # a log that no run writes, with or without its MessageReassembled
        # lines: the error names the edited or appended line itself
        *(
            ("".join(line + "\n" for line in edited), f"line {lineno}: {error}")
            for text in (
                [header, *lines],
                [line for line in [header, *lines] if '"MessageReassembled"' not in line],
            )
            for edited, lineno, error in _unwritten_logs([line.rstrip("\n") for line in text])
        ),
    ):
        log.write_text(text, encoding="utf-8")
        assert main(["report", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"sdpcast: {error}\n"
        assert captured.out == ""


def test_report_threshold_flag(tmp_path, capsys):
    scenario = tmp_path / "sc.json"
    log = tmp_path / "log.jsonl"
    main(["scenario-gen", "two-device-default", "--out", str(scenario)])
    main(["simulate", "--scenario", str(scenario), "--out", str(log)])
    assert main(["report", str(log), "--format", "lines", "--threshold", "0.5"]) == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    (changes,) = [r for r in rows if r["metric"] == "changes"]
    assert changes["threshold_s"] == 0.5
    assert changes["fraction"] < 1.0
    assert main(["report", str(log), "--threshold", "0.5"]) == 0
    assert "within 0.5 s" in capsys.readouterr().out


def test_report_rejects_a_bad_threshold(tmp_path, capsys):
    scenario = tmp_path / "sc.json"
    log = tmp_path / "log.jsonl"
    main(["scenario-gen", "two-device-default", "--out", str(scenario)])
    main(["simulate", "--scenario", str(scenario), "--out", str(log)])
    for value in ("nan", "inf", "-5"):
        assert main(["report", str(log), f"--threshold={value}"]) == 1
        captured = capsys.readouterr()
        assert "threshold" in captured.err
        assert captured.out == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "sdpcast" in capsys.readouterr().out


def test_module_runs_as_a_command(tmp_path):
    # The module's __main__ guard, in a process of its own that imports the
    # package the tests import, wherever that is installed.
    env = dict(os.environ)
    package_root = str(Path(sdpcast.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))

    def command(*args):
        return subprocess.run(
            [sys.executable, "-m", "sdpcast.cli", *args],
            cwd=tmp_path, env=env, capture_output=True, check=True,
        ).stdout

    assert command("--version") == f"sdpcast {sdpcast.__version__}\n".encode()
    fixture = DATA / "two-device-default.json"
    assert command("scenario-gen", "two-device-default") == fixture.read_bytes()
