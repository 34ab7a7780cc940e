"""Command line interface.

Subcommands mirror the library surface: encode/decode single payloads,
frame/unframe whole messages, generate scenario files, run simulations,
and summarize their event logs.  Exit codes: 0 success, 1 error, 2 when
unframe fails specifically because chunks are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import shutil
import sys
from typing import Iterable

from . import __version__
from .codec import CodecConfig, decode, encode, printable_text
from .errors import IncompleteSet, MalformedLog, SdpcastError
from .framing import frame, unframe
from .log import load_log
from .report import DELIVERY_THRESHOLD_S, _lines, build_report, format_text
from .scenarios import BUILTIN_SCENARIOS, load_scenario, scenario_gen, scenario_to_json
from .sim import run


def _codec_config(args: argparse.Namespace) -> CodecConfig:
    return CodecConfig(marker=args.marker, text_mode=args.text)


def _not_utf8(what: str, exc: UnicodeError) -> SdpcastError:
    """The error for input that is not UTF-8, naming its first bad part as `load_log` does."""
    return SdpcastError(f"{what} is not UTF-8 ({exc.object[exc.start:exc.end]!r}: {exc.reason})")


def _parse_message(value: str, text: bool) -> bytes:
    if text:
        try:
            return value.encode("utf-8")
        except UnicodeEncodeError as exc:  # argv holds bytes that are not UTF-8 as surrogates
            raise _not_utf8("the message", exc) from None
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise SdpcastError(
            f"{value!r} is not a hex string; pass --text for literal text"
        ) from None


def _print_message(payload: bytes, text: bool) -> None:
    if text:
        rendered = printable_text(payload)
        print(rendered if rendered is not None else payload.hex())
    else:
        print(payload.hex())


def cmd_encode(args: argparse.Namespace) -> int:
    payload = _parse_message(args.payload, args.text)
    print(encode(payload, _codec_config(args)))
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    payload = decode(args.uuid, _codec_config(args))
    _print_message(payload, args.text)
    return 0


def cmd_frame(args: argparse.Namespace) -> int:
    message = _parse_message(args.message, args.text)
    for record in frame(message, codec=_codec_config(args)):
        print(record)
    return 0


def cmd_unframe(args: argparse.Namespace) -> int:
    records = args.uuids
    if not records:
        with _utf8_stdin() as fh:
            try:
                records = fh.read().split()
            except UnicodeDecodeError as exc:
                raise _not_utf8("standard input", exc) from None
    message = unframe(records, _codec_config(args))
    _print_message(message, args.text)
    return 0


def _write_out(out: str | None, lines: Iterable[str]) -> None:
    """Write `lines` to stdout, or to the path `out`.

    A regular file is written beside its target and renamed over it on
    success, so a failure part-way leaves no partial file and keeps any file
    already at `out`; a symlink keeps pointing at it and its permission bits
    stay. A device, FIFO or other special file cannot be renamed over, so it
    is written in place.
    """
    if not out:
        sys.stdout.writelines(lines)
        return
    if os.path.exists(out) and not os.path.isfile(out):
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return
    target = os.path.realpath(out)  # through a symlink, to what it names
    partial = f"{target}.{os.getpid()}.tmp"
    fh = open(partial, "x", encoding="utf-8")
    try:
        with fh:
            if os.path.exists(target):
                shutil.copymode(target, partial)
            fh.writelines(lines)
        os.replace(partial, target)
    except BaseException:
        os.remove(partial)
        raise


def cmd_scenario_gen(args: argparse.Namespace) -> int:
    _write_out(args.out, [scenario_to_json(scenario_gen(args.name))])
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    events = run(scenario, seed=args.seed, duration_s=args.duration)
    _write_out(args.out, (event.to_json() + "\n" for event in events))
    return 0


@contextlib.contextmanager
def _utf8_stdin():
    """Standard input read as strict UTF-8: `sys.stdin` may decode with
    surrogateescape (UTF-8 mode), which lets bytes that are not UTF-8 through."""
    fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline="\n")
    try:
        yield fh
    finally:
        fh.detach()  # leaves sys.stdin open


def cmd_report(args: argparse.Namespace) -> int:
    if args.log == "-":
        source = _utf8_stdin()
    else:
        source = open(args.log, "r", encoding="utf-8")
    read = 0  # lines handed to load_log so far

    def counted(lines: Iterable[str]) -> Iterable[str]:
        nonlocal read
        for read, line in enumerate(lines, start=1):
            yield line

    with source as fh:  # load_log reads the file as build_report consumes it
        events = load_log(counted(fh))
        try:
            report = build_report(events, threshold_s=args.threshold)
        except MalformedLog as exc:
            # An error of load_log names its line and ends it; an error of the
            # report comes while load_log waits after the line of its event.
            if inspect.getgeneratorstate(events) != inspect.GEN_SUSPENDED:
                raise
            raise MalformedLog(f"line {read}: {exc}") from None
    if args.format == "lines":
        sys.stdout.writelines(_lines(report))
    else:
        sys.stdout.write(format_text(report))
    return 0


def _add_codec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--marker", default="c0de", help="4-hex-digit payload marker")
    parser.add_argument(
        "--text",
        action="store_true",
        help="treat messages as UTF-8 text instead of hex, pad and strip NULs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpcast",
        description="Encode payloads into service UUIDs, simulate discovery, report on it.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode one payload (up to 13 octets) as a UUID")
    p.add_argument("payload", help="payload as hex, or text with --text")
    _add_codec_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover the payload carried by one UUID")
    p.add_argument("uuid", help="payload UUID string")
    _add_codec_flags(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("frame", help="split a message (up to 82 octets) into chunk UUIDs")
    p.add_argument("message", help="message as hex, or text with --text")
    _add_codec_flags(p)
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("unframe", help="reassemble a message from chunk UUIDs")
    p.add_argument("uuids", nargs="*", help="UUID strings; read from stdin when omitted")
    _add_codec_flags(p)
    p.set_defaults(func=cmd_unframe)

    p = sub.add_parser("scenario-gen", help="emit a built-in scenario file")
    p.add_argument("name", help=f"one of: {', '.join(sorted(BUILTIN_SCENARIOS))}")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_scenario_gen)

    p = sub.add_parser("simulate", help="run a scenario and emit its event log")
    p.add_argument("--scenario", required=True, help="scenario file path")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument(
        "--duration", type=float, default=None, help="override the duration in seconds"
    )
    p.add_argument("--out", help="write the log to this path instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="aggregate an event log into a report")
    p.add_argument("log", help="event log path, or - for stdin")
    p.add_argument("--format", choices=("text", "lines"), default="text")
    p.add_argument(
        "--threshold",
        type=float,
        default=DELIVERY_THRESHOLD_S,
        help="delivery threshold in seconds for the aggregate fraction",
    )
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IncompleteSet as exc:
        print(f"sdpcast: {exc}", file=sys.stderr)
        return 2
    except SdpcastError as exc:
        print(f"sdpcast: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sdpcast: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
