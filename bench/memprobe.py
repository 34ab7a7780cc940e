"""Peak resident memory of one half of the pipeline, in a fresh process.

    python3 bench/memprobe.py simulate|report SCENARIO_JSON SEED LOG_PATH

`simulate` runs `run` plus the log write (what `sdpcast simulate` does),
`report` runs `load_log` plus `build_report` of an existing log (what
`sdpcast report` does). Prints the process's peak RSS in bytes.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

from pipeline import import_sdpcast, write_log


def peak_rss_bytes() -> int:
    """Peak RSS of this process (VmHWM).

    ru_maxrss is only the fallback: on Linux it survives exec, so a child
    process starts with its parent's RSS at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(argv: list[str]) -> int:
    mode, scenario_path, seed, log_path = argv
    sdp = import_sdpcast()
    log_path = Path(log_path)
    if mode == "simulate":
        events = sdp.run(sdp.load_scenario(scenario_path), seed=int(seed))
        write_log(events, log_path)
    elif mode == "report":
        with open(log_path, encoding="utf-8") as fh:
            sdp.build_report(sdp.load_log(fh))
    else:
        sys.exit(f"memprobe: unknown mode {mode!r}")
    print(peak_rss_bytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
