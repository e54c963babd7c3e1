"""One round of a workload, in a fresh process.

    python3 perfbench/child.py ROUND.json

ROUND.json lists the CLI argument vectors to pass to singlepixel.cli.main,
in order, and where to write the timings.  The clock is time.monotonic(),
which the parent shares, so the parent can measure from the moment it
started this process.  With "trace" set, the spans of every layer call are
written out when the round ends.  With "mark_first_recon" set, the start of
the first reconstructor call (which the benchmark subcommand makes on its
own worker threads) is recorded.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import singlepixel.cli as cli  # noqa: E402  (import time belongs to the round)

from tracing import Tracer, install  # noqa: E402

RECONSTRUCTORS = ("hspi_reconstruct", "dgi_reconstruct", "cstv_reconstruct", "reconstruct_untrained")


def mark_first_call(marks: list) -> None:
    """Record when the CLI first enters a reconstructor."""
    for name in RECONSTRUCTORS:
        original = getattr(cli, name)

        def marked(*args, _original=original, **kwargs):
            if not marks:
                marks.append(time.monotonic())
            return _original(*args, **kwargs)

        setattr(cli, name, marked)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MiB.

    VmHWM starts afresh at exec.  getrusage's ru_maxrss does not: it keeps
    the peak of the process that spawned this one.
    """
    with open("/proc/self/status") as fh:
        line = next(ln for ln in fh if ln.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        install(tracer)
    marks = []
    if spec.get("mark_first_recon"):
        mark_first_call(marks)
    commands = []
    for argv in spec["commands"]:
        start = time.monotonic()
        code = cli.main(argv)
        commands.append({"command": argv[0], "start": start, "end": time.monotonic(), "code": code})
        if code != 0:
            break
    result = {
        "commands": commands,
        "first_recon": min(marks) if marks else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(tracer.spans))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
