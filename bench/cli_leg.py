"""Run one distchroma command and report on it, with or without spans.

    python3 bench/cli_leg.py REPORT.json {plain,traced} ARGUMENTS...

This is what the ``distchroma`` entry point does (``cli.main`` on the
arguments), plus a JSON report: the exit status, the peak resident set of
this process and of its pool workers, and the spans when traced. Spans
recorded in ``--jobs`` pool workers die with the workers, so the benchmark
runs every leg with ``--jobs 1`` when it traces.
"""

from __future__ import annotations

import json
import resource
import sys

import workloads  # puts the program's source on sys.path
import distchroma.cli as cli
from spans import Tracer


def main(argv: list[str]) -> int:
    report_path, mode, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer() if mode == "traced" else None
    if tracer:
        tracer.install()
    status = cli.main(cli_args)
    report = {
        "exit": status,
        # workers are forked without exec, so their high-water marks are their own
        "peak_rss_kb": max(workloads.peak_rss_kb(),
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "trace": tracer.snapshot() if tracer else None,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
