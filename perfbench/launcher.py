"""Run the latcurve CLI with the per-layer spans installed.

    python perfbench/launcher.py TRACE_FILE -- <latcurve arguments>

Installs the same wrappers as the library workloads, calls
``latcurve.cli.main`` and writes the span totals, plus the start-up time
since the ``PERFBENCH_SPAWN_NS`` monotonic stamp, as JSON to TRACE_FILE.
"""

import json
import os
import sys
import time

from tracer import Tracer

import latcurve.cli


def main() -> int:
    trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launcher.py TRACE_FILE -- <latcurve arguments>")
    tracer = Tracer()
    tracer.install()
    startup_s = (time.monotonic_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e9
    try:
        return latcurve.cli.main(argv)
    finally:
        tracer.end_job()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"startup_s": startup_s, "trace": tracer.snapshot()}, fh)


if __name__ == "__main__":
    sys.exit(main())
