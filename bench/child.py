"""One ``repro`` CLI invocation, instrumented from outside the program.

    python bench/child.py --stats STATS.json [--trace --epoch T] \\
        -- reproduce --figures fig7 ...

Runs ``repro.cli.main`` on the arguments after ``--`` exactly as
``python -m repro`` does, and writes ``STATS.json``:

* ``rc`` -- the CLI's exit status;
* ``first_run_points`` -- ``[time.perf_counter(), time.process_time()]``
  at the first call of ``repro.parallel.run_points`` (the end of
  set-up), marked by a one-line wrapper;
* with ``--trace``: the span state of this process and the registry
  counts (see :mod:`layers`).

``perf_counter`` reads the system-wide monotonic clock, so the parent
can subtract its own spawn timestamp; ``process_time`` counts this
process's CPU time from its start, so it is the CPU time of set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="bench/child.py")
    parser.add_argument("--stats", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--epoch", type=float, default=0.0)
    args = parser.parse_args(argv[:split])

    cli = importlib.import_module("repro.cli")
    figures = importlib.import_module("repro.experiments.figures")
    first: list[float] = []
    run_points = figures.run_points

    def marked_run_points(*a, **k):
        if not first:
            first.extend((time.perf_counter(), time.process_time()))
        return run_points(*a, **k)

    figures.run_points = marked_run_points
    recorder = counts = None
    if args.trace:
        import layers

        recorder, counts = layers.install(args.epoch)
    rc = cli.main(argv[split + 1:])
    stats: dict = {"rc": rc, "first_run_points": first or None}
    if recorder is not None:
        stats["spans"] = recorder.state()
        stats["counts"] = counts
    args.stats.write_text(json.dumps(stats))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
