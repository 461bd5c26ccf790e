"""Start one ``repro`` CLI pass in a fresh interpreter and report on it.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launch.py STATS.json [--trace DIR] -- ARGV...

Imports ``repro.cli``, optionally installs the span wrappers of
:mod:`perfbench.tracing`, calls ``repro.cli.main(ARGV)`` and writes
``STATS.json``: when the entry point was ready, when ``main`` started and
returned, its exit code, the peak resident memory of this process and its
waited-for children, and how many training steps ran.  An empty ``ARGV``
only imports (a set-up probe).  Timestamps are ``time.monotonic()``, a
system-wide clock, so the parent can subtract its own launch time.
"""

import json
import os
import resource
import sys
import time

import repro.cli

READY = time.monotonic()


def main() -> int:
    split = sys.argv.index("--")
    options, argv = sys.argv[1:split], sys.argv[split + 1 :]
    stats_path = options[0]
    trace_dir = options[options.index("--trace") + 1] if "--trace" in options else None
    entry = repro.cli.main
    recorder = None
    if trace_dir is not None:
        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from pathlib import Path

        from perfbench import tracing

        recorder = tracing.Recorder()
        recorder.out_dir = Path(trace_dir)
        tracing.install(recorder)
        entry = recorder.wrap(entry, tracing.ROOT)
    start = end = time.monotonic()
    code = 0
    if argv:
        try:
            code = entry(argv)
        except SystemExit as error:
            code = error.code if isinstance(error.code, int) else 1
        end = time.monotonic()
    sys.stdout.flush()
    if recorder is not None:
        recorder.dump()
    training = sys.modules.get("repro.capsnet.training")
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    stats = {
        "ready": READY,
        "start": start,
        "end": end,
        "code": code,
        "peak_rss_kb": max(part.ru_maxrss for part in usage),
        "train_steps": training.train_steps_executed() if training else 0,
    }
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(stats, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
