"""Benchmark the sweep engine and record the result as BENCH_sweep.json.

Times five configurations:

* ``cold_serial``   -- fixed reference grid, fresh cache, scalar path,
  ``jobs=1`` (the baseline the acceptance criteria compare against),
* ``cold_parallel`` -- reference grid, fresh cache, scalar path over a
  process pool of ``jobs`` workers,
* ``warm``          -- same cache as ``cold_parallel``; must execute zero
  simulations.  ``warm_seconds / cells`` is the scalar warm per-cell
  overhead: pure Python bookkeeping, every result a cache hit.
* ``vectorized``    -- a 100k+-cell grid (the reference benchmarks/designs
  with a long frequency axis) through the batched numpy backend, cache off:
  every cell is *computed*, yet the per-cell overhead must be >= 10x lower
  than the scalar warm path's.
* ``queue``         -- the reference grid through the sharded work queue
  with 2 workers, then resumed; the resumed run must execute zero
  simulations (everything comes from done-files + disk cache).

Every configuration runs ``REPEATS`` times on fresh cache directories, and
the report records the median time of each with ``repeats`` and
``cpu_count``.  ``parallel_speedup`` is only meaningful on multi-core
machines; the regression assertion is gated on ``cpu_count``, so a
single-core container records ~1.0x as context instead of failing.

The JSON report lands next to this script (``benchmarks/BENCH_sweep.json``
by default, override with argv[1]) so the perf trajectory of the sweep
engine gets recorded across PRs; CI uploads it as a workflow artifact.

Run with::

    python benchmarks/bench_sweep.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro import __version__
from repro.sweep import SweepRunner, SweepSpec, run_queued_sweep
from repro.sweep.runner import default_worker_count

#: The fixed reference grid -- keep it stable so BENCH numbers stay comparable.
SPEC = SweepSpec.from_axes(
    {
        "hmc.pe_frequency_mhz": [
            200.0, 250.0, 312.5, 425.0, 550.0, 625.0, 800.0, 937.5, 1100.0, 1250.0,
        ],
        "hmc.pes_per_vault": [4, 8, 16, 32],
    },
    name="bench-sweep",
    designs=("pim-capsnet", "all-in-pim", "rmas-pim", "rmas-gpu"),
    kind="end-to-end",
)

#: The vectorized-path grid: the reference benchmarks/designs with a long
#: frequency axis -- 2100 points x 12 benchmarks x 4 designs = 100800 cells.
VECTORIZED_SPEC = SweepSpec.from_axes(
    {"hmc.pe_frequency_mhz": list(range(100, 2200))},
    name="bench-sweep-vectorized",
    designs=("pim-capsnet", "all-in-pim", "rmas-pim", "rmas-gpu"),
    kind="end-to-end",
)


#: Timed runs of every configuration; the report records each one's median.
REPEATS = 3


def _timed(spec=SPEC, **kwargs):
    start = time.perf_counter()
    result = SweepRunner(spec, **kwargs).run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def _cells(result) -> int:
    return sum(len(point.cells) for point in result.points)


def _repeat_once(jobs: int) -> dict:
    """Every configuration once, on fresh cache directories: results and seconds."""
    runs = {}
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as serial_dir, \
            tempfile.TemporaryDirectory(prefix="bench-sweep-") as parallel_dir, \
            tempfile.TemporaryDirectory(prefix="bench-sweep-") as queue_dir:
        # Scalar reference numbers: the reference grid has a frequency axis,
        # so backend="scalar" keeps it off the vectorized path.
        runs["serial"] = _timed(jobs=1, backend="scalar", cache_dir=serial_dir)
        runs["parallel"] = _timed(jobs=jobs, backend="scalar", cache_dir=parallel_dir)
        runs["warm"] = _timed(jobs=jobs, backend="scalar", cache_dir=parallel_dir)
        # Vectorized backend on a 100k+-cell grid.  Cache off: this times the
        # *computation* of every cell (plus the sampled scalar equivalence
        # gate), not cache hits.
        runs["vectorized"] = _timed(
            VECTORIZED_SPEC, jobs=1, backend="vectorized", use_cache=False
        )
        # Sharded queue: cold with 2 workers, then a resume that must be free.
        for name, resume in (("queue_cold", False), ("queue_resume", True)):
            start = time.perf_counter()
            result = run_queued_sweep(
                SPEC, workers=2, shard_size=5, cache_dir=queue_dir, resume=resume
            )
            runs[name] = (result, time.perf_counter() - start)
    return runs


def main() -> int:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "BENCH_sweep.json"
    jobs = default_worker_count()
    cores = os.cpu_count() or 1
    print(f"grid: {SPEC.describe()}; {REPEATS} repeats, medians")
    repeats = [_repeat_once(jobs) for _ in range(REPEATS)]
    seconds = {
        name: statistics.median(runs[name][1] for runs in repeats) for name in repeats[0]
    }
    last = {name: result for name, (result, _) in repeats[-1].items()}
    serial, parallel, warm = last["serial"], last["parallel"], last["warm"]
    vec, queue_cold, queue_resume = last["vectorized"], last["queue_cold"], last["queue_resume"]
    serial_s, parallel_s, warm_s = seconds["serial"], seconds["parallel"], seconds["warm"]
    vec_s, queue_cold_s, queue_resume_s = (
        seconds["vectorized"], seconds["queue_cold"], seconds["queue_resume"]
    )
    vec_cells = _cells(vec)
    for name, result in last.items():
        print(f"{name + ':':<14} {seconds[name]:.3f}s  ({result.describe_stats()})")

    if warm.simulations_executed != 0 or warm.cache.misses != 0:
        raise SystemExit("warm run was not fully cached -- the cache is broken")
    if not (serial.format_report() == parallel.format_report() == warm.format_report()):
        raise SystemExit(
            "serial and process-pool runs disagreed -- sweep results are not "
            "deterministic"
        )
    if queue_resume.simulations_executed != 0 or queue_resume.cache.misses != 0:
        raise SystemExit(
            "resumed queued sweep re-executed simulations -- resume is broken"
        )
    if queue_cold.format_report() != serial.format_report():
        raise SystemExit("queued sweep disagreed with the serial runner")
    if queue_resume.format_report() != queue_cold.format_report():
        raise SystemExit("resumed queued sweep disagreed with the cold run")

    cells = _cells(warm)
    scalar_warm_us = warm_s / cells * 1e6
    vectorized_us = vec_s / vec_cells * 1e6
    overhead_ratio = scalar_warm_us / vectorized_us if vectorized_us > 0 else float("inf")
    print(
        f"per-cell overhead: scalar warm {scalar_warm_us:.1f}us, "
        f"vectorized {vectorized_us:.1f}us on {vec_cells} cells "
        f"({overhead_ratio:.1f}x lower)"
    )
    if overhead_ratio < 10.0:
        raise SystemExit(
            f"vectorized per-cell overhead is only {overhead_ratio:.1f}x lower "
            f"than the scalar warm path (needs >= 10x)"
        )

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    if cores <= 1:
        # A process pool cannot win on one core; record context, don't fail.
        print(f"parallel speedup: {speedup:.2f}x (cpu_count={cores} -- not meaningful)")
    else:
        print(f"parallel speedup: {speedup:.2f}x over --jobs 1 on {jobs} workers")
        if speedup < 0.75:
            raise SystemExit(
                f"process pool is {speedup:.2f}x on {cores} cores -- a real "
                f"parallel regression"
            )

    payload = {
        "benchmark": "sweep",
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": cores,
        "repeats": REPEATS,
        "jobs": jobs,
        "grid_points": len(serial.points),
        "cells": cells,
        "simulations": serial.simulations_executed,
        "cold_serial_seconds": serial_s,
        "cold_parallel_seconds": parallel_s,
        "warm_seconds": warm_s,
        "parallel_speedup": speedup,
        "parallel_speedup_meaningful": cores > 1,
        "warm_speedup_over_cold_serial": serial_s / warm_s if warm_s > 0 else float("inf"),
        "warm_simulations": warm.simulations_executed,
        "warm_cache_hits": warm.cache.hits,
        "warm_cache_misses": warm.cache.misses,
        "scalar_warm_per_point_us": scalar_warm_us,
        "vectorized_grid_points": len(vec.points),
        "vectorized_cells": vec_cells,
        "vectorized_seconds": vec_s,
        "vectorized_simulations": vec.simulations_executed,
        "per_point_overhead_us": vectorized_us,
        "vectorized_overhead_ratio": overhead_ratio,
        "queue_workers": 2,
        "queue_cold_seconds": queue_cold_s,
        "queue_resume_seconds": queue_resume_s,
        "queue_cold_simulations": queue_cold.simulations_executed,
        "queue_resume_simulations": queue_resume.simulations_executed,
        "queue_resume_cache_misses": queue_resume.cache.misses,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
