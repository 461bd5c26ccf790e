"""Benchmark the optimizer and record the result as BENCH_optimize.json.

Two demos over fixed reference grids (stable across PRs so the recorded
probe/grid trajectory stays comparable):

* ``frequency`` -- the Fig. 18 question: the PE frequency maximizing
  ``fig17.average_speedup`` over a 16-value axis, found by successive
  halving with a fresh cache.  The adaptive search must probe **fewer**
  points than the grid holds, and an exhaustive verification run (warm, over
  the same cache) must agree on the optimum.
* ``constrained`` -- the design-space question: the cheapest design
  (minimize ``overhead.total_area_mm2``) still within 5% of the peak
  ``fig17.average_speedup``, over a frequency x PEs-per-vault grid.

Each demo then re-runs warm on the same cache: the repeat must execute
**zero** simulations (every probe a disk-cache hit) and render a
byte-identical report -- the determinism contract of ``repro optimize``.
Every demo runs ``REPEATS`` such cold + warm pairs, each on a fresh cache
directory; the report records the median times with ``repeats`` and
``cpu_count`` (the counts are the same in every pair).

The JSON report lands next to this script (``benchmarks/BENCH_optimize.json``
by default, override with argv[1]); CI uploads it as a workflow artifact.

Run with::

    python benchmarks/bench_optimize.py [output.json]
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
from repro.optimize import OptimizeDriver
from repro.sweep import SweepSpec

#: Reference grids -- keep them stable so BENCH numbers stay comparable.
FREQUENCY_SPEC = SweepSpec.from_axes(
    {
        "hmc.pe_frequency_mhz": [
            156.25, 200.0, 250.0, 312.5, 425.0, 550.0, 625.0, 800.0,
            937.5, 1100.0, 1250.0, 1500.0, 1750.0, 2000.0, 2250.0, 2500.0,
        ],
    },
    name="bench-optimize-frequency",
)

CONSTRAINED_SPEC = SweepSpec.from_axes(
    {
        "hmc.pe_frequency_mhz": [
            156.25, 312.5, 425.0, 625.0, 937.5, 1250.0, 1750.0, 2500.0,
        ],
        "hmc.pes_per_vault": [4, 8, 16, 32],
    },
    name="bench-optimize-constrained",
)

#: One workload keeps a probe cheap; the search behaviour is identical.
BENCHMARKS = ["Caps-MN1"]

#: Timed cold + warm pairs of each demo; the report records their medians.
REPEATS = 3


def _timed(objective, spec, *, cache_dir, **kwargs):
    start = time.perf_counter()
    result = OptimizeDriver(
        objective, spec, benchmarks=BENCHMARKS, cache_dir=cache_dir, **kwargs
    ).run()
    return result, time.perf_counter() - start


def _pair(name, objective, spec, **kwargs):
    """Cold + warm + exhaustive-verification runs of one demo problem on a
    fresh cache directory, checked; returns the cold and warm runs."""
    with tempfile.TemporaryDirectory(prefix="bench-optimize-") as cache_dir:
        cold, cold_s = _timed(objective, spec, cache_dir=cache_dir, **kwargs)
        print(f"{name} cold:  {cold_s:.3f}s  ({cold.describe_stats()})")
        warm, warm_s = _timed(objective, spec, cache_dir=cache_dir, **kwargs)
        print(f"{name} warm:  {warm_s:.3f}s  ({warm.describe_stats()})")
        verify_kwargs = dict(kwargs)
        verify_kwargs["driver"] = "exhaustive"
        verify_kwargs.pop("refine", None)
        full, full_s = _timed(objective, spec, cache_dir=cache_dir, **verify_kwargs)
        print(f"{name} grid:  {full_s:.3f}s  ({full.describe_stats()})")

    grid = spec.grid_size()
    if cold.probes and len(cold.probes) >= grid:
        raise SystemExit(
            f"{name}: adaptive search probed {len(cold.probes)} of {grid} grid "
            f"points -- no better than exhaustive"
        )
    if warm.simulations_executed != 0 or warm.cache.misses != 0:
        raise SystemExit(f"{name}: warm re-run was not fully cached")
    if warm.format_report() != cold.format_report():
        raise SystemExit(f"{name}: warm re-run report differs -- not deterministic")
    if warm.to_dict() != cold.to_dict():
        raise SystemExit(f"{name}: warm re-run data differs -- not deterministic")
    best = cold.best_probe()
    best_full = full.best_probe()
    if best is None or best_full is None:
        raise SystemExit(f"{name}: no feasible probe found")
    # Compare objective *values*, not assignments: saturating curves (the
    # frequency plateau past the thermal cap) have co-optimal assignments.
    primary = cold.objective.primary.metric
    if best.values[primary] != best_full.values[primary]:
        raise SystemExit(
            f"{name}: adaptive optimum {best.values[primary]} at "
            f"{best.assignment} != exhaustive optimum "
            f"{best_full.values[primary]} at {best_full.assignment}"
        )
    return cold, cold_s, warm, warm_s


def _demo(name, objective, spec, **kwargs):
    """``REPEATS`` checked pairs of one demo problem: the last pair's counts
    and the median times."""
    cold_times, warm_times = [], []
    for _ in range(REPEATS):
        cold, cold_s, warm, warm_s = _pair(name, objective, spec, **kwargs)
        cold_times.append(cold_s)
        warm_times.append(warm_s)
    grid = spec.grid_size()
    best = cold.best_probe()
    return {
        "grid_points": grid,
        "driver": cold.driver,
        "probes": len(cold.probes),
        "probe_grid_ratio": len(cold.probes) / grid,
        "cold_seconds": statistics.median(cold_times),
        "cold_simulations": cold.simulations_executed,
        "warm_seconds": statistics.median(warm_times),
        "warm_simulations": warm.simulations_executed,
        "warm_cache_hits": warm.cache.hits,
        "warm_cache_misses": warm.cache.misses,
        "reports_identical": True,
        "optimum_assignment": dict(best.assignment),
        "optimum_values": dict(best.values),
        "exhaustive_agrees": True,
    }


def main() -> int:
    output = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(__file__).parent / "BENCH_optimize.json"
    )
    print(f"frequency grid: {FREQUENCY_SPEC.describe()}; {REPEATS} repeats, medians")
    frequency = _demo(
        "frequency",
        "fig17.average_speedup",
        FREQUENCY_SPEC,
        driver="halving",
    )
    print(f"constrained grid: {CONSTRAINED_SPEC.describe()}; {REPEATS} repeats, medians")
    constrained = _demo(
        "constrained",
        {
            "name": "cheapest-fast-design",
            "objectives": ["overhead.total_area_mm2:min"],
            "constraints": ["fig17.average_speedup:within_pct_of_best=5"],
        },
        CONSTRAINED_SPEC,
        driver="halving",
    )

    payload = {
        "benchmark": "optimize",
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "repeats": REPEATS,
        "frequency": frequency,
        "constrained": constrained,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
