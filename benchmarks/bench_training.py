"""Benchmark CapsNet training + the trained-model cache; record BENCH_training.json.

Times the Table-5 experiment (the training-dominated hot path of a full
``repro reproduce``) in two configurations against one temporary cache
directory:

* ``cold`` -- empty cache: every dataset's CapsNet trains from scratch
  through the vectorized kernels,
* ``warm`` -- same cache: every trained model (and its per-context
  accuracies) is served from disk; the run must execute **zero** training
  steps and render a byte-identical report.

Correctness gates are *count-based* (training steps, cache hits), never
wall-clock: the dev container is single-CPU and timings there are noise.
The JSON report lands next to this script (``benchmarks/BENCH_training.json``
by default, override with argv[1]) so the perf trajectory of the training
backbone is recorded across PRs; CI uploads it as a workflow artifact.

Run with::

    python benchmarks/bench_training.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro import __version__
from repro.capsnet import training
from repro.engine.context import SimulationContext
from repro.engine.diskcache import TrainedModelCache
from repro.experiments import table05_accuracy


def _timed_run(cache_dir):
    context = SimulationContext(model_cache=TrainedModelCache(cache_dir))
    training.reset_train_step_count()
    start = time.perf_counter()
    result = table05_accuracy.run(context=context)
    elapsed = time.perf_counter() - start
    return result, elapsed, training.train_steps_executed(), context.trained_models.stats


def main() -> int:
    output = (
        Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "BENCH_training.json"
    )
    with tempfile.TemporaryDirectory(prefix="bench-training-") as cache_dir:
        cold, cold_s, cold_steps, cold_stats = _timed_run(cache_dir)
        print(f"cold: {cold_s:.2f}s  ({cold_steps} training steps, "
              f"{cold_stats.misses} cache misses)")
        warm, warm_s, warm_steps, warm_stats = _timed_run(cache_dir)
        print(f"warm: {warm_s:.3f}s  ({warm_steps} training steps, "
              f"{warm_stats.hits} cache hits)")

    if warm_steps != 0:
        raise SystemExit("warm run executed training steps -- the model cache is broken")
    if warm_stats.misses != 0:
        raise SystemExit("warm run missed the model cache -- keying is unstable")
    if table05_accuracy.format_report(warm) != table05_accuracy.format_report(cold):
        raise SystemExit("warm report differs from cold -- accuracies did not round-trip")

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"warm speedup: {speedup:.1f}x over cold")

    payload = {
        "benchmark": "training",
        "version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "warm_speedup_over_cold": speedup,
        "cold_training_steps": cold_steps,
        "warm_training_steps": warm_steps,
        "cold_cache_misses": cold_stats.misses,
        "warm_cache_hits": warm_stats.hits,
        "warm_cache_misses": warm_stats.misses,
        "datasets_trained": cold_stats.misses,
        "rows": len(cold.rows),
    }
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
