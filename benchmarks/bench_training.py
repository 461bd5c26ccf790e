"""Benchmark CapsNet training + the trained-model cache; record BENCH_training.json.

Times the Table-5 experiment (the training-dominated hot path of a full
``repro reproduce``) in two configurations against one temporary cache
directory:

* ``cold`` -- empty cache: every dataset's CapsNet trains from scratch
  through the vectorized kernels,
* ``warm`` -- same cache: every trained model (and its per-context
  accuracies) is served from disk; the run must execute **zero** training
  steps and render a byte-identical report.

Before them it profiles single training steps at the Table-5 MNIST
geometry (batch 16: 1 x 28 x 28 -> 24 x 20 x 20 -> 16 x 6 x 6 PrimaryCaps) in
the fresh process, as a cold ``reproduce`` trains, after two warm-up steps:
the bytes of new arrays one step allocates (tracemalloc's peak over the
step, in MiB), and over ``repeats`` further steps the median minor page
faults (``getrusage`` of this process) and the median step time.
``peak_rss_mb`` is this process's high-water RSS at the end, which the cold
six-dataset run sets.

Correctness gates are *count-based* (training steps, cache hits, allocated
bytes), never wall-clock: timings on shared hosts are noise, so they are
recorded as context with the host's ``cpu_count``.  The JSON report lands
next to this script (``benchmarks/BENCH_training.json`` by default, override
with argv[1]) so the perf trajectory of the training backbone is recorded
across PRs; CI uploads it as a workflow artifact.

Run with::

    python benchmarks/bench_training.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import __version__
from repro.capsnet import training
from repro.capsnet.datasets import DATASET_SPECS, dataset_for_spec
from repro.capsnet.model import CapsNet
from repro.engine.context import SimulationContext
from repro.engine.diskcache import TrainedModelCache
from repro.experiments import table05_accuracy

#: Timed steps of the MNIST step profile (one epoch of the Table-5 split).
REPEATS = 20


def _timed_run(cache_dir):
    context = SimulationContext(model_cache=TrainedModelCache(cache_dir))
    training.reset_train_step_count()
    start = time.perf_counter()
    result = table05_accuracy.run(context=context)
    elapsed = time.perf_counter() - start
    return result, elapsed, training.train_steps_executed(), context.trained_models.stats


def _step_profile(repeats: int = REPEATS) -> dict:
    """Allocation, faults and time of Table-5 MNIST training steps."""
    spec = DATASET_SPECS["MNIST"]
    config = table05_accuracy._scaled_config_for(spec.name, spec.num_classes, spec.image_shape)
    dataset = dataset_for_spec(spec, num_train=16 * (repeats + 2), num_test=16, seed=3)
    trainer = training.Trainer(
        CapsNet(config, seed=3), seed=3, **table05_accuracy.TRAINER_KWARGS
    )
    batches = [
        (images, onehot)
        for images, _, onehot in dataset.train_batches(16, rng=np.random.default_rng(3))
    ]
    for images, onehot in batches[:2]:
        trainer.train_step(images, onehot)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trainer.train_step(*batches[0])
        new_array_bytes = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    faults, seconds = [], []
    for images, onehot in batches[2:]:
        faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        trainer.train_step(images, onehot)
        seconds.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before)
    return {
        "step_new_array_mb": new_array_bytes / 2**20,
        "minor_faults_per_step": statistics.median(faults),
        "step_ms": 1e3 * statistics.median(seconds),
        "repeats": len(seconds),
    }


def main() -> int:
    output = (
        Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "BENCH_training.json"
    )
    step = _step_profile()
    print(
        f"MNIST step: {step['step_new_array_mb']:.2f} MiB of new arrays, "
        f"{step['minor_faults_per_step']:g} minor faults, {step['step_ms']:.2f} ms "
        f"(medians of {step['repeats']})"
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
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS: {peak_rss_mb:.1f} MiB")

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
        "peak_rss_mb": peak_rss_mb,
        **step,
    }
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
