"""Correctness tests for the trained-model disk cache (Table 5).

The contract: a warm cache makes the Table-5 experiment execute *zero*
training steps while rendering a byte-identical report; any change to the
inputs that shape the trained weights (seed, epochs, dataset spec, schema
version) must miss and retrain; corrupt artifacts fall back to retraining.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.capsnet import training
from repro.capsnet.datasets import DatasetSpec
from repro.engine.context import SimulationContext
from repro.engine.diskcache import TrainedModelCache
from repro.experiments import table05_accuracy


#: A deliberately tiny configuration so each training run stays ~1s.
SMALL_RUN = dict(benchmarks=["Caps-MN1"], epochs=1, num_train=60, num_test=40)


def _context(cache: TrainedModelCache) -> SimulationContext:
    return SimulationContext(model_cache=cache)


@pytest.fixture
def cache(tmp_path) -> TrainedModelCache:
    return TrainedModelCache(tmp_path / "cache")


# ---------------------------------------------------------------------------
# Round trip / warm behaviour
# ---------------------------------------------------------------------------


def test_warm_run_executes_zero_training_steps(cache):
    cold = table05_accuracy.run(context=_context(cache), **SMALL_RUN)
    training.reset_train_step_count()
    warm = table05_accuracy.run(context=_context(TrainedModelCache(cache.root)), **SMALL_RUN)
    assert training.train_steps_executed() == 0
    assert table05_accuracy.format_report(warm) == table05_accuracy.format_report(cold)


def test_warm_run_report_is_byte_identical(cache):
    cold_report = table05_accuracy.format_report(
        table05_accuracy.run(context=_context(cache), **SMALL_RUN)
    )
    warm_cache = TrainedModelCache(cache.root)
    warm_report = table05_accuracy.format_report(
        table05_accuracy.run(context=_context(warm_cache), **SMALL_RUN)
    )
    assert warm_report == cold_report
    assert warm_cache.stats.hits == 1
    assert warm_cache.stats.misses == 0


def test_without_cache_every_run_trains():
    ctx = SimulationContext()
    assert ctx.trained_models is None
    training.reset_train_step_count()
    table05_accuracy.run(context=ctx, **SMALL_RUN)
    first = training.train_steps_executed()
    assert first > 0
    table05_accuracy.run(context=SimulationContext(), **SMALL_RUN)
    assert training.train_steps_executed() == 2 * first


def test_artifact_round_trips_state_and_accuracies(cache):
    key = {"experiment": "test", "shape": (1, 2, 3)}
    state = {
        "layer0.weight": np.arange(6, dtype=np.float32).reshape(2, 3),
        "layer0.bias": np.zeros(2, dtype=np.float32),
    }
    accuracies = {"origin": 0.9875, "approx": 0.98125}
    assert cache.put(key, state=state, accuracies=accuracies)
    artifact = cache.get(key)
    assert artifact is not None
    assert artifact.accuracies == accuracies
    assert set(artifact.state) == set(state)
    for name, value in state.items():
        assert np.array_equal(artifact.state[name], value)
        assert artifact.state[name].dtype == value.dtype


def test_key_normalization_accepts_tuples(cache):
    state = {"w": np.ones(1, dtype=np.float32)}
    assert cache.put({"shape": (1, 28, 28)}, state=state, accuracies={"a": 1.0})
    assert cache.get({"shape": [1, 28, 28]}) is not None


# ---------------------------------------------------------------------------
# Invalidation
# ---------------------------------------------------------------------------


def _accuracies_by_digest(cache, **overrides):
    run_kwargs = {**SMALL_RUN, **overrides}
    training.reset_train_step_count()
    table05_accuracy.run(context=_context(cache), **run_kwargs)
    return training.train_steps_executed()


def test_seed_change_invalidates(cache):
    _accuracies_by_digest(cache)
    assert _accuracies_by_digest(TrainedModelCache(cache.root), seed=4) > 0


def test_epochs_change_invalidates(cache):
    _accuracies_by_digest(cache)
    assert _accuracies_by_digest(TrainedModelCache(cache.root), epochs=2) > 0


def test_split_sizes_invalidate(cache):
    # num_train must exceed the 8-samples-per-class floor (80 for MNIST) to
    # actually change the effective split size.
    _accuracies_by_digest(cache)
    assert _accuracies_by_digest(TrainedModelCache(cache.root), num_train=96) > 0


def test_schema_version_change_invalidates(cache):
    _accuracies_by_digest(cache)
    bumped = TrainedModelCache(cache.root, version=cache.version + 1)
    training.reset_train_step_count()
    table05_accuracy.run(context=_context(bumped), **SMALL_RUN)
    assert training.train_steps_executed() > 0
    assert bumped.stats.misses >= 1


def test_dataset_spec_shapes_the_key():
    spec_a = DatasetSpec("MNIST", (1, 28, 28), 10)
    spec_b = DatasetSpec("MNIST", (1, 28, 28), 12)
    spec_c = DatasetSpec("MNIST-PRIME", (1, 28, 28), 10)
    hashes = {spec.content_hash() for spec in (spec_a, spec_b, spec_c)}
    assert len(hashes) == 3
    assert spec_a.content_hash() == DatasetSpec("MNIST", (1, 28, 28), 10).content_hash()


def test_table5_training_key_covers_the_inputs():
    from repro.arithmetic.context import MathContext

    spec = DatasetSpec("MNIST", (1, 28, 28), 10)
    config = table05_accuracy._scaled_config_for("MNIST", 10, (1, 28, 28))
    contexts = {"origin": MathContext.exact(), "approx": MathContext.approximate()}
    base = table05_accuracy.training_cache_key(spec, config, 4, 320, 160, 3, contexts)
    assert base["dataset"] == spec.content_hash()
    # Hyper-parameters are derived from the live Trainer defaults plus the
    # experiment's overrides -- not duplicated literals that can drift.
    assert base["trainer"]["learning_rate"] == 0.002
    assert base["trainer"]["grad_clip"] == 5.0
    changed = table05_accuracy.training_cache_key(spec, config, 4, 320, 160, 5, contexts)
    assert changed != base


def test_table5_key_tracks_arithmetic_context_changes():
    from repro.arithmetic.context import MathContext

    spec = DatasetSpec("MNIST", (1, 28, 28), 10)
    config = table05_accuracy._scaled_config_for("MNIST", 10, (1, 28, 28))
    base_ctx = {"approx": MathContext.approximate()}
    deeper_ctx = {"approx": MathContext.approximate(newton_steps=3)}
    recovered_ctx = {"approx": MathContext.approximate_with_recovery()}
    keys = [
        table05_accuracy.training_cache_key(spec, config, 4, 320, 160, 3, ctx)
        for ctx in (base_ctx, deeper_ctx, recovered_ctx)
    ]
    assert len({json.dumps(key, sort_keys=True) for key in keys}) == 3


# ---------------------------------------------------------------------------
# Corruption / degraded disks
# ---------------------------------------------------------------------------


def _single_artifact_path(cache):
    paths = list(cache.directory.rglob("*.npz"))
    assert len(paths) == 1
    return paths[0]


def test_corrupt_artifact_falls_back_to_training(cache):
    cold = table05_accuracy.run(context=_context(cache), **SMALL_RUN)
    _single_artifact_path(cache).write_bytes(b"not an npz archive")
    recovered_cache = TrainedModelCache(cache.root)
    training.reset_train_step_count()
    recovered = table05_accuracy.run(context=_context(recovered_cache), **SMALL_RUN)
    assert training.train_steps_executed() > 0
    assert recovered_cache.stats.misses == 1
    assert table05_accuracy.format_report(recovered) == table05_accuracy.format_report(cold)
    # The retrain rewrote a valid artifact: the next run is warm again.
    training.reset_train_step_count()
    table05_accuracy.run(context=_context(TrainedModelCache(cache.root)), **SMALL_RUN)
    assert training.train_steps_executed() == 0


def test_truncated_artifact_counts_as_miss(cache):
    key = {"k": 1}
    cache.put(key, state={"w": np.ones(3, dtype=np.float32)}, accuracies={"a": 0.5})
    path = _single_artifact_path(cache)
    path.write_bytes(path.read_bytes()[:10])
    fresh = TrainedModelCache(cache.root)
    assert fresh.get(key) is None
    assert fresh.stats.misses == 1


def test_mismatched_key_counts_as_miss(cache):
    cache.put({"k": 1}, state={"w": np.ones(1, dtype=np.float32)}, accuracies={"a": 0.5})
    assert cache.get({"k": 2}) is None


def test_unwritable_cache_root_degrades_gracefully(tmp_path):
    # A *file* where the cache root should be defeats mkdir even when the
    # test runs as root (chmod-based read-only checks do not).
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = TrainedModelCache(blocker / "cache")
    assert not cache.put(
        {"k": 1}, state={"w": np.ones(1, dtype=np.float32)}, accuracies={"a": 0.5}
    )
    assert cache.get({"k": 1}) is None
