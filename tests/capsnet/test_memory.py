"""Memory regression tests for Table-5 training and evaluation.

All deterministic: allocation comes from tracemalloc and held arrays from
walking the models' layers, never from the wall clock or the process RSS.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.arithmetic.context import MathContext
from repro.capsnet.datasets import DATASET_SPECS, dataset_for_spec
from repro.capsnet.model import CapsNet, evaluate_accuracies
from repro.capsnet.training import Trainer
from repro.experiments.table05_accuracy import TRAINER_KWARGS, _scaled_config_for

MIB = 1 << 20


@pytest.fixture(scope="module")
def mnist():
    """The Table-5 MNIST geometry: 16 x 1 x 28 x 28 -> 24 x 20 x 20 -> 16 x 6 x 6."""
    spec = DATASET_SPECS["MNIST"]
    # Evaluation runs two full batches of 64.
    dataset = dataset_for_spec(spec, num_train=40, num_test=128, seed=3)
    return dataset, _scaled_config_for(spec.name, spec.num_classes, spec.image_shape)


def _trainer(config, seed=3):
    return Trainer(CapsNet(config, seed=seed), seed=seed, **TRAINER_KWARGS)


def _arrays(value, seen):
    """Every ndarray reachable from ``value`` through containers and capsnet objects."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item, seen)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _arrays(item, seen)
    elif type(value).__module__.startswith("repro.capsnet") and hasattr(value, "__dict__"):
        yield from _arrays(vars(value), seen)


def _held_by_layers(model):
    """Arrays of >= 1 MiB a model's layers hold, parameters aside."""
    held = []
    for layer in [model.conv, model.relu, model.primary, model.class_caps, *model.decoder_layers]:
        seen = {id(layer.params)}
        held += [(type(layer).__name__, a.shape) for a in _arrays(layer, seen) if a.nbytes >= MIB]
    return held


def test_steady_state_training_step_allocates_at_most_4_mib(mnist):
    dataset, config = mnist
    trainer = _trainer(config)
    batches = list(dataset.train_batches(16, rng=np.random.default_rng(0)))
    for images, _, onehot in batches[:2]:
        trainer.train_step(images, onehot)
    images, _, onehot = batches[0]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trainer.train_step(images, onehot)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # 17.4 MiB while the columns, their gradient, col2im's buffers and its
    # scatter indices were allocated per step; ~3.1 MiB with the workspaces.
    assert peak <= 4 * MIB, f"{peak / MIB:.2f} MiB"


def test_fit_and_evaluation_leave_no_large_arrays_on_layers(mnist):
    dataset, config = mnist
    trainer = _trainer(config)
    trainer.fit(dataset, epochs=1, batch_size=16, evaluate=False)
    assert _held_by_layers(trainer.model) == []
    models = {
        "origin": trainer.model.with_context(MathContext.exact()),
        "approx": trainer.model.with_context(MathContext.approximate()),
    }
    test_images, test_labels = dataset.test_set()
    evaluate_accuracies(models, test_images, test_labels, batch_size=64)
    for model in (trainer.model, *models.values()):
        assert _held_by_layers(model) == []


def test_fit_evaluates_on_a_released_model(mnist):
    dataset, config = mnist
    trainer = _trainer(config)
    trainer.fit(dataset, epochs=1, batch_size=16)
    assert _held_by_layers(trainer.model) == []
    assert trainer.model.class_caps.last_routing_result is None


def test_no_capsnet_module_global_holds_an_array(mnist):
    dataset, config = mnist
    trainer = _trainer(config)
    trainer.fit(dataset, epochs=1, batch_size=16, evaluate=False)
    held = [
        (module_name, name)
        for module_name, module in sorted(sys.modules.items())
        if module_name.startswith("repro.capsnet")
        for name, value in vars(module).items()
        if not name.startswith("__") and next(_arrays(value, set()), None) is not None
    ]
    assert held == []


def _train(config, batches, seed):
    trainer = _trainer(config, seed)
    for images, _, onehot in batches:
        trainer.train_step(images, onehot)
    return trainer.model.state_dict()


def test_concurrent_training_matches_serial_training(mnist):
    """Three threads on two cores train three models; each gets its serial weights."""
    dataset, config = mnist
    # 40 images: two full batches and a ragged one of 8.
    batches = list(dataset.train_batches(16, rng=np.random.default_rng(1)))
    seeds = (3, 4, 5)
    serial = {seed: _train(config, batches, seed) for seed in seeds}
    concurrent = {}

    def work(seed):
        concurrent[seed] = _train(config, batches, seed)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(concurrent) == list(seeds)
    for seed in seeds:
        assert serial[seed].keys() == concurrent[seed].keys()
        for name, value in serial[seed].items():
            assert np.array_equal(value, concurrent[seed][name]), (seed, name)
