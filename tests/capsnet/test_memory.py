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


def _workspace_bytes(model):
    """Bytes of the arrays a model's layers keep in their step workspaces."""
    layers = [
        model.conv,
        model.relu,
        model.primary,
        model.primary.conv,
        model.class_caps,
        *model.decoder_layers,
    ]
    return sum(array.nbytes for layer in layers for array in layer._workspace.values())


def test_a_training_step_keeps_at_most_8_mib_in_workspaces(mnist):
    dataset, config = mnist
    trainer = _trainer(config)
    batches = list(dataset.train_batches(16, rng=np.random.default_rng(0)))
    for images, _, onehot in batches[:2]:
        trainer.train_step(images, onehot)
    workspace = _workspace_bytes(trainer.model)
    # 23.92 MiB while the PrimaryCaps backward kept its batch-wide column
    # gradient, their transposed copy and batch-wide scatter indices; 7.64
    # MiB with the fold one image at a time (4.27 MiB are PrimaryCaps'
    # im2col columns, which the weight gradient needs).
    assert workspace <= 8 * MIB, f"{workspace / MIB:.2f} MiB"


def test_evaluating_the_table5_test_split_allocates_at_most_8_mib():
    spec = DATASET_SPECS["MNIST"]
    dataset = dataset_for_spec(spec, num_train=40, num_test=160, seed=3)
    config = _scaled_config_for(spec.name, spec.num_classes, spec.image_shape)
    model = CapsNet(config, seed=3)
    contexts = {
        "origin": MathContext.exact(),
        "approx": MathContext.approximate(),
        "recovered": MathContext.approximate_with_recovery(),
    }
    models = {label: model.with_context(context) for label, context in contexts.items()}
    test_images, test_labels = dataset.test_set()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate_accuracies(models, test_images, test_labels)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # 19.89 MiB while the trunk convolved a whole batch of 64 at once; 5.21
    # MiB in slices of Table 5's training batch.
    assert peak <= 8 * MIB, f"{peak / MIB:.2f} MiB"


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


def _gradient_bytes(model):
    return sum(g.nbytes for layer in model.trainable_layers for g in layer.grads.values())


def test_evaluation_clones_hold_no_gradients(mnist):
    dataset, config = mnist
    trainer = _trainer(config)
    trainer.fit(dataset, epochs=1, batch_size=16, evaluate=False)
    contexts = {
        "origin": MathContext.exact(),
        "approx": MathContext.approximate(),
        "recovered": MathContext.approximate_with_recovery(),
    }
    clones = {label: trainer.model.with_context(c) for label, c in contexts.items()}
    assert [_gradient_bytes(clone) for clone in clones.values()] == [0, 0, 0]
    # Table 5's accuracies: the gradient-free clones classify exactly as
    # models reloaded from the trained weights, which own full gradients.
    test_images, test_labels = dataset.test_set()
    state = trainer.model.state_dict()
    expected = {}
    for label, context in contexts.items():
        reloaded = CapsNet(config, context=context)
        reloaded.load_state_dict(state)
        assert _gradient_bytes(reloaded) == _gradient_bytes(trainer.model) > 0
        expected[label] = reloaded.accuracy(test_images, test_labels)
    assert evaluate_accuracies(clones, test_images, test_labels) == expected
    assert [_gradient_bytes(clone) for clone in clones.values()] == [0, 0, 0]
    # A clone that is trained allocates its own gradients on its first step.
    clone = clones["origin"]
    images, _, onehot = next(dataset.train_batches(16, rng=np.random.default_rng(0)))
    Trainer(clone, seed=3, **TRAINER_KWARGS).train_step(images, onehot)
    assert _gradient_bytes(clone) == _gradient_bytes(trainer.model)
    assert clone.primary.grads is clone.primary.conv.grads
    assert clone.class_caps.grads is not trainer.model.class_caps.grads


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
