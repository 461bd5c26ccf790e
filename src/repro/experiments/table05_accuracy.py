"""Table 5: CapsNet accuracy with the PE's approximate arithmetic.

The PIM-CapsNet PEs evaluate the exponential, division and inverse square
root through bit-level approximations (Sec. 5.2.2); Table 5 verifies that

* without the accuracy-recovery multiplier the approximations cost on
  average ~0.35% accuracy,
* with the recovery multiplier the accuracy essentially matches the exact
  execution (~0.04% average difference).

The paper trains the twelve Table-1 networks on their datasets; offline we
train one small CapsNet per dataset on the deterministic synthetic datasets
(see DESIGN.md for the substitution) and evaluate the *same trained weights*
under the three arithmetic contexts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.arithmetic.context import MathContext
from repro.capsnet.datasets import DatasetSpec, dataset_for_spec
from repro.capsnet.model import CapsNet, CapsNetConfig, evaluate_accuracies
from repro.capsnet.training import Trainer
from repro.engine.context import SimulationContext
from repro.engine.experiment import Experiment, register_experiment

#: Trainer arguments the experiment overrides (everything else stays at the
#: :class:`~repro.capsnet.training.Trainer` defaults).  The cache key derives
#: the full hyper-parameter set from these plus the dataclass defaults, so a
#: change in either place changes the key -- no duplicated literals to drift.
TRAINER_KWARGS = {
    "learning_rate": 0.002,
    "optimizer": "adam",
    "reconstruction_weight": 0.0,
}

#: Trainer fields that shape the trained weights (part of the cache key).
_HYPERPARAM_FIELDS = (
    "learning_rate",
    "momentum",
    "optimizer",
    "reconstruction_weight",
    "grad_clip",
    "adam_beta1",
    "adam_beta2",
    "adam_epsilon",
)


def _trainer_hyperparams() -> dict:
    """The resolved trainer hyper-parameters (defaults + experiment overrides)."""
    defaults = {
        field.name: field.default
        for field in dataclasses.fields(Trainer)
        if field.name in _HYPERPARAM_FIELDS
    }
    return {**defaults, **TRAINER_KWARGS}


def _context_schema(context: MathContext) -> dict:
    """Canonical description of one evaluated arithmetic context.

    Derived from the live :class:`~repro.arithmetic.context.MathContext`
    (not hardcoded), so changing the PE approximations, the Newton depth or
    the recovery calibration automatically invalidates cached accuracies.
    """
    payload: dict = {
        "name": context.name,
        "use_approximations": context.use_approximations,
        "newton_steps": context.newton_steps,
    }
    if context.exp_recovery is not None:
        payload["recovery"] = {
            "scale": context.exp_recovery.scale,
            "mean_relative_error": context.exp_recovery.mean_relative_error,
            "samples": context.exp_recovery.samples,
        }
    return payload


@dataclass
class AccuracyRow:
    """One column group of Table 5."""

    benchmark: str
    dataset: str
    origin_accuracy: float
    approx_accuracy: float
    recovered_accuracy: float

    @property
    def loss_without_recovery(self) -> float:
        """Accuracy drop of the approximation without recovery."""
        return self.origin_accuracy - self.approx_accuracy

    @property
    def loss_with_recovery(self) -> float:
        """Accuracy drop (absolute difference) with the recovery multiplier."""
        return abs(self.origin_accuracy - self.recovered_accuracy)


@dataclass
class AccuracyResult:
    """All rows plus the average losses the paper quotes."""

    rows: List[AccuracyRow]
    average_loss_without_recovery: float
    average_loss_with_recovery: float


def _scaled_config_for(dataset_name: str, num_classes: int, image_shape) -> CapsNetConfig:
    """A small CapsNet preserving the paper's layer structure for one dataset."""
    return CapsNetConfig(
        input_shape=image_shape,
        num_classes=num_classes,
        conv_channels=24,
        conv_kernel=9,
        conv_stride=1,
        primary_channels=2,
        primary_dim=8,
        primary_kernel=9,
        primary_stride=2,
        class_caps_dim=16,
        routing_iterations=3,
        use_decoder=False,
    )


def training_cache_key(
    spec: DatasetSpec,
    model_config: CapsNetConfig,
    epochs: int,
    num_train: int,
    num_test: int,
    seed: int,
    eval_contexts: Dict[str, MathContext],
) -> dict:
    """The canonical trained-model cache key payload for one dataset.

    Covers everything that determines the trained weights *and* the measured
    accuracies: the dataset spec and split sizes, the network architecture,
    the trainer hyper-parameters (resolved from the live Trainer defaults,
    not duplicated literals), the shared seed, and the schema of the
    evaluated arithmetic contexts.  Any change misses (the cache retrains).
    """
    return {
        "experiment": "table5",
        "dataset": spec.content_hash(),
        "splits": {"num_train": num_train, "num_test": num_test},
        "model": dataclasses.asdict(model_config),
        "trainer": _trainer_hyperparams(),
        "fit": {"epochs": epochs, "batch_size": 16},
        "seed": seed,
        "arithmetic": {
            label: _context_schema(context) for label, context in eval_contexts.items()
        },
    }


def _train_and_evaluate(
    spec: DatasetSpec,
    model_config: CapsNetConfig,
    epochs: int,
    num_train: int,
    num_test: int,
    seed: int,
    eval_contexts: Dict[str, MathContext],
) -> Tuple[CapsNet, Dict[str, float]]:
    """Train one dataset's CapsNet; return it with its accuracy per context.

    The dataset, the trainer's optimizer state and the evaluation clones are
    local, so they are freed when this returns.
    """
    dataset = dataset_for_spec(spec, num_train=num_train, num_test=num_test, seed=seed)
    model = CapsNet(model_config, context=MathContext.exact(), seed=seed)
    trainer = Trainer(model, seed=seed, **TRAINER_KWARGS)
    # The experiment evaluates below (sharing the conv trunk across
    # contexts), so fit's own train/test evaluation passes would be dead work.
    trainer.fit(dataset, epochs=epochs, batch_size=16, evaluate=False)
    test_images, test_labels = dataset.test_set()
    eval_models = {
        label: model.with_context(math_context)
        for label, math_context in eval_contexts.items()
    }
    return model, evaluate_accuracies(eval_models, test_images, test_labels)


def run(
    benchmarks: Optional[List[str]] = None,
    epochs: int = 4,
    num_train: int = 320,
    num_test: int = 160,
    seed: int = 3,
    context: Optional[SimulationContext] = None,
) -> AccuracyResult:
    """Run the Table 5 accuracy comparison.

    ``context`` is accepted for engine uniformity; training is kept serial
    (the per-dataset weight sharing below is order-dependent).  When the
    context carries a :class:`~repro.engine.diskcache.TrainedModelCache`,
    trained weights and per-context accuracies are persisted under a
    content-addressed key, so a warm run executes *zero* training steps and
    renders a byte-identical table.

    Training happens once per distinct dataset *spec* (not name, so a custom
    workload whose inline dataset reuses a Table-1 name cannot alias the
    canonical dataset's trained weights); every benchmark sharing that
    dataset reuses the trained weights and accuracies (the benchmarks of a
    dataset family only differ in batch size / capsule counts, which do not
    change the accuracy comparison being made).  ``num_train`` / ``num_test``
    are per-dataset floors; datasets with many classes get at least eight
    training and four test samples per class.

    The accuracy comparison is hardware-insensitive: only the scenario's
    benchmark selection (taken from ``context`` when given) affects it.
    """
    ctx = context or SimulationContext()
    names = ctx.select_benchmarks(benchmarks)
    model_cache = ctx.trained_models
    # Built once: every context is deterministic, and re-running the
    # recovery calibration per benchmark row was pure waste.
    eval_contexts = {
        "origin": MathContext.exact(),
        "approx": MathContext.approximate(),
        "recovered": MathContext.approximate_with_recovery(),
    }
    accuracies_by_spec: Dict[DatasetSpec, Dict[str, float]] = {}
    rows: List[AccuracyRow] = []

    for name in names:
        config = ctx.benchmark_config(name)
        dataset_name = config.dataset
        spec = config.dataset_spec
        accuracies = accuracies_by_spec.get(spec)
        if accuracies is None:
            num_classes = spec.num_classes
            n_train = max(num_train, 8 * num_classes)
            n_test = max(num_test, 4 * num_classes)
            model_config = _scaled_config_for(dataset_name, num_classes, spec.image_shape)
            cache_key = training_cache_key(
                spec, model_config, epochs, n_train, n_test, seed, eval_contexts
            )
            artifact = model_cache.get(cache_key) if model_cache is not None else None
            if artifact is not None:
                accuracies = artifact.accuracies
            else:
                model, accuracies = _train_and_evaluate(
                    spec, model_config, epochs, n_train, n_test, seed, eval_contexts
                )
                if model_cache is not None:
                    model_cache.put(
                        cache_key, state=model.state_dict(), accuracies=accuracies
                    )
                # The next dataset trains without this one's weights alive.
                del model
            accuracies_by_spec[spec] = accuracies

        rows.append(
            AccuracyRow(
                benchmark=name,
                dataset=dataset_name,
                origin_accuracy=accuracies["origin"],
                approx_accuracy=accuracies["approx"],
                recovered_accuracy=accuracies["recovered"],
            )
        )

    return AccuracyResult(
        rows=rows,
        average_loss_without_recovery=arithmetic_mean(
            [row.loss_without_recovery for row in rows]
        ),
        average_loss_with_recovery=arithmetic_mean([row.loss_with_recovery for row in rows]),
    )


def format_report(result: AccuracyResult) -> str:
    """Render Table 5."""
    table = format_table(
        headers=["Benchmark", "Dataset", "Origin", "w/o recovery", "w/ recovery"],
        rows=[
            [
                row.benchmark,
                row.dataset,
                row.origin_accuracy,
                row.approx_accuracy,
                row.recovered_accuracy,
            ]
            for row in result.rows
        ],
        title="Table 5 -- accuracy with the PE approximations",
    )
    return (
        f"{table}\n"
        f"Average accuracy loss without recovery: "
        f"{100.0 * result.average_loss_without_recovery:.3f}% (paper: 0.35%)\n"
        f"Average accuracy difference with recovery: "
        f"{100.0 * result.average_loss_with_recovery:.3f}% (paper: 0.04%)"
    )


@register_experiment
class Table5Experiment(Experiment):
    """Table 5 -- CapsNet accuracy with the PE's approximate arithmetic."""

    name = "table5"
    title = "Table 5 -- accuracy with the PE approximations"
    slow = True

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
