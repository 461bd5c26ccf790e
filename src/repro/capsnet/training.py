"""A small SGD trainer for the functional CapsNet model.

The trainer exists so the Table-5 accuracy experiments can produce trained
networks entirely offline: it minimizes the margin loss (plus a small
reconstruction term when the decoder is enabled) with SGD + momentum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.capsnet import functions as F
from repro.capsnet.datasets import SyntheticImageDataset
from repro.capsnet.model import CapsNet

#: Process-wide count of executed training steps.  The trained-model disk
#: cache promises that warm runs execute *zero* steps; the benchmark harness
#: and the cache tests assert that through this counter instead of timing.
_TRAIN_STEPS_EXECUTED = 0


def train_steps_executed() -> int:
    """Total :meth:`Trainer.train_step` invocations in this process."""
    return _TRAIN_STEPS_EXECUTED


def reset_train_step_count() -> None:
    """Reset the process-wide training-step counter (tests / benchmarks)."""
    global _TRAIN_STEPS_EXECUTED
    _TRAIN_STEPS_EXECUTED = 0


@dataclass
class TrainingResult:
    """Summary of a training run.

    Attributes:
        epoch_losses: mean training loss per epoch.
        train_accuracy: final accuracy on the training split (``nan`` when
            the fit ran with ``evaluate=False``).
        test_accuracy: final accuracy on the test split (``nan`` when the
            fit ran with ``evaluate=False``).
        epochs: number of epochs executed.
    """

    epoch_losses: List[float]
    train_accuracy: float
    test_accuracy: float
    epochs: int


@dataclass
class Trainer:
    """SGD / Adam trainer for :class:`~repro.capsnet.model.CapsNet`.

    Args:
        model: the CapsNet to train.
        learning_rate: optimizer step size.
        momentum: classical momentum coefficient (SGD only).
        optimizer: ``"sgd"`` (momentum SGD) or ``"adam"`` (Adam, the optimizer
            Sabour et al. use; converges much faster on the small synthetic
            accuracy experiments).
        reconstruction_weight: weight of the reconstruction loss term
            (0.0005 in Sabour et al.; set to 0 to disable).
        grad_clip: element-wise gradient clipping threshold (0 disables).
        seed: RNG seed controlling batch shuffling.
    """

    model: CapsNet
    learning_rate: float = 0.05
    momentum: float = 0.9
    optimizer: str = "sgd"
    reconstruction_weight: float = 0.0005
    grad_clip: float = 5.0
    seed: int = 11
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    _velocity: Dict[int, Dict[str, np.ndarray]] = field(default_factory=dict, init=False)
    _adam_m: Dict[int, Dict[str, np.ndarray]] = field(default_factory=dict, init=False)
    _adam_v: Dict[int, Dict[str, np.ndarray]] = field(default_factory=dict, init=False)
    _adam_step: int = field(default=0, init=False)
    #: Training steps this trainer instance has executed.
    steps_executed: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}; use 'sgd' or 'adam'")

    # -- single step ----------------------------------------------------------

    def train_step(
        self, images: np.ndarray, labels_onehot: np.ndarray
    ) -> float:
        """Run one forward/backward/update step and return the batch loss."""
        global _TRAIN_STEPS_EXECUTED
        _TRAIN_STEPS_EXECUTED += 1
        self.steps_executed += 1
        self.model.zero_grads()
        run_decoder = self.reconstruction_weight > 0 and bool(self.model.decoder_layers)
        result = self.model.forward(images, labels_onehot=labels_onehot, run_decoder=run_decoder)
        loss = F.margin_loss(result.lengths, labels_onehot)
        if run_decoder and result.reconstruction is not None:
            flat = np.asarray(images, dtype=np.float32).reshape(images.shape[0], -1)
            loss += self.reconstruction_weight * F.reconstruction_loss(result.reconstruction, flat)
        self.model.backward_from_losses(
            result, labels_onehot, images, reconstruction_weight=self.reconstruction_weight
        )
        self._apply_update()
        return float(loss)

    def _apply_update(self) -> None:
        if self.optimizer == "adam":
            self._apply_adam()
        else:
            self._apply_sgd()

    # Both update rules run in place on the persistent optimizer state: the
    # element-wise operation order matches the old allocate-per-step
    # expressions exactly (bit-identical updates), it just stops allocating a
    # handful of parameter-sized temporaries per step.

    def _apply_sgd(self) -> None:
        for layer_id, layer in enumerate(self.model.trainable_layers):
            velocity = self._velocity.setdefault(layer_id, {})
            for name, grad in layer.grads.items():
                if self.grad_clip > 0:
                    np.clip(grad, -self.grad_clip, self.grad_clip, out=grad)
                v = velocity.get(name)
                if v is None:
                    v = np.zeros_like(grad)
                    velocity[name] = v
                # v = momentum * v - learning_rate * grad
                v *= self.momentum
                v -= self.learning_rate * grad
                layer.params[name] += v

    def _apply_adam(self) -> None:
        self._adam_step += 1
        t = self._adam_step
        bias1 = 1.0 - self.adam_beta1**t
        bias2 = 1.0 - self.adam_beta2**t
        for layer_id, layer in enumerate(self.model.trainable_layers):
            m_state = self._adam_m.setdefault(layer_id, {})
            v_state = self._adam_v.setdefault(layer_id, {})
            for name, grad in layer.grads.items():
                if self.grad_clip > 0:
                    np.clip(grad, -self.grad_clip, self.grad_clip, out=grad)
                m = m_state.get(name)
                v = v_state.get(name)
                if m is None:
                    m = np.zeros_like(grad)
                    v = np.zeros_like(grad)
                    m_state[name] = m
                    v_state[name] = v
                # m = beta1 * m + (1 - beta1) * grad
                m *= self.adam_beta1
                m += (1.0 - self.adam_beta1) * grad
                # v = beta2 * v + (1 - beta2) * grad * grad
                v *= self.adam_beta2
                v += (1.0 - self.adam_beta2) * grad * grad
                # params -= learning_rate * m_hat / (sqrt(v_hat) + eps)
                denominator = v / bias2
                np.sqrt(denominator, out=denominator)
                denominator += self.adam_epsilon
                update = m / bias1
                update *= self.learning_rate
                update /= denominator
                layer.params[name] -= update

    # -- full training loop ---------------------------------------------------

    def fit(
        self,
        dataset: SyntheticImageDataset,
        epochs: int = 3,
        batch_size: int = 16,
        verbose: bool = False,
        evaluate: bool = True,
    ) -> TrainingResult:
        """Train on the dataset's training split and evaluate on the test split.

        When training ends the model drops its step caches and workspaces
        (:meth:`~repro.capsnet.model.CapsNet.release`), so it returns holding
        its parameters and gradients only.

        Args:
            dataset: the synthetic dataset to fit.
            epochs: full passes over the training split.
            batch_size: mini-batch size.
            verbose: print per-epoch losses.
            evaluate: compute the final train/test accuracies.  Callers that
                run their own (e.g. multi-context) evaluation pass ``False``
                to skip the two full-dataset inference passes; the returned
                accuracies are then ``nan``.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        rng = np.random.default_rng(self.seed)
        epoch_losses: List[float] = []
        try:
            for epoch in range(epochs):
                losses: List[float] = []
                for images, _, onehot in dataset.train_batches(batch_size, rng=rng):
                    losses.append(self.train_step(images, onehot))
                epoch_loss = float(np.mean(losses)) if losses else 0.0
                epoch_losses.append(epoch_loss)
                if verbose:  # pragma: no cover - logging only
                    print(f"epoch {epoch + 1}/{epochs}: loss={epoch_loss:.4f}")
        finally:
            # The step caches and workspaces are dead once training ends;
            # evaluation (here or the caller's) must not stack on them.
            self.model.release()

        if evaluate:
            train_acc = self.model.accuracy(dataset.train_images, dataset.train_labels)
            test_images, test_labels = dataset.test_set()
            test_acc = self.model.accuracy(test_images, test_labels)
        else:
            train_acc = test_acc = float("nan")
        return TrainingResult(
            epoch_losses=epoch_losses,
            train_accuracy=train_acc,
            test_accuracy=test_acc,
            epochs=epochs,
        )
