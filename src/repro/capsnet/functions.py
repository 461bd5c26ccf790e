"""Elementary functions used by the CapsNet layers.

All functions operate on numpy arrays in FP32 (the precision the paper
targets for the PIM design) and accept an optional
:class:`repro.arithmetic.MathContext` where the routing procedure's special
functions are involved.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arithmetic.context import MathContext
from repro.arithmetic.fp32 import as_f32

_EPS = np.float32(1e-12)


def _ctx(context: Optional[MathContext]) -> MathContext:
    return context if context is not None else MathContext.exact()


def squash(vectors: np.ndarray, axis: int = -1, context: Optional[MathContext] = None) -> np.ndarray:
    """Squash non-linearity of Eq. (3).

    ``v = ||s||^2 / (1 + ||s||^2) * s / ||s||`` -- shrinks short vectors to
    near-zero length and long vectors to just below unit length, preserving
    orientation.

    Args:
        vectors: input array, the capsule dimension along ``axis``.
        axis: capsule dimension.
        context: arithmetic implementation (exact FP32 by default).
    """
    return _ctx(context).squash(np.asarray(vectors, dtype=np.float32), axis=axis)


def softmax(logits: np.ndarray, axis: int = -1, context: Optional[MathContext] = None) -> np.ndarray:
    """Numerically stable softmax of Eq. (5)."""
    return _ctx(context).softmax(np.asarray(logits, dtype=np.float32), axis=axis)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float32), np.float32(0.0))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid, used by the reconstruction decoder's output layer."""
    x = np.asarray(x, dtype=np.float32)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return as_f32(out)


def sigmoid_grad(y: np.ndarray) -> np.ndarray:
    """Derivative of the sigmoid given its *output* ``y``."""
    y = np.asarray(y, dtype=np.float32)
    return as_f32(y * (1.0 - y))


def capsule_lengths(capsules: np.ndarray, axis: int = -1) -> np.ndarray:
    """Euclidean length of each capsule vector (the class probability)."""
    capsules = np.asarray(capsules, dtype=np.float32)
    return np.sqrt(np.sum(capsules * capsules, axis=axis, dtype=np.float32) + _EPS)


def margin_loss(
    lengths: np.ndarray,
    labels_onehot: np.ndarray,
    m_plus: float = 0.9,
    m_minus: float = 0.1,
    lambda_down: float = 0.5,
) -> float:
    """Margin loss of Sabour et al. used to train the class capsules.

    ``L_k = T_k max(0, m+ - ||v_k||)^2 + lambda (1 - T_k) max(0, ||v_k|| - m-)^2``

    Args:
        lengths: capsule lengths, shape ``(batch, num_classes)``.
        labels_onehot: one-hot labels with the same shape.
        m_plus: positive margin.
        m_minus: negative margin.
        lambda_down: down-weighting of the absent-class term.

    Returns:
        Mean loss over the batch.
    """
    lengths = np.asarray(lengths, dtype=np.float32)
    t = np.asarray(labels_onehot, dtype=np.float32)
    present = np.maximum(0.0, m_plus - lengths) ** 2
    absent = np.maximum(0.0, lengths - m_minus) ** 2
    per_class = t * present + lambda_down * (1.0 - t) * absent
    return float(np.mean(np.sum(per_class, axis=1)))


def margin_loss_grad(
    lengths: np.ndarray,
    labels_onehot: np.ndarray,
    m_plus: float = 0.9,
    m_minus: float = 0.1,
    lambda_down: float = 0.5,
) -> np.ndarray:
    """Gradient of :func:`margin_loss` with respect to the capsule lengths."""
    lengths = np.asarray(lengths, dtype=np.float32)
    t = np.asarray(labels_onehot, dtype=np.float32)
    batch = lengths.shape[0]
    grad_present = -2.0 * np.maximum(0.0, m_plus - lengths)
    grad_absent = 2.0 * np.maximum(0.0, lengths - m_minus)
    grad = t * grad_present + lambda_down * (1.0 - t) * grad_absent
    return as_f32(grad / np.float32(batch))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as one-hot vectors."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for num_classes")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def reconstruction_loss(reconstruction: np.ndarray, target: np.ndarray) -> float:
    """Mean squared reconstruction error used by the decoder."""
    reconstruction = np.asarray(reconstruction, dtype=np.float32)
    target = np.asarray(target, dtype=np.float32)
    if reconstruction.shape != target.shape:
        raise ValueError(
            f"shape mismatch: reconstruction {reconstruction.shape} vs target {target.shape}"
        )
    return float(np.mean((reconstruction - target) ** 2))
