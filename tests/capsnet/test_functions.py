"""Tests for the elementary CapsNet functions."""

import numpy as np
import pytest

from repro.capsnet import functions as F


def test_squash_norm_bounded():
    vectors = np.random.default_rng(0).normal(size=(32, 8)).astype(np.float32) * 4
    norms = np.linalg.norm(F.squash(vectors), axis=-1)
    assert np.all(norms < 1.0 + 1e-5)


def test_squash_long_vector_approaches_unit_norm():
    vector = np.full((1, 8), 100.0, dtype=np.float32)
    assert np.linalg.norm(F.squash(vector)) == pytest.approx(1.0, abs=1e-3)


def test_squash_zero_vector_stays_zero():
    vector = np.zeros((1, 8), dtype=np.float32)
    np.testing.assert_allclose(F.squash(vector), 0.0, atol=1e-6)


def test_squash_direction_preserved():
    vector = np.array([[3.0, 4.0]], dtype=np.float32)
    squashed = F.squash(vector)
    np.testing.assert_allclose(squashed[0] / np.linalg.norm(squashed), [0.6, 0.8], rtol=1e-5)


def test_softmax_normalizes():
    logits = np.random.default_rng(1).normal(size=(4, 6)).astype(np.float32)
    np.testing.assert_allclose(np.sum(F.softmax(logits), axis=-1), 1.0, atol=1e-5)


def test_softmax_invariant_to_constant_shift():
    logits = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
    np.testing.assert_allclose(F.softmax(logits), F.softmax(logits + 10.0), atol=1e-6)


def test_relu_and_grad():
    x = np.array([-2.0, 0.0, 3.0], dtype=np.float32)
    np.testing.assert_array_equal(F.relu(x), [0.0, 0.0, 3.0])


def test_sigmoid_range_and_midpoint():
    x = np.array([-50.0, 0.0, 50.0], dtype=np.float32)
    y = F.sigmoid(x)
    assert np.all((y >= 0) & (y <= 1))
    assert float(y[1]) == pytest.approx(0.5)


def test_sigmoid_grad_matches_formula():
    y = np.array([0.25, 0.5, 0.9], dtype=np.float32)
    np.testing.assert_allclose(F.sigmoid_grad(y), y * (1 - y), rtol=1e-6)


def test_capsule_lengths():
    capsules = np.array([[[3.0, 4.0], [0.0, 0.0]]], dtype=np.float32)
    lengths = F.capsule_lengths(capsules)
    assert lengths.shape == (1, 2)
    assert float(lengths[0, 0]) == pytest.approx(5.0, rel=1e-5)


def test_margin_loss_zero_for_perfect_prediction():
    lengths = np.array([[0.95, 0.05, 0.05]], dtype=np.float32)
    labels = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
    assert F.margin_loss(lengths, labels) == pytest.approx(0.0, abs=1e-6)


def test_margin_loss_positive_for_wrong_prediction():
    lengths = np.array([[0.05, 0.95, 0.05]], dtype=np.float32)
    labels = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
    assert F.margin_loss(lengths, labels) > 0.5


def test_margin_loss_grad_matches_numerical_gradient():
    rng = np.random.default_rng(5)
    lengths = rng.uniform(0.0, 1.0, size=(3, 4)).astype(np.float32)
    labels = F.one_hot(np.array([0, 2, 1]), 4)
    grad = F.margin_loss_grad(lengths, labels)
    eps = 1e-3
    numerical = np.zeros_like(lengths)
    for i in range(lengths.shape[0]):
        for j in range(lengths.shape[1]):
            plus = lengths.copy()
            minus = lengths.copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            numerical[i, j] = (F.margin_loss(plus, labels) - F.margin_loss(minus, labels)) / (2 * eps)
    np.testing.assert_allclose(grad, numerical, atol=2e-3)


def test_one_hot_shape_and_values():
    onehot = F.one_hot(np.array([0, 2]), 3)
    np.testing.assert_array_equal(onehot, [[1, 0, 0], [0, 0, 1]])


def test_one_hot_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        F.one_hot(np.array([3]), 3)


def test_one_hot_rejects_multidimensional_labels():
    with pytest.raises(ValueError):
        F.one_hot(np.zeros((2, 2), dtype=np.int64), 3)


def test_reconstruction_loss_zero_for_identical():
    x = np.random.default_rng(0).random((4, 10)).astype(np.float32)
    assert F.reconstruction_loss(x, x) == pytest.approx(0.0, abs=1e-7)


def test_reconstruction_loss_shape_mismatch():
    with pytest.raises(ValueError):
        F.reconstruction_loss(np.zeros((2, 3)), np.zeros((2, 4)))
