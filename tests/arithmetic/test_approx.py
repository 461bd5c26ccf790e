"""Tests for the PE's bit-level approximate special functions."""

import numpy as np
import pytest

from repro.arithmetic.approx import (
    EXP_AVG_CORRECTION,
    approx_div,
    approx_exp,
    approx_inv_sqrt,
    approx_reciprocal,
    exact_exp,
    exact_inv_sqrt,
    exact_reciprocal,
)
from repro.arithmetic.context import MathContext

APPROXIMATE = MathContext.approximate()


def relative_error(approx: np.ndarray, exact: np.ndarray) -> np.ndarray:
    exact = np.asarray(exact, dtype=np.float64)
    return np.abs(np.asarray(approx, dtype=np.float64) - exact) / np.maximum(np.abs(exact), 1e-30)


# ---------------------------------------------------------------------------
# exponential
# ---------------------------------------------------------------------------


def test_exp_avg_correction_value():
    # Avg = 1/ln2 - 1/2 - 1 (the paper's offline integration).
    assert EXP_AVG_CORRECTION == pytest.approx(1.0 / np.log(2.0) - 1.5, abs=1e-12)


def test_approx_exp_of_zero_close_to_one():
    assert float(approx_exp(0.0)) == pytest.approx(1.0, rel=0.05)


def test_approx_exp_accuracy_over_routing_range():
    x = np.linspace(-10, 10, 801, dtype=np.float32)
    err = relative_error(approx_exp(x), exact_exp(x))
    assert float(np.max(err)) < 0.04
    assert float(np.mean(err)) < 0.02


def test_approx_exp_monotonic():
    x = np.linspace(-5, 5, 201, dtype=np.float32)
    y = approx_exp(x)
    assert np.all(np.diff(y.astype(np.float64)) >= 0)


def test_approx_exp_always_positive():
    x = np.linspace(-60, 60, 101, dtype=np.float32)
    assert np.all(approx_exp(x) > 0)


def test_approx_exp_clamps_extreme_inputs():
    assert np.isfinite(float(approx_exp(1e6)))
    assert float(approx_exp(-1e6)) >= 0.0


def test_approx_exp_vector_shape_preserved():
    x = np.zeros((3, 4), dtype=np.float32)
    assert approx_exp(x).shape == (3, 4)


# ---------------------------------------------------------------------------
# inverse square root
# ---------------------------------------------------------------------------


def test_approx_inv_sqrt_accuracy_with_one_newton_step():
    x = np.logspace(-3, 4, 200, dtype=np.float32)
    err = relative_error(approx_inv_sqrt(x, newton_steps=1), exact_inv_sqrt(x))
    assert float(np.max(err)) < 0.002


def test_approx_inv_sqrt_no_newton_still_reasonable():
    x = np.logspace(-2, 2, 100, dtype=np.float32)
    err = relative_error(approx_inv_sqrt(x, newton_steps=0), exact_inv_sqrt(x))
    assert float(np.max(err)) < 0.04


def test_approx_inv_sqrt_more_newton_steps_improve_accuracy():
    x = np.logspace(-2, 2, 100, dtype=np.float32)
    err1 = np.max(relative_error(approx_inv_sqrt(x, newton_steps=1), exact_inv_sqrt(x)))
    err2 = np.max(relative_error(approx_inv_sqrt(x, newton_steps=2), exact_inv_sqrt(x)))
    assert err2 <= err1


def test_approx_inv_sqrt_of_four():
    assert float(approx_inv_sqrt(4.0)) == pytest.approx(0.5, rel=5e-3)


# ---------------------------------------------------------------------------
# reciprocal / division
# ---------------------------------------------------------------------------


def test_approx_reciprocal_accuracy():
    x = np.logspace(-3, 3, 200, dtype=np.float32)
    err = relative_error(approx_reciprocal(x, newton_steps=1), exact_reciprocal(x))
    assert float(np.max(err)) < 0.01


def test_approx_reciprocal_handles_negative_values():
    assert float(approx_reciprocal(-2.0)) == pytest.approx(-0.5, rel=0.01)


def test_approx_div_matches_ratio():
    num = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    den = np.array([4.0, 5.0, 8.0], dtype=np.float32)
    expected = num / den
    np.testing.assert_allclose(approx_div(num, den), expected, rtol=0.01)


def test_approx_div_broadcasting():
    num = np.ones((2, 3), dtype=np.float32)
    den = np.float32(2.0)
    assert approx_div(num, den).shape == (2, 3)


# ---------------------------------------------------------------------------
# composite softmax / squash
# ---------------------------------------------------------------------------


def test_approx_softmax_sums_close_to_one():
    logits = np.random.default_rng(0).normal(size=(5, 7)).astype(np.float32)
    total = np.sum(APPROXIMATE.softmax(logits, axis=-1), axis=-1)
    np.testing.assert_allclose(total, np.ones(5), atol=0.03)


def test_approx_softmax_close_to_exact():
    logits = np.random.default_rng(1).normal(size=(4, 6)).astype(np.float32)
    exact = np.exp(logits) / np.sum(np.exp(logits), axis=-1, keepdims=True)
    np.testing.assert_allclose(APPROXIMATE.softmax(logits), exact, atol=0.03)


def test_approx_squash_norm_below_one():
    vectors = np.random.default_rng(2).normal(size=(10, 16)).astype(np.float32) * 5
    squashed = APPROXIMATE.squash(vectors)
    norms = np.linalg.norm(squashed, axis=-1)
    assert np.all(norms <= 1.0 + 1e-3)


def test_approx_squash_preserves_direction():
    vectors = np.random.default_rng(3).normal(size=(10, 8)).astype(np.float32)
    squashed = APPROXIMATE.squash(vectors)
    cos = np.sum(vectors * squashed, axis=-1) / (
        np.linalg.norm(vectors, axis=-1) * np.linalg.norm(squashed, axis=-1) + 1e-12
    )
    assert np.all(cos > 0.99)
