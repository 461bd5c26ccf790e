"""Bit-exactness regression tests for the vectorized CapsNet kernels.

Every optimized kernel in :mod:`repro.capsnet.kernels` must produce
*bit-identical* FP32 output to the naive formulation it replaced -- the
golden Table-5 reports depend on it.  These tests therefore assert
``np.array_equal`` (never ``allclose``) against naive reference
implementations, across a grid of geometries covering everything the
experiments instantiate (stride/padding/kernel combinations, the Table-5
class counts, ragged final batches).

The einsum operand-relayout tricks are *empirical* bit-stability findings,
not documented numpy guarantees; if a numpy upgrade ever changes an inner
loop, these tests are the tripwire.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.capsnet import kernels
from repro.capsnet.datasets import DATASET_SPECS
from repro.capsnet.layers import Conv2D
from repro.capsnet.model import TRUNK_IMAGES, CapsNet
from repro.experiments.table05_accuracy import _scaled_config_for


# ---------------------------------------------------------------------------
# Naive reference implementations (the formulations the kernels replaced).
# ---------------------------------------------------------------------------


def naive_im2col(x, kernel, stride, padding):
    """Patch extraction with explicit Python loops."""
    batch, channels, height, width = x.shape
    kh, kw = kernel
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    cols = np.zeros((batch, out_h * out_w, channels * kh * kw), dtype=np.float32)
    for b in range(batch):
        patch = 0
        for i in range(out_h):
            for j in range(out_w):
                window = x[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                cols[b, patch] = window.reshape(-1)
                patch += 1
    return cols, (out_h, out_w)


def naive_col2im(cols, input_shape, kernel, stride, padding):
    """The historical double loop over kernel offsets (strided adds)."""
    batch, channels, height, width = input_shape
    kh, kw = kernel
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=np.float32
    )
    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += (
                cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def naive_predict_vectors(u, weight):
    return np.einsum("bld,ljdh->bljh", u, weight).astype(np.float32)


def naive_weighted_sum(u_hat, c):
    if c.ndim == 2:
        weighted = u_hat * c[np.newaxis, :, :, np.newaxis]
    else:
        weighted = u_hat * c[:, :, :, np.newaxis]
    return np.sum(weighted, axis=1, dtype=np.float32)


def naive_agreement(u_hat, v):
    return np.einsum("bljh,bjh->blj", u_hat, v).astype(np.float32)


def naive_grad_u_hat(grad_s, c):
    if c.ndim == 2:
        return grad_s[:, np.newaxis, :, :] * c[np.newaxis, :, :, np.newaxis]
    return grad_s[:, np.newaxis, :, :] * c[:, :, :, np.newaxis]


def naive_weight_gradient(u, grad_u_hat):
    return np.einsum("bld,bljh->ljdh", u, np.ascontiguousarray(grad_u_hat)).astype(np.float32)


def naive_input_gradient(grad_u_hat, weight):
    return np.einsum("bljh,ljdh->bld", np.ascontiguousarray(grad_u_hat), weight).astype(
        np.float32
    )


# ---------------------------------------------------------------------------
# Geometry grids
# ---------------------------------------------------------------------------

#: Convolution geometries: everything Table 5 instantiates (9x9 kernels at
#: strides 1/2 on 28x28 / 32x32 inputs and their conv outputs) plus odd
#: stride/padding/kernel combinations for coverage.
CONV_GEOMETRIES = [
    # (batch, channels, height, width, kernel, stride, padding)
    (2, 1, 28, 28, 9, 1, 0),
    (2, 3, 32, 32, 9, 1, 0),
    (2, 24, 20, 20, 9, 2, 0),
    (2, 24, 24, 24, 9, 2, 0),
    (3, 2, 11, 13, 3, 2, 1),
    (1, 4, 7, 7, 3, 1, 1),
    (4, 1, 9, 8, 2, 3, 0),
    (2, 5, 10, 10, 5, 2, 2),
    (2, 3, 6, 6, 1, 1, 0),
]

#: The Table-5 convolutions at the training batch (16) and at a ragged last
#: batch (EMNIST-BALANCED trains 376 = 23 x 16 + 8 images), with the output
#: channel count of their layer: conv1 on 28x28 / 32x32 inputs (24 channels)
#: and PrimaryCaps (2 capsule channels x 8D = 16 channels).
TABLE5_CONV_GEOMETRIES = [
    # (batch, channels, height, width, kernel, stride, padding, out_channels)
    (16, 1, 28, 28, 9, 1, 0, 24),
    (16, 3, 32, 32, 9, 1, 0, 24),
    (16, 24, 20, 20, 9, 2, 0, 16),
    (16, 24, 24, 24, 9, 2, 0, 16),
    (8, 24, 20, 20, 9, 2, 0, 16),
]

#: Every convolution the reused-buffer gates cover (7 output channels for
#: the coverage geometries).
BUFFER_GEOMETRIES = [(*geometry, 7) for geometry in CONV_GEOMETRIES] + TABLE5_CONV_GEOMETRIES

#: Capsule contraction shapes: the Table-5 models (L in {72, 128}, J in
#: {10, 26, 47, 62}) plus small odd shapes; batch 16 (training), 64 (eval)
#: and ragged remainders.
CAPSULE_SHAPES = [
    # (batch, num_low, num_high, low_dim, high_dim)
    (16, 72, 10, 8, 16),
    (16, 128, 10, 8, 16),
    (16, 72, 26, 8, 16),
    (16, 72, 47, 8, 16),
    (16, 72, 62, 8, 16),
    (64, 72, 10, 8, 16),
    (8, 72, 62, 8, 16),
    (3, 5, 4, 8, 16),
    (2, 7, 3, 4, 6),
    (1, 1, 1, 1, 1),
]


def _capsule_operands(shape, seed):
    batch, num_low, num_high, low_dim, high_dim = shape
    rng = np.random.default_rng(seed)
    u = (rng.standard_normal((batch, num_low, low_dim)) * 0.3).astype(np.float32)
    weight = (rng.standard_normal((num_low, num_high, low_dim, high_dim)) * 0.05).astype(
        np.float32
    )
    u_hat = (rng.standard_normal((batch, num_low, num_high, high_dim)) * 0.2).astype(np.float32)
    v = (rng.standard_normal((batch, num_high, high_dim)) * 0.2).astype(np.float32)
    grad_s = (rng.standard_normal((batch, num_high, high_dim)) * 0.1).astype(np.float32)
    c_shared = rng.random((num_low, num_high), dtype=np.float32)
    c_batched = rng.random((batch, num_low, num_high), dtype=np.float32)
    return u, weight, u_hat, v, grad_s, c_shared, c_batched


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
def test_im2col_bit_exact_vs_naive(geometry):
    batch, channels, height, width, kernel, stride, padding = geometry
    x = np.random.default_rng(hash(geometry) % 2**32).standard_normal(
        (batch, channels, height, width)
    ).astype(np.float32)
    fast, hw_fast = kernels.im2col(x, (kernel, kernel), stride, padding)
    ref, hw_ref = naive_im2col(x, (kernel, kernel), stride, padding)
    assert hw_fast == hw_ref
    assert np.array_equal(fast, ref)


@pytest.mark.parametrize("geometry", CONV_GEOMETRIES)
def test_col2im_bit_exact_vs_naive_loop(geometry):
    batch, channels, height, width, kernel, stride, padding = geometry
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    rng = np.random.default_rng(hash(geometry) % 2**31)
    cols = (
        rng.standard_normal((batch, out_h * out_w, channels * kernel * kernel)) * 0.5
    ).astype(np.float32)
    fast = kernels.col2im(cols, (batch, channels, height, width), (kernel, kernel), stride, padding)
    ref = naive_col2im(cols, (batch, channels, height, width), (kernel, kernel), stride, padding)
    # Overlapping contributions make the accumulation *order* observable in
    # the low bits; array_equal (not allclose) is the whole point.
    assert np.array_equal(fast, ref)


def _buffer_case(geometry, seed):
    """Input, column gradient and ``(out_h, out_w)`` for one buffer geometry."""
    batch, channels, height, width, kernel, stride, padding, _ = geometry
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    rng = np.random.default_rng([seed, *geometry])
    x = rng.standard_normal((batch, channels, height, width)).astype(np.float32)
    cols = (rng.standard_normal((batch, out_h * out_w, channels * kernel * kernel)) * 0.5).astype(
        np.float32
    )
    return x, cols, (out_h, out_w)


@pytest.mark.parametrize("geometry", BUFFER_GEOMETRIES)
def test_im2col_through_a_reused_buffer_is_bit_exact(geometry):
    *_, kernel, stride, padding, _ = geometry
    _, cols, (out_h, out_w) = _buffer_case(geometry, 1)
    buffer = np.full(cols.shape, np.nan, dtype=np.float32)
    # The second call writes different data over the first one's columns.
    for seed in (1, 2):
        x, _, _ = _buffer_case(geometry, seed)
        reused, hw = kernels.im2col(x, (kernel, kernel), stride, padding, out=buffer)
        assert reused is buffer and hw == (out_h, out_w)
        fresh, _ = kernels.im2col(x, (kernel, kernel), stride, padding)
        ref, _ = naive_im2col(x, (kernel, kernel), stride, padding)
        assert np.array_equal(reused, fresh)
        assert np.array_equal(reused, ref)


@pytest.mark.parametrize("geometry", BUFFER_GEOMETRIES)
def test_col2im_through_reused_buffers_is_bit_exact(geometry):
    batch, channels, height, width, kernel, stride, padding, _ = geometry
    shape = (batch, channels, height, width)
    _, _, (out_h, out_w) = _buffer_case(geometry, 1)
    indices = kernels.col2im_indices(shape[1:], (kernel, kernel), stride, padding)
    contributions = np.full((channels * kernel * kernel, out_h * out_w), np.nan, np.float32)
    padded = np.full((batch, channels, height + 2 * padding, width + 2 * padding), np.nan, np.float32)
    for seed in (1, 2):
        _, cols, _ = _buffer_case(geometry, seed)
        reused = kernels.col2im(
            cols,
            shape,
            (kernel, kernel),
            stride,
            padding,
            indices=indices,
            contributions=contributions,
            padded=padded,
        )
        assert np.shares_memory(reused, padded)
        fresh = kernels.col2im(cols, shape, (kernel, kernel), stride, padding)
        assert np.array_equal(reused, fresh)
        assert np.array_equal(reused, naive_col2im(cols, shape, (kernel, kernel), stride, padding))


@pytest.mark.parametrize("geometry", BUFFER_GEOMETRIES)
def test_grad_cols_matmul_into_a_buffer_is_bit_exact(geometry):
    """Conv2D.backward's per-image product and fold give the bits of the naive fold.

    Each image's ``np.matmul(weight.T, grad_cols_out[b].T, out=)`` must equal
    the transpose of ``(grad_cols_out @ weight)[b]``, and the fold through
    ``col2im(..., weight=)`` the naive double loop over that product.
    """
    batch, channels, height, width, kernel, stride, padding, out_channels = geometry
    shape = (batch, channels, height, width)
    _, cols, (out_h, out_w) = _buffer_case(geometry, 1)
    buffer = np.full((channels * kernel * kernel, out_h * out_w), np.nan, dtype=np.float32)
    padded = np.full((batch, channels, height + 2 * padding, width + 2 * padding), np.nan, np.float32)
    indices = kernels.col2im_indices(shape[1:], (kernel, kernel), stride, padding)
    for seed in (1, 2):
        rng = np.random.default_rng([seed, *geometry])
        grad_cols_out = rng.standard_normal((batch, out_h * out_w, out_channels)).astype(np.float32)
        weight = rng.standard_normal((out_channels, channels * kernel * kernel)).astype(np.float32)
        product = grad_cols_out @ weight
        for b in range(batch):
            reused = np.matmul(weight.T, grad_cols_out[b].T, out=buffer)
            assert reused is buffer
            assert np.array_equal(reused, product[b].T)
        folded = kernels.col2im(
            grad_cols_out,
            shape,
            (kernel, kernel),
            stride,
            padding,
            weight=weight,
            indices=indices,
            contributions=buffer,
            padded=padded,
        )
        assert np.array_equal(
            folded, naive_col2im(product, shape, (kernel, kernel), stride, padding)
        )


def _conv_step(conv, x, grad):
    """One forward/backward through the layer, and the same step from fresh kernels."""
    conv.zero_grads()
    out = conv.forward(x)
    grad_input = conv.backward(grad).copy()
    kernel = (conv.kernel_size, conv.kernel_size)
    cols, (out_h, out_w) = kernels.im2col(x, kernel, conv.stride, conv.padding)
    weight = conv.params["weight"].reshape(conv.out_channels, -1)
    expected_out = (cols @ weight.T + conv.params["bias"]).reshape(
        x.shape[0], out_h, out_w, -1
    ).transpose(0, 3, 1, 2)
    grad_cols_out = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(
        x.shape[0], out_h * out_w, -1
    )
    expected_input = naive_col2im(
        grad_cols_out @ weight, x.shape, kernel, conv.stride, conv.padding
    )
    expected_weight = np.einsum("bpo,bpk->ok", grad_cols_out, cols)
    assert np.array_equal(out, expected_out)
    assert np.array_equal(grad_input, expected_input)
    assert np.array_equal(conv.grads["weight"].reshape(conv.out_channels, -1), expected_weight)


def test_col2im_index_cache_is_reused_and_correct():
    """The scatter indices live on the layer, one entry per image shape."""
    rng = np.random.default_rng(0)
    conv = Conv2D(3, 5, kernel_size=3, stride=2, padding=1, rng=rng)
    full, ragged = (2, 3, 12, 12), (1, 3, 12, 12)

    def step(shape):
        x = rng.standard_normal(shape).astype(np.float32)
        grad = rng.standard_normal((shape[0], 5, 6, 6)).astype(np.float32)
        _conv_step(conv, x, grad)

    step(full)
    indices = conv._workspace[("indices", (3, 12, 12))]
    assert indices.shape == (3 * 3 * 3 * 6 * 6,)
    step(full)
    # An epoch's smaller last batch folds through the same indices.
    step(ragged)
    step(full)
    index_keys = [key for key in conv._workspace if isinstance(key, tuple)]
    assert index_keys == [("indices", (3, 12, 12))]
    assert conv._workspace[("indices", (3, 12, 12))] is indices
    conv.release()
    assert not conv._workspace and conv._cache is None


def test_im2col_col2im_round_trip_counts_contributions():
    # col2im(im2col(x)) multiplies each pixel by its contribution count; with
    # all-ones input that count is directly visible and integer-exact.
    x = np.ones((1, 1, 6, 6), dtype=np.float32)
    cols, _ = kernels.im2col(x, (3, 3), 1, 0)
    folded = kernels.col2im(cols, (1, 1, 6, 6), (3, 3), 1, 0)
    assert folded[0, 0, 0, 0] == 1.0  # corner: one window
    assert folded[0, 0, 3, 3] == 9.0  # interior: all nine offsets


# ---------------------------------------------------------------------------
# Evaluation trunk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dataset", sorted(DATASET_SPECS))
@pytest.mark.parametrize("batch", [64, 40, TRUNK_IMAGES, 7])
def test_sliced_trunk_is_bit_exact_vs_the_whole_batch(dataset, batch):
    """``primary_pre_squash`` convolves slices; every image keeps its whole-batch bits.

    Batch 64 is Table 5's evaluation batch, 40 a ragged one.
    """
    spec = DATASET_SPECS[dataset]
    model = CapsNet(_scaled_config_for(spec.name, spec.num_classes, spec.image_shape), seed=3)
    images = np.random.default_rng([batch, spec.num_classes]).random(
        (batch, *spec.image_shape), dtype=np.float32
    )
    whole = model.primary.capsules_pre_squash(
        model.primary.conv.infer(model.relu.infer(model.conv.infer(images)))
    )
    sliced = model.primary_pre_squash(images)
    assert sliced.shape == whole.shape
    assert np.array_equal(sliced, whole)


# ---------------------------------------------------------------------------
# Capsule contractions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", CAPSULE_SHAPES)
@pytest.mark.parametrize("seed", [1, 2])
def test_predict_vectors_bit_exact(shape, seed):
    u, weight, *_ = _capsule_operands(shape, seed)
    assert np.array_equal(kernels.predict_vectors(u, weight), naive_predict_vectors(u, weight))


@pytest.mark.parametrize("shape", CAPSULE_SHAPES)
@pytest.mark.parametrize("seed", [1, 2])
def test_weighted_sum_bit_exact_shared_and_batched(shape, seed):
    _, _, u_hat, _, _, c_shared, c_batched = _capsule_operands(shape, seed)
    assert np.array_equal(kernels.weighted_sum(u_hat, c_shared), naive_weighted_sum(u_hat, c_shared))
    assert np.array_equal(
        kernels.weighted_sum(u_hat, c_batched), naive_weighted_sum(u_hat, c_batched)
    )


@pytest.mark.parametrize("shape", CAPSULE_SHAPES)
@pytest.mark.parametrize("seed", [1, 2])
def test_agreement_bit_exact(shape, seed):
    _, _, u_hat, v, *_ = _capsule_operands(shape, seed)
    assert np.array_equal(kernels.agreement(u_hat, v), naive_agreement(u_hat, v))


@pytest.mark.parametrize("shape", CAPSULE_SHAPES)
@pytest.mark.parametrize("seed", [1, 2])
def test_capsule_gradients_bit_exact_through_fast_layout(shape, seed):
    """The full backward kernel chain, exactly as CapsuleLayer.backward runs it.

    ``capsule_grad_u_hat`` hands a ``(l, j, b, h)``-contiguous buffer to both
    contractions; the chain's output must match the naive broadcast multiply
    + plain contiguous einsums bit for bit.
    """
    u, weight, _, _, grad_s, c_shared, c_batched = _capsule_operands(shape, seed)
    for c in (c_shared, c_batched):
        fast_buffer = kernels.capsule_grad_u_hat(grad_s, c)
        ref_buffer = naive_grad_u_hat(grad_s, c)
        assert np.array_equal(fast_buffer, ref_buffer)
        assert np.array_equal(
            kernels.capsule_weight_gradient(u, fast_buffer),
            naive_weight_gradient(u, ref_buffer),
        )
        assert np.array_equal(
            kernels.capsule_input_gradient(fast_buffer, weight),
            naive_input_gradient(ref_buffer, weight),
        )


def test_grad_u_hat_buffer_memory_layout():
    shape = (4, 6, 5, 8, 16)
    _, _, _, _, grad_s, c_shared, _ = _capsule_operands(shape, 3)
    buffer = kernels.capsule_grad_u_hat(grad_s, c_shared)
    batch, num_low, num_high, high_dim = 4, 6, 5, 16
    assert buffer.shape == (batch, num_low, num_high, high_dim)
    # Logical (b, l, j, h) view of an (l, j, b, h)-contiguous buffer.
    assert buffer.transpose(1, 2, 0, 3).flags["C_CONTIGUOUS"]


def test_routing_weight_view_is_logically_identical():
    weight = np.random.default_rng(0).standard_normal((6, 5, 8, 16)).astype(np.float32)
    view = kernels.routing_weight_view(weight)
    assert view.shape == weight.shape
    assert np.array_equal(view, weight)
    assert view.transpose(0, 2, 1, 3).flags["C_CONTIGUOUS"]


# ---------------------------------------------------------------------------
# dtype policy
# ---------------------------------------------------------------------------


def test_as_f32_does_not_copy_float32():
    x = np.ones(4, dtype=np.float32)
    assert kernels.as_f32(x) is x


def test_as_f32_converts_other_dtypes():
    x = np.ones(4, dtype=np.float64)
    y = kernels.as_f32(x)
    assert y.dtype == np.float32
    assert np.array_equal(y, x.astype(np.float32))
    assert kernels.as_f32([1.0, 2.0]).dtype == np.float32
