"""Vectorized, bit-exact compute kernels for the functional CapsNet.

The Table-5 accuracy experiments train one small CapsNet per dataset, and
that training dominates a full ``repro reproduce``.  This module collects the
hot inner kernels of :mod:`repro.capsnet.layers` / :mod:`~repro.capsnet.
routing` in one place so they can be optimized (and regression-tested for
bit-exactness) independently of the layer bookkeeping.

**The golden-report constraint.**  The default-scenario Table 5 report must
stay *byte-identical* across refactors, which means every kernel here must
produce bit-identical FP32 outputs to the naive formulation it replaces --
``np.array_equal``, not ``allclose``.  That rules out the obvious BLAS
rewrites: ``matmul``/``tensordot``/``einsum(optimize=True)`` accumulate in a
different order than ``np.einsum``'s direct C loops (blocked FMA vs.
sequential sum-of-products), and were measured to change low bits on every
contraction in this file.  The transforms that *are* applied fall into three
bit-safe classes:

* **Pure data movement** (``im2col`` gathers, the ``col2im`` scatter, layout
  changes): no arithmetic happens, so any faster implementation producing
  the same element values is exact by construction.  The ``col2im`` scatter
  preserves the accumulation *order* of the double loop it replaces
  (contributions arrive per target cell in ``(kh, kw, out_h, out_w)``
  order, which is what :func:`numpy.ufunc.at` guarantees for the
  precomputed index array).
* **Operand memory-layout changes under an unchanged ``einsum``.**
  ``np.einsum``'s direct contraction loops were measured to be
  layout-invariant bit-wise for the subscript/layout pairs used here while
  being up to 3-4x faster on cache-friendly layouts.  This is an empirical
  property, not a documented guarantee, so every pair shipped here is
  locked in by ``tests/capsnet/test_capsnet_kernels.py`` across the full grid of
  geometries the experiments use; layout changes that flipped bits on any
  grid point (e.g. every relayout of ``weight`` in
  :func:`capsule_input_gradient`) were rejected.
* **Algebraically identical re-associations** that keep the per-element
  reduction order (e.g. fusing ``(u_hat * c).sum(axis=1)`` into a single
  ``einsum`` with the same ``l``-major accumulation).

Every public kernel documents the naive formulation it must match; the
regression tests compare against those naive forms directly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.arithmetic.fp32 import as_f32

__all__ = [
    "as_f32",
    "agreement",
    "capsule_grad_u_hat",
    "capsule_input_gradient",
    "capsule_weight_gradient",
    "col2im",
    "col2im_indices",
    "conv_output_size",
    "im2col",
    "predict_vectors",
    "routing_weight_view",
    "weighted_sum",
]


# ---------------------------------------------------------------------------
# Convolution kernels (im2col / col2im)
# ---------------------------------------------------------------------------


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def _buffer(buffer: Optional[np.ndarray], shape: Tuple[int, ...], name: str) -> np.ndarray:
    """``buffer`` checked to hold ``shape`` in place, or a fresh array when ``None``."""
    if buffer is None:
        return np.empty(shape, dtype=np.float32)
    if buffer.shape != shape or buffer.dtype != np.float32 or not buffer.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous float32 array of shape {shape}")
    return buffer


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold image patches into columns.

    Args:
        x: input of shape ``(batch, channels, height, width)``.
        kernel: ``(kh, kw)``.
        stride: stride in both dimensions.
        padding: zero padding in both dimensions.
        out: a C-contiguous float32 array of the columns' shape to write
            them into (a layer's reused workspace); a fresh one when omitted.
            The unfold is pure data movement, so both give the same values.

    Returns:
        ``(columns, (out_h, out_w))`` where columns has shape
        ``(batch, out_h*out_w, channels*kh*kw)``.
    """
    batch, channels, height, width = x.shape
    kh, kw = kernel
    out_h = conv_output_size(height, kh, stride, padding)
    out_w = conv_output_size(width, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    cols = _buffer(out, (batch, out_h * out_w, channels * kh * kw), "im2col out")
    np.copyto(
        cols.reshape(batch, out_h, out_w, channels, kh, kw), windows.transpose(0, 2, 3, 1, 4, 5)
    )
    return cols, (out_h, out_w)


def col2im_indices(
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Flat scatter indices of :func:`col2im`: ``(b, c, kh, kw, oh, ow)`` -> pixel.

    They depend on the geometry alone (batch size included: the last batch
    of an epoch may be smaller), and weigh ~2x the columns they scatter, so
    a layer builds them once per input shape and passes them to every call.
    """
    batch, channels, height, width = input_shape
    kh, kw = kernel
    out_h = conv_output_size(height, kh, stride, padding)
    out_w = conv_output_size(width, kw, stride, padding)
    padded_h = height + 2 * padding
    padded_w = width + 2 * padding
    i = np.arange(kh)[:, None, None, None]
    j = np.arange(kw)[None, :, None, None]
    oh = np.arange(out_h)[None, None, :, None]
    ow = np.arange(out_w)[None, None, None, :]
    spatial = ((i + stride * oh) * padded_w + (j + stride * ow)).reshape(-1)
    planes = np.arange(batch * channels, dtype=np.intp) * (padded_h * padded_w)
    return (planes[:, None] + spatial[None, :]).reshape(-1).astype(np.intp, copy=False)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    *,
    indices: Optional[np.ndarray] = None,
    contributions: Optional[np.ndarray] = None,
    padded: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fold column gradients back into an image gradient (inverse of :func:`im2col`).

    Equivalent to the naive double loop over kernel offsets::

        for i in range(kh):
            for j in range(kw):
                padded[:, :, i:i+stride*oh:stride, j:j+stride*ow:stride] += \
                    cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)

    but as one flat ``np.add.at`` scatter with precomputed indices.  The
    index array enumerates contributions in ``(b, c, kh, kw, oh, ow)`` order
    and ``ufunc.at`` applies them sequentially, so every target pixel
    accumulates its overlapping contributions in exactly the loop's
    ``(i, j)`` order -- the result is bit-identical, not just close.

    A caller that folds the same geometry repeatedly passes its own arrays:
    ``indices`` from :func:`col2im_indices`, ``contributions`` of shape
    ``(batch, channels, kh, kw, out_h, out_w)`` and ``padded`` of shape
    ``(batch, channels, height + 2*padding, width + 2*padding)``, both
    C-contiguous float32.  Each is built fresh when omitted.  The result is
    ``padded`` (or its interior view), so it is overwritten by the next call
    through the same arrays.
    """
    batch, channels, height, width = input_shape
    kh, kw = kernel
    out_h = conv_output_size(height, kh, stride, padding)
    out_w = conv_output_size(width, kw, stride, padding)
    if indices is None:
        indices = col2im_indices(input_shape, kernel, stride, padding)
    ordered = _buffer(
        contributions, (batch, channels, kh, kw, out_h, out_w), "col2im contributions"
    )
    np.copyto(
        ordered, cols.reshape(batch, out_h, out_w, channels, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    )
    image = _buffer(
        padded, (batch, channels, height + 2 * padding, width + 2 * padding), "col2im padded"
    )
    image.fill(0)
    np.add.at(image.reshape(-1), indices, ordered.reshape(-1))
    if padding:
        return image[:, :, padding:-padding, padding:-padding]
    return image


# ---------------------------------------------------------------------------
# Capsule-layer contractions (Eq. 1 and its gradients)
# ---------------------------------------------------------------------------


def routing_weight_view(weight: np.ndarray) -> np.ndarray:
    """The capsule weight ``(l, j, d, h)`` re-laid-out for fast contraction.

    Returns a logically identical array whose *memory* is contiguous in
    ``(l, d, j, h)`` order, which makes :func:`predict_vectors`'s einsum
    ~3.5x faster (measured) while -- verified across the experiment geometry
    grid -- leaving its output bits unchanged.
    """
    return np.ascontiguousarray(weight.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)


def predict_vectors(u: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Prediction vectors ``u_hat = u x W`` (Eq. 1).

    Bit-identical to the naive ``np.einsum("bld,ljdh->bljh", u, weight)``:
    the same einsum runs on a cache-friendly relayout of ``weight``.

    Args:
        u: low-level capsules ``(batch, num_low, low_dim)``.
        weight: transform tensor ``(num_low, num_high, low_dim, high_dim)``.

    Returns:
        ``(batch, num_low, num_high, high_dim)`` float32.
    """
    return np.einsum("bld,ljdh->bljh", u, routing_weight_view(weight))


def weighted_sum(u_hat: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Routing weighted sum ``s_j = sum_i c_ij u_hat_{j|i}`` (Eq. 2).

    Bit-identical to the naive broadcast-multiply-then-sum::

        np.sum(u_hat * c[np.newaxis, :, :, np.newaxis], axis=1, dtype=np.float32)

    (or the per-batch variant for 3-D ``c``), but fused into one einsum that
    never materializes the ``(batch, num_low, num_high, high_dim)``
    temporary and accumulates over ``l`` in the same order.

    Args:
        u_hat: prediction vectors ``(batch, num_low, num_high, high_dim)``.
        coefficients: routing coefficients ``(num_low, num_high)`` (shared
            across the batch) or ``(batch, num_low, num_high)``.
    """
    if coefficients.ndim == 2:
        return np.einsum("bljh,lj->bjh", u_hat, coefficients)
    return np.einsum("bljh,blj->bjh", u_hat, coefficients)


def agreement(u_hat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Routing agreement ``a_ij = v_j . u_hat_{j|i}`` (Eq. 4 inner product).

    The naive einsum is already the fastest bit-stable form (every operand
    relayout measured either slower or bit-different); this wrapper only
    removes the redundant ``astype(np.float32)`` copy the call sites paid.
    """
    return np.einsum("bljh,bjh->blj", u_hat, v)


def capsule_grad_u_hat(grad_s: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Gradient wrt the prediction vectors: ``g_u_hat = c * grad_s`` broadcast.

    Element-wise identical to the naive broadcast multiply, but written into
    a buffer whose *memory* is contiguous in ``(l, j, b, h)`` order -- the
    layout on which both downstream contractions
    (:func:`capsule_weight_gradient`, :func:`capsule_input_gradient`) run
    fastest without changing bits.  Element-wise ops are layout-independent,
    so this needs no empirical gate.

    Args:
        grad_s: squash-input gradient ``(batch, num_high, high_dim)``.
        coefficients: ``(num_low, num_high)`` or ``(batch, num_low, num_high)``.

    Returns:
        Logical ``(batch, num_low, num_high, high_dim)`` float32 (strided).
    """
    batch, num_high, high_dim = grad_s.shape
    num_low = coefficients.shape[-2]
    buffer = np.empty((num_low, num_high, batch, high_dim), dtype=np.float32)
    view = buffer.transpose(2, 0, 1, 3)
    if coefficients.ndim == 2:
        np.multiply(
            grad_s[:, np.newaxis, :, :], coefficients[np.newaxis, :, :, np.newaxis], out=view
        )
    else:
        np.multiply(grad_s[:, np.newaxis, :, :], coefficients[:, :, :, np.newaxis], out=view)
    return view


def capsule_weight_gradient(u: np.ndarray, grad_u_hat: np.ndarray) -> np.ndarray:
    """Weight gradient ``dL/dW = sum_b u_i (x) g_u_hat_ij`` of Eq. 1.

    Bit-identical to ``np.einsum("bld,bljh->ljdh", u, grad_u_hat)``; the
    speedup comes from relaying ``u`` out ``(l, b, d)``-contiguous and from
    ``grad_u_hat`` arriving ``(l, j, b, h)``-contiguous from
    :func:`capsule_grad_u_hat` (both verified bit-stable on the grid).
    """
    u_fast = np.ascontiguousarray(u.transpose(1, 0, 2)).transpose(1, 0, 2)
    return np.einsum("bld,bljh->ljdh", u_fast, grad_u_hat)


def capsule_input_gradient(grad_u_hat: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Input gradient ``dL/du = sum_jh g_u_hat_ij W_ij`` of Eq. 1.

    Bit-identical to ``np.einsum("bljh,ljdh->bld", grad_u_hat, weight)``.
    Every relayout of ``weight`` changed output bits on some grid geometry
    (rejected); the only shipped optimization is that ``grad_u_hat`` arrives
    ``(l, j, b, h)``-contiguous, which the grid tests lock in.
    """
    return np.einsum("bljh,ljdh->bld", grad_u_hat, weight)
