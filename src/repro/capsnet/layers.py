"""Neural network layers for the CapsNet functional model.

The layers implement both forward and backward passes with plain numpy so
that the accuracy experiments (Table 5 of the paper) can train small
CapsNets end-to-end without any deep learning framework.  The backward pass
of the capsule layer follows the common practice of treating the final
routing coefficients as constants (gradients flow through the prediction
vectors and the squash non-linearity).

All layers follow a minimal protocol:

* ``forward(x)`` stores whatever is needed for the backward pass and returns
  the output,
* ``backward(grad)`` returns the gradient with respect to the input and
  accumulates parameter gradients in ``grads``,
* ``params`` / ``grads`` are dictionaries keyed by parameter name,
* ``release()`` drops what ``forward`` stored and the arrays the layer
  reuses from one training step to the next (its workspace).

The layers on the inference path (:class:`Conv2D`, :class:`ReLU` and
:class:`CapsuleLayer`) also have ``infer(x)``: the same output from the same
operations in the same order, keeping nothing for a backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.arithmetic.context import MathContext
from repro.capsnet import functions as F
from repro.capsnet import kernels
from repro.capsnet.kernels import as_f32
from repro.capsnet.routing import DynamicRouting, RoutingResult


class Layer:
    """Base class providing parameter bookkeeping for trainable layers.

    ``_cache`` holds what the last ``forward`` kept for ``backward``;
    ``_workspace`` holds the large arrays a layer reuses across training
    steps instead of allocating them per step.  Both belong to the layer
    instance, so two models (or two threads) never share them.
    """

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self._cache: Any = None
        self._workspace: Dict[Hashable, np.ndarray] = {}

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def zero_grads(self) -> None:
        """Reset accumulated parameter gradients."""
        for name, value in self.params.items():
            self.grads[name] = np.zeros_like(value)

    def release(self) -> None:
        """Drop the backward cache and the workspace; parameters and gradients stay."""
        self._cache = None
        self._workspace.clear()

    def _buffer(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Workspace array ``name``, reused while its ``shape`` stays the same."""
        buffer = self._workspace.get(name)
        if buffer is None or buffer.shape != shape:
            buffer = self._workspace[name] = np.empty(shape, dtype=np.float32)
        return buffer

    @property
    def parameter_count(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))


# ---------------------------------------------------------------------------
# im2col helpers
# ---------------------------------------------------------------------------


#: Re-exported from :mod:`repro.capsnet.kernels` (their historical home);
#: the vectorized implementations live there next to their bit-exactness
#: documentation and regression tests.
conv_output_size = kernels.conv_output_size
im2col = kernels.im2col
col2im = kernels.col2im


# ---------------------------------------------------------------------------
# Standard layers
# ---------------------------------------------------------------------------


class Conv2D(Layer):
    """2-D convolution layer (NCHW layout) backed by im2col.

    Args:
        in_channels: input channel count.
        out_channels: output channel count.
        kernel_size: square kernel size.
        stride: stride in both dimensions.
        padding: zero padding in both dimensions.
        rng: RNG used for He-uniform weight initialization.
        init_weights: set to False to skip parameter allocation entirely --
            the caller then shares another layer's ``params``
            (:meth:`repro.capsnet.model.CapsNet.with_context`).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
        init_weights: bool = True,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) < 1:
            raise ValueError("Conv2D dimensions must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        if init_weights:
            rng = rng or np.random.default_rng(0)
            fan_in = in_channels * kernel_size * kernel_size
            bound = float(np.sqrt(6.0 / fan_in))
            self.params["weight"] = rng.uniform(
                -bound, bound, size=(out_channels, in_channels, kernel_size, kernel_size)
            ).astype(np.float32)
            self.params["bias"] = np.zeros(out_channels, dtype=np.float32)
            self.zero_grads()

    def _checked(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (batch, {self.in_channels}, H, W), got {x.shape}"
            )
        return x

    def _convolve(self, cols: np.ndarray, batch: int, out_h: int, out_w: int) -> np.ndarray:
        weight = self.params["weight"].reshape(self.out_channels, -1)
        # The PR 1 golden outputs were generated with `@`; swapping kernels in
        # this seed-era path would change trained weights bit-for-bit and
        # invalidate every golden report, so these sites are allowed as-is.
        out = cols @ weight.T + self.params["bias"]  # repro: allow(RPR-D002)
        out = out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(out, dtype=np.float32)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The convolution of ``x``; its columns are freed when it returns."""
        x = self._checked(x)
        cols, (out_h, out_w) = im2col(
            x, (self.kernel_size, self.kernel_size), self.stride, self.padding
        )
        return self._convolve(cols, x.shape[0], out_h, out_w)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """:meth:`infer`, with the columns kept in the workspace for :meth:`backward`.

        The columns buffer is reused while the input shape stays the same:
        once the previous step's backward has run, its columns are dead.
        """
        x = self._checked(x)
        _, out_h, out_w = self.output_shape(x.shape[2:])
        columns = self._buffer(
            "columns", (x.shape[0], out_h * out_w, self.in_channels * self.kernel_size**2)
        )
        cols, _ = im2col(
            x, (self.kernel_size, self.kernel_size), self.stride, self.padding, out=columns
        )
        self._cache = (cols, (out_h, out_w), x.shape)
        return self._convolve(cols, x.shape[0], out_h, out_w)

    def backward(
        self, grad: np.ndarray, compute_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Accumulate parameter gradients; return the input gradient.

        Args:
            grad: output gradient ``(batch, out_channels, out_h, out_w)``.
            compute_input_grad: pass ``False`` when this is the model's first
                layer -- the ``col2im`` fold producing the input gradient is
                the single most expensive backward kernel and its result
                would be discarded (``None`` is returned instead).

        The input gradient is folded into the layer's workspace, so it is
        valid until the next ``backward`` call.
        """
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, (out_h, out_w), input_shape = self._cache
        grad = np.asarray(grad, dtype=np.float32)
        grad_cols_out = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(
            input_shape[0], out_h * out_w, -1
        )
        weight = self.params["weight"].reshape(self.out_channels, -1)
        self.grads["weight"] += (
            np.einsum("bpo,bpk->ok", grad_cols_out, cols).reshape(self.params["weight"].shape)
        )
        self.grads["bias"] += grad_cols_out.sum(axis=(0, 1))
        if not compute_input_grad:
            return None
        # `out=` writes the bits `grad_cols_out @ weight` returns (the kernel
        # tests gate it); the seed-era exemption of `_convolve` still applies.
        grad_cols = np.matmul(  # repro: allow(RPR-D002)
            grad_cols_out, weight, out=self._buffer("grad_cols", cols.shape)
        )
        batch, channels, height, width = input_shape
        kernel = (self.kernel_size, self.kernel_size)
        # Scatter indices are kept per input shape (an epoch's last batch
        # may be smaller); the other buffers follow the current shape.
        key = ("indices", input_shape)
        indices = self._workspace.get(key)
        if indices is None:
            indices = self._workspace[key] = kernels.col2im_indices(
                input_shape, kernel, self.stride, self.padding
            )
        pad = 2 * self.padding
        return col2im(
            grad_cols,
            input_shape,
            kernel,
            self.stride,
            self.padding,
            indices=indices,
            contributions=self._buffer(
                "contributions", (batch, channels, *kernel, out_h, out_w)
            ),
            padded=self._buffer("padded", (batch, channels, height + pad, width + pad)),
        )

    def output_shape(self, input_hw: Tuple[int, int]) -> Tuple[int, int, int]:
        """Return ``(out_channels, out_h, out_w)`` for a given input size."""
        out_h = conv_output_size(input_hw[0], self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(input_hw[1], self.kernel_size, self.stride, self.padding)
        return self.out_channels, out_h, out_w


class ReLU(Layer):
    """Element-wise rectified linear unit."""

    def infer(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        return x * (x > 0).astype(np.float32)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._cache = (x > 0).astype(np.float32)
        return x * self._cache

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad, dtype=np.float32) * self._cache


class Sigmoid(Layer):
    """Element-wise logistic sigmoid."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = F.sigmoid(x)
        return self._cache

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad, dtype=np.float32) * F.sigmoid_grad(self._cache)


class Flatten(Layer):
    """Flatten all dimensions except the batch dimension."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad, dtype=np.float32).reshape(self._cache)


class Dense(Layer):
    """Fully connected layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        init_weights: bool = True,
    ) -> None:
        super().__init__()
        if min(in_features, out_features) < 1:
            raise ValueError("Dense dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        if init_weights:
            rng = rng or np.random.default_rng(0)
            bound = float(np.sqrt(6.0 / in_features))
            self.params["weight"] = rng.uniform(
                -bound, bound, size=(in_features, out_features)
            ).astype(np.float32)
            self.params["bias"] = np.zeros(out_features, dtype=np.float32)
            self.zero_grads()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected input (batch, {self.in_features}), got {x.shape}")
        self._cache = x
        # Same seed-era golden-path exemption as Conv2D._convolve above.
        return x @ self.params["weight"] + self.params["bias"]  # repro: allow(RPR-D002)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad, dtype=np.float32)
        self.grads["weight"] += self._cache.T @ grad  # repro: allow(RPR-D002)
        self.grads["bias"] += grad.sum(axis=0)
        return grad @ self.params["weight"].T  # repro: allow(RPR-D002)


# ---------------------------------------------------------------------------
# Capsule layers
# ---------------------------------------------------------------------------


def _squash_backward(s: np.ndarray, v_grad: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient of the squash non-linearity with respect to its input ``s``."""
    s = np.asarray(s, dtype=np.float32)
    v_grad = np.asarray(v_grad, dtype=np.float32)
    norm_sq = np.sum(s * s, axis=axis, keepdims=True, dtype=np.float32) + np.float32(1e-12)
    norm = np.sqrt(norm_sq)
    g = norm / (1.0 + norm_sq)
    g_prime = (1.0 - norm_sq) / (1.0 + norm_sq) ** 2
    dot = np.sum(s * v_grad, axis=axis, keepdims=True, dtype=np.float32)
    return as_f32(g * v_grad + (g_prime / norm) * dot * s)


class PrimaryCaps(Layer):
    """PrimaryCaps layer: convolution + capsule grouping + squash.

    A convolution produces ``capsule_channels * capsule_dim`` feature maps;
    the activations at each spatial location are grouped into
    ``capsule_channels`` capsules of ``capsule_dim`` elements each and passed
    through the squash non-linearity.

    Args:
        in_channels: channels of the incoming feature map.
        capsule_channels: number of capsule types (32 in CapsNet-MNIST).
        capsule_dim: dimensionality of each low-level capsule (8).
        kernel_size: convolution kernel size (9).
        stride: convolution stride (2).
        rng: RNG for weight initialization.
        context: arithmetic used by the squash.
    """

    def __init__(
        self,
        in_channels: int,
        capsule_channels: int,
        capsule_dim: int,
        kernel_size: int = 9,
        stride: int = 2,
        rng: Optional[np.random.Generator] = None,
        context: Optional[MathContext] = None,
        init_weights: bool = True,
    ) -> None:
        super().__init__()
        self.capsule_channels = capsule_channels
        self.capsule_dim = capsule_dim
        self.context = context or MathContext.exact()
        self.conv = Conv2D(
            in_channels,
            capsule_channels * capsule_dim,
            kernel_size,
            stride=stride,
            padding=0,
            rng=rng,
            init_weights=init_weights,
        )
        self.params = self.conv.params
        self.grads = self.conv.grads

    def release(self) -> None:
        super().release()
        self.conv.release()

    def capsules_pre_squash(self, features: np.ndarray) -> np.ndarray:
        """Group conv feature maps into capsules (the pre-squash trunk output).

        Exposed separately from :meth:`forward` so multi-context evaluation
        can share the (context-independent) convolution trunk and apply only
        the context-dependent squash per arithmetic context.
        """
        batch, channels, height, width = features.shape
        capsules = features.reshape(
            batch, self.capsule_channels, self.capsule_dim, height, width
        )
        return capsules.transpose(0, 1, 3, 4, 2).reshape(batch, -1, self.capsule_dim)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return low-level capsules of shape ``(batch, num_capsules, capsule_dim)``."""
        features = self.conv.forward(x)
        capsules = self.capsules_pre_squash(features)
        self._cache = (capsules, features.shape)
        return self.context.squash(capsules, axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        pre_squash, (batch, channels, height, width) = self._cache
        grad_pre = _squash_backward(pre_squash, np.asarray(grad, dtype=np.float32))
        grad_features = grad_pre.reshape(
            batch, self.capsule_channels, height, width, self.capsule_dim
        ).transpose(0, 1, 4, 2, 3).reshape(batch, channels, height, width)
        return self.conv.backward(grad_features)

    def num_capsules(self, input_hw: Tuple[int, int]) -> int:
        """Number of low-level capsules produced for a given input size."""
        _, out_h, out_w = self.conv.output_shape(input_hw)
        return self.capsule_channels * out_h * out_w


class CapsuleLayer(Layer):
    """Fully connected capsule layer with a routing procedure.

    Implements Eq. (1) (prediction vectors ``u_hat = u x W``) followed by the
    routing procedure (Eqs. 2-5) provided by ``routing``.

    Args:
        num_low: number of incoming low-level capsules.
        num_high: number of outgoing high-level capsules (classes).
        low_dim: dimensionality of low-level capsules.
        high_dim: dimensionality of high-level capsules.
        routing: routing procedure instance (``DynamicRouting`` by default).
        rng: RNG for weight initialization.
    """

    def __init__(
        self,
        num_low: int,
        num_high: int,
        low_dim: int,
        high_dim: int,
        routing: Optional[DynamicRouting] = None,
        rng: Optional[np.random.Generator] = None,
        init_weights: bool = True,
    ) -> None:
        super().__init__()
        if min(num_low, num_high, low_dim, high_dim) < 1:
            raise ValueError("capsule layer dimensions must be positive")
        self.num_low = num_low
        self.num_high = num_high
        self.low_dim = low_dim
        self.high_dim = high_dim
        self.routing = routing or DynamicRouting()
        if init_weights:
            rng = rng or np.random.default_rng(0)
            self.params["weight"] = (
                rng.standard_normal((num_low, num_high, low_dim, high_dim)) * 0.05
            ).astype(np.float32)
            self.zero_grads()

    def _route(self, low_capsules: np.ndarray) -> Tuple[np.ndarray, np.ndarray, RoutingResult]:
        """``(u, u_hat, routing result)`` for ``(batch, num_low, low_dim)`` capsules."""
        u = np.asarray(low_capsules, dtype=np.float32)
        if u.ndim != 3 or u.shape[1] != self.num_low or u.shape[2] != self.low_dim:
            raise ValueError(
                f"expected input (batch, {self.num_low}, {self.low_dim}), got {u.shape}"
            )
        # Eq. 1: u_hat_{j|i} = u_i x W_ij
        u_hat = kernels.predict_vectors(u, self.params["weight"])
        return u, u_hat, self.routing(u_hat)

    def infer(self, low_capsules: np.ndarray) -> np.ndarray:
        """High-level capsules, without keeping the prediction vectors."""
        return self._route(low_capsules)[2].high_capsules

    def forward(self, low_capsules: np.ndarray) -> np.ndarray:
        """Route low-level capsules to high-level capsules.

        Args:
            low_capsules: ``(batch, num_low, low_dim)``.

        Returns:
            High-level capsules ``(batch, num_high, high_dim)``.
        """
        self._cache = self._route(low_capsules)
        return self._cache[2].high_capsules

    @property
    def last_routing_result(self) -> Optional[RoutingResult]:
        """Routing diagnostics of the most recent forward pass."""
        return None if self._cache is None else self._cache[2]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        u, u_hat, result = self._cache
        grad = np.asarray(grad, dtype=np.float32)
        c = result.coefficients
        # The squash backward needs s_j; the routing pass already computed it
        # for its final iteration (s = sum_i c_ij u_hat_ij with exactly these
        # coefficients), so reuse the cached value instead of recomputing the
        # weighted sum.
        s = result.pre_squash
        if s is None:  # routing implementations that do not expose s
            s = kernels.weighted_sum(u_hat, c)
        grad_s = _squash_backward(s, grad)
        # s_j = sum_i c_ij u_hat_ij  (c treated as constant).
        grad_u_hat = kernels.capsule_grad_u_hat(grad_s, c)
        # u_hat = einsum('bld,ljdh->bljh', u, W)
        self.grads["weight"] += kernels.capsule_weight_gradient(u, grad_u_hat)
        return kernels.capsule_input_gradient(grad_u_hat, self.params["weight"])
