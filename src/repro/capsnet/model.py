"""The CapsNet model: encoder (Conv -> PrimaryCaps -> class capsules) + decoder.

The structure follows Fig. 2 of the paper (the CapsNet-MNIST architecture of
Sabour et al.): a 9x9 convolution with 256 channels, a PrimaryCaps layer of
32 capsule channels x 8D capsules, a class-capsule layer of 16D capsules (one
per class) connected through the routing procedure, and a 3-layer fully
connected decoder (512 -> 1024 -> #pixels) for reconstruction.

``CapsNetConfig.scaled`` produces smaller-but-identically-shaped models so
functional tests and the offline accuracy experiments finish quickly; the
performance experiments never execute this functional model at full size --
they use the analytic workload models in :mod:`repro.workloads`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arithmetic.context import MathContext
from repro.arithmetic.fp32 import as_f32
from repro.capsnet import functions as F
from repro.capsnet.layers import (
    CapsuleLayer,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    PrimaryCaps,
    ReLU,
    Sigmoid,
)
from repro.capsnet.routing import DynamicRouting


@dataclass(frozen=True)
class DecoderConfig:
    """Configuration of the fully connected reconstruction decoder."""

    hidden_sizes: Tuple[int, ...] = (512, 1024)

    def layer_sizes(self, input_size: int, output_size: int) -> List[Tuple[int, int]]:
        """Return ``(in, out)`` pairs for each dense layer of the decoder."""
        sizes = [input_size, *self.hidden_sizes, output_size]
        return [(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]


@dataclass(frozen=True)
class CapsNetConfig:
    """Architecture hyper-parameters of a CapsNet.

    Attributes:
        input_shape: input image shape ``(channels, height, width)``.
        num_classes: number of output classes (= number of high-level capsules).
        conv_channels: channels of the first convolution (256 in the paper).
        conv_kernel: kernel size of the first convolution (9).
        conv_stride: stride of the first convolution (1).
        primary_channels: PrimaryCaps capsule channels (32).
        primary_dim: dimensionality of low-level capsules (8).
        primary_kernel: PrimaryCaps convolution kernel (9).
        primary_stride: PrimaryCaps convolution stride (2).
        class_caps_dim: dimensionality of high-level capsules (16).
        routing_iterations: dynamic routing iterations (3 by default).
        decoder: decoder configuration.
        use_decoder: whether to instantiate the reconstruction decoder.
    """

    input_shape: Tuple[int, int, int] = (1, 28, 28)
    num_classes: int = 10
    conv_channels: int = 256
    conv_kernel: int = 9
    conv_stride: int = 1
    primary_channels: int = 32
    primary_dim: int = 8
    primary_kernel: int = 9
    primary_stride: int = 2
    class_caps_dim: int = 16
    routing_iterations: int = 3
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    use_decoder: bool = True

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def mnist() -> "CapsNetConfig":
        """The CapsNet-MNIST configuration of Fig. 2."""
        return CapsNetConfig()

    @staticmethod
    def scaled(
        input_shape: Tuple[int, int, int] = (1, 20, 20),
        num_classes: int = 4,
        scale: float = 0.125,
        routing_iterations: int = 3,
    ) -> "CapsNetConfig":
        """A reduced CapsNet preserving the layer structure.

        Args:
            input_shape: input image shape.
            num_classes: number of classes.
            scale: multiplier applied to channel counts (floored at small
                positive minimums so the structure survives).
            routing_iterations: routing iterations.
        """
        conv_channels = max(8, int(round(256 * scale)))
        primary_channels = max(2, int(round(32 * scale)))
        return CapsNetConfig(
            input_shape=input_shape,
            num_classes=num_classes,
            conv_channels=conv_channels,
            conv_kernel=5,
            conv_stride=1,
            primary_channels=primary_channels,
            primary_dim=8,
            primary_kernel=5,
            primary_stride=2,
            class_caps_dim=16,
            routing_iterations=routing_iterations,
            decoder=DecoderConfig(hidden_sizes=(64, 128)),
        )

    # -- derived geometry -----------------------------------------------------

    def conv_output_hw(self) -> Tuple[int, int]:
        """Spatial output size of the first convolution."""
        _, h, w = self.input_shape
        out_h = (h - self.conv_kernel) // self.conv_stride + 1
        out_w = (w - self.conv_kernel) // self.conv_stride + 1
        return out_h, out_w

    def primary_output_hw(self) -> Tuple[int, int]:
        """Spatial output size of the PrimaryCaps convolution."""
        h, w = self.conv_output_hw()
        out_h = (h - self.primary_kernel) // self.primary_stride + 1
        out_w = (w - self.primary_kernel) // self.primary_stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError("input too small for the configured kernels/strides")
        return out_h, out_w

    @property
    def num_low_capsules(self) -> int:
        """Number of low-level (L) capsules produced by PrimaryCaps."""
        h, w = self.primary_output_hw()
        return self.primary_channels * h * w

    @property
    def num_pixels(self) -> int:
        """Number of scalar pixels in the input image."""
        c, h, w = self.input_shape
        return c * h * w


@dataclass
class ForwardResult:
    """Outputs of a CapsNet forward pass.

    Attributes:
        class_capsules: high-level capsules ``(batch, num_classes, class_caps_dim)``.
        lengths: capsule lengths ``(batch, num_classes)`` (class probabilities).
        predictions: argmax class predictions ``(batch,)``.
        reconstruction: flattened reconstructed images or ``None`` when the
            decoder is disabled / not requested.
        low_capsules: the PrimaryCaps output ``(batch, num_low, primary_dim)``.
    """

    class_capsules: np.ndarray
    lengths: np.ndarray
    predictions: np.ndarray
    reconstruction: Optional[np.ndarray]
    low_capsules: np.ndarray


class CapsNet:
    """The full CapsNet model (encoder + optional decoder).

    Args:
        config: architecture configuration.
        context: arithmetic context used by the squash / routing softmax --
            pass an approximate context to emulate inference on the
            PIM-CapsNet PEs.
        seed: RNG seed for weight initialization.
        init_weights: set to False to build the layer structure without
            allocating (or drawing) any parameters; the caller then shares
            another model's parameter arrays (:meth:`with_context`).
    """

    def __init__(
        self,
        config: CapsNetConfig,
        context: Optional[MathContext] = None,
        seed: int = 0,
        init_weights: bool = True,
    ) -> None:
        self.config = config
        self.context = context or MathContext.exact()
        rng = np.random.default_rng(seed)

        in_channels = config.input_shape[0]
        self.conv = Conv2D(
            in_channels,
            config.conv_channels,
            config.conv_kernel,
            stride=config.conv_stride,
            rng=rng,
            init_weights=init_weights,
        )
        self.relu = ReLU()
        self.primary = PrimaryCaps(
            config.conv_channels,
            config.primary_channels,
            config.primary_dim,
            kernel_size=config.primary_kernel,
            stride=config.primary_stride,
            rng=rng,
            context=self.context,
            init_weights=init_weights,
        )
        self.class_caps = CapsuleLayer(
            num_low=config.num_low_capsules,
            num_high=config.num_classes,
            low_dim=config.primary_dim,
            high_dim=config.class_caps_dim,
            routing=DynamicRouting(
                iterations=config.routing_iterations, context=self.context
            ),
            rng=rng,
            init_weights=init_weights,
        )

        self.decoder_layers: List[Layer] = []
        self._decoder_mask: Optional[np.ndarray] = None
        if config.use_decoder:
            decoder_input = config.num_classes * config.class_caps_dim
            sizes = config.decoder.layer_sizes(decoder_input, config.num_pixels)
            for idx, (fan_in, fan_out) in enumerate(sizes):
                self.decoder_layers.append(
                    Dense(fan_in, fan_out, rng=rng, init_weights=init_weights)
                )
                if idx < len(sizes) - 1:
                    self.decoder_layers.append(ReLU())
                else:
                    self.decoder_layers.append(Sigmoid())

    def _parameterized_layers(self) -> List[Layer]:
        """All layers *structurally* owning parameters, in forward order.

        Unlike :attr:`trainable_layers` this does not filter on ``params``
        being non-empty, so it also enumerates the (still parameter-less)
        layers of an ``init_weights=False`` shell -- which is exactly what
        :meth:`with_context` needs to pair layers for weight sharing.
        """
        layers: List[Layer] = [self.conv, self.primary, self.class_caps]
        layers.extend(layer for layer in self.decoder_layers if isinstance(layer, Dense))
        return layers

    def with_context(self, context: Optional[MathContext]) -> "CapsNet":
        """A view of this model evaluating under a different arithmetic context.

        The clone shares this model's parameter *arrays* (no re-initialization,
        no copies -- later training updates are visible to the clone) but owns
        its own layer caches and gradients, so the Table-5 experiments can
        evaluate one set of trained weights under the exact and approximate
        PE arithmetics without rebuilding or reloading a network per context.
        """
        clone = CapsNet(self.config, context=context, init_weights=False)
        for mine, theirs in zip(self._parameterized_layers(), clone._parameterized_layers()):
            theirs.params = mine.params
            theirs.zero_grads()
        # PrimaryCaps aliases its inner convolution's parameter dict; re-link
        # the clone's inner conv to the shared dict as well.
        clone.primary.conv.params = clone.primary.params
        clone.primary.conv.grads = clone.primary.grads
        return clone

    # -- inference ------------------------------------------------------------

    def forward(
        self,
        images: np.ndarray,
        labels_onehot: Optional[np.ndarray] = None,
        run_decoder: bool = True,
    ) -> ForwardResult:
        """Run the CapsNet on a batch of images.

        Args:
            images: ``(batch, channels, height, width)`` input images.
            labels_onehot: when given, the decoder reconstructs from the true
                class capsule (training convention); otherwise it uses the
                predicted class.
            run_decoder: set to False to skip the decoder entirely.

        Returns:
            A :class:`ForwardResult`.
        """
        images = np.asarray(images, dtype=np.float32)
        features = self.relu.forward(self.conv.forward(images))
        low = self.primary.forward(features)
        high = self.class_caps.forward(low)
        lengths = F.capsule_lengths(high)
        predictions = np.argmax(lengths, axis=1)

        reconstruction = None
        if run_decoder and self.decoder_layers:
            mask_source = labels_onehot
            if mask_source is None:
                mask_source = F.one_hot(predictions, self.config.num_classes)
            masked = high * mask_source[:, :, np.newaxis]
            self._decoder_mask = mask_source
            x = masked.reshape(images.shape[0], -1)
            for layer in self.decoder_layers:
                x = layer.forward(x)
            reconstruction = x

        return ForwardResult(
            class_capsules=high,
            lengths=lengths,
            predictions=predictions,
            reconstruction=reconstruction,
            low_capsules=low,
        )

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Return class predictions for a batch of images (no decoder).

        The same values as ``forward(images, run_decoder=False).predictions``,
        computed through the layers' ``infer`` steps, so no layer keeps
        anything of the batch.
        """
        return self.predictions_from_pre_squash(self.primary_pre_squash(images))

    # -- split inference (multi-context evaluation) ---------------------------

    def primary_pre_squash(self, images: np.ndarray) -> np.ndarray:
        """The context-independent trunk: conv features grouped into capsules.

        Everything up to (but excluding) the PrimaryCaps squash uses plain
        FP32 convolution arithmetic and therefore computes identical values
        under every :class:`~repro.arithmetic.context.MathContext`; the
        Table-5 evaluation computes it once per batch and shares it across
        the exact / approximate / recovered contexts.  Each convolution frees
        its columns before the next one builds its own.
        """
        images = np.asarray(images, dtype=np.float32)
        features = self.relu.infer(self.conv.infer(images))
        return self.primary.capsules_pre_squash(self.primary.conv.infer(features))

    def predictions_from_pre_squash(self, pre_squash: np.ndarray) -> np.ndarray:
        """The context-dependent head: squash, routing, and the class argmax.

        Combined with :meth:`primary_pre_squash` this computes exactly what
        ``forward`` computes for the predictions (bit-identical), just split
        at the trunk boundary.
        """
        low = self.primary.context.squash(pre_squash, axis=-1)
        high = self.class_caps.infer(low)
        lengths = F.capsule_lengths(high)
        return np.argmax(lengths, axis=1)

    def accuracy(self, images: np.ndarray, labels: np.ndarray, batch_size: int = 64) -> float:
        """Classification accuracy on ``images`` / ``labels``."""
        labels = np.asarray(labels)
        correct = 0
        for start in range(0, images.shape[0], batch_size):
            batch = images[start : start + batch_size]
            preds = self.predict(batch)
            correct += int(np.sum(preds == labels[start : start + batch_size]))
        return correct / float(images.shape[0])

    # -- training hooks -------------------------------------------------------

    @property
    def trainable_layers(self) -> List[Layer]:
        """All layers owning parameters, in forward order."""
        layers: List[Layer] = [self.conv, self.primary, self.class_caps]
        layers.extend(layer for layer in self.decoder_layers if layer.params)
        return layers

    @property
    def parameter_count(self) -> int:
        """Total number of trainable parameters."""
        return sum(layer.parameter_count for layer in self.trainable_layers)

    def zero_grads(self) -> None:
        """Reset gradients of every trainable layer."""
        for layer in self.trainable_layers:
            layer.zero_grads()

    def release(self) -> None:
        """Drop every layer's backward cache and workspace (parameters stay).

        :meth:`repro.capsnet.training.Trainer.fit` calls this when training
        ends, so a trained model holds its parameters and gradients only.
        """
        for layer in [self.conv, self.relu, self.primary, self.class_caps, *self.decoder_layers]:
            layer.release()
        self._decoder_mask = None

    def backward_from_losses(
        self,
        result: ForwardResult,
        labels_onehot: np.ndarray,
        images: np.ndarray,
        reconstruction_weight: float = 0.0005,
    ) -> None:
        """Backpropagate margin (+ optional reconstruction) loss gradients.

        The gradients are accumulated into each layer's ``grads``; the caller
        (the :class:`~repro.capsnet.training.Trainer`) applies the update.
        """
        labels_onehot = np.asarray(labels_onehot, dtype=np.float32)
        batch = images.shape[0]

        # Margin-loss gradient wrt capsule lengths, then wrt capsule vectors.
        grad_lengths = F.margin_loss_grad(result.lengths, labels_onehot)
        safe_lengths = np.maximum(result.lengths, 1e-9)[:, :, np.newaxis]
        grad_high = grad_lengths[:, :, np.newaxis] * result.class_capsules / safe_lengths

        # Reconstruction-loss gradient through the decoder (if enabled).
        if result.reconstruction is not None and reconstruction_weight > 0.0:
            flat_target = images.reshape(batch, -1)
            grad_recon = (
                2.0
                * reconstruction_weight
                * (result.reconstruction - flat_target)
                / np.float32(flat_target.size / batch)
            ).astype(np.float32)
            grad = grad_recon
            for layer in reversed(self.decoder_layers):
                grad = layer.backward(grad)
            grad_masked = grad.reshape(batch, self.config.num_classes, self.config.class_caps_dim)
            grad_high = grad_high + grad_masked * self._decoder_mask[:, :, np.newaxis]

        grad_low = self.class_caps.backward(as_f32(grad_high))
        grad_features = self.primary.backward(grad_low)
        grad_features = self.relu.backward(grad_features)
        # First layer: only the parameter gradients are needed -- skip the
        # (expensive, otherwise-discarded) gradient wrt the input images.
        self.conv.backward(grad_features, compute_input_grad=False)

    # -- persistence ----------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat dictionary of all parameters (copy)."""
        state: Dict[str, np.ndarray] = {}
        for idx, layer in enumerate(self.trainable_layers):
            for name, value in layer.params.items():
                state[f"layer{idx}.{name}"] = value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`state_dict`."""
        for idx, layer in enumerate(self.trainable_layers):
            for name in layer.params:
                key = f"layer{idx}.{name}"
                if key not in state:
                    raise KeyError(f"missing parameter {key!r} in state dict")
                if state[key].shape != layer.params[name].shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: "
                        f"{state[key].shape} vs {layer.params[name].shape}"
                    )
                layer.params[name][...] = state[key]


def evaluate_accuracies(
    models: Dict[str, "CapsNet"],
    images: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 64,
) -> Dict[str, float]:
    """Accuracy of several context-variants of one model, sharing the trunk.

    ``models`` maps labels (e.g. ``"origin"`` / ``"approx"``) to CapsNets
    that share the *same weights* but evaluate under different arithmetic
    contexts (:meth:`CapsNet.with_context`).  The context-independent
    convolution trunk is computed once per batch and reused for every
    context, which is where most of the evaluation time goes; the result is
    bit-identical to calling :meth:`CapsNet.accuracy` once per model.  Both
    halves run the layers' ``infer`` steps, so no model keeps anything of a
    batch once its predictions are counted.
    """
    labels = np.asarray(labels)
    first = next(iter(models.values()))
    correct = {label: 0 for label in models}
    for start in range(0, images.shape[0], batch_size):
        batch = images[start : start + batch_size]
        batch_labels = labels[start : start + batch_size]
        pre_squash = first.primary_pre_squash(batch)
        for label, model in models.items():
            preds = model.predictions_from_pre_squash(pre_squash)
            correct[label] += int(np.sum(preds == batch_labels))
    total = float(images.shape[0])
    return {label: count / total for label, count in correct.items()}
