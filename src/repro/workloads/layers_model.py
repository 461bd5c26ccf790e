"""Op / traffic models of the non-routing CapsNet layers and the whole network.

The GPU and PIM simulators consume a :class:`CapsNetWorkload`, which exposes
one :class:`LayerWorkload` per network stage:

* the first convolution (``Conv``),
* the PrimaryCaps convolution (the "L Caps layer" of Fig. 4),
* the routing procedure (the "H Caps layer" of Fig. 4), backed by
  :class:`repro.workloads.rp_model.RoutingWorkload`,
* the fully connected reconstruction decoder (the "FC layer" of Fig. 4).

Layer geometries are derived from the benchmark's dataset: the CapsNet-MNIST
structure (9x9 conv with 256 channels, 9x9/stride-2 PrimaryCaps) is applied
to the dataset's image size, and the PrimaryCaps channel count is chosen so
the number of low-level capsules matches Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.workloads.benchmarks import BenchmarkConfig
from repro.workloads.rp_model import FP32_BYTES, RoutingWorkload


class LayerKind(str, Enum):
    """Kind of a CapsNet stage, matching Fig. 4's breakdown categories."""

    CONV = "conv"
    PRIMARY_CAPS = "primary_caps"
    ROUTING = "routing"
    FULLY_CONNECTED = "fc"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class LayerWorkload:
    """Computation and data-movement summary of one network stage.

    Attributes:
        name: human readable stage name.
        kind: stage category.
        flops: floating point operations for the whole batch.
        input_bytes: bytes of activations read from the previous stage.
        weight_bytes: bytes of parameters read.
        output_bytes: bytes of activations produced.
        working_set_bytes: bytes that must be resident while the stage runs
            (used to decide whether intermediates fit on-chip).
    """

    name: str
    kind: LayerKind
    flops: int
    input_bytes: int
    weight_bytes: int
    output_bytes: int
    working_set_bytes: int

    @property
    def traffic_bytes(self) -> int:
        """Ideal off-chip traffic when nothing is cached on-chip."""
        return self.input_bytes + self.weight_bytes + self.output_bytes


def _conv_out(size: int, kernel: int, stride: int) -> int:
    out = (size - kernel) // stride + 1
    if out < 1:
        raise ValueError(f"convolution output collapsed: size={size} kernel={kernel} stride={stride}")
    return out


@dataclass(frozen=True)
class ConvGeometry:
    """Spatial geometry of one convolution stage."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    in_h: int
    in_w: int

    @property
    def out_h(self) -> int:
        return _conv_out(self.in_h, self.kernel, self.stride)

    @property
    def out_w(self) -> int:
        return _conv_out(self.in_w, self.kernel, self.stride)

    def flops(self, batch: int) -> int:
        """Multiply-add FLOPs of the convolution for ``batch`` images."""
        per_output = 2 * self.in_channels * self.kernel * self.kernel
        return batch * self.out_h * self.out_w * self.out_channels * per_output

    def weight_bytes(self) -> int:
        return self.out_channels * self.in_channels * self.kernel * self.kernel * FP32_BYTES

    def input_bytes(self, batch: int) -> int:
        return batch * self.in_channels * self.in_h * self.in_w * FP32_BYTES

    def output_bytes(self, batch: int) -> int:
        return batch * self.out_channels * self.out_h * self.out_w * FP32_BYTES


class CapsNetWorkload:
    """Whole-network analytic workload of one Table-1 benchmark.

    Args:
        config: the benchmark configuration.
        conv_channels: channels of the first convolution (256 in the paper).
        conv_kernel: kernel of the first convolution (9).
        primary_kernel: kernel of the PrimaryCaps convolution (9).
        primary_stride: stride of the PrimaryCaps convolution (2).
        decoder_sizes: hidden sizes of the reconstruction decoder.
    """

    def __init__(
        self,
        config: BenchmarkConfig,
        conv_channels: int = 256,
        conv_kernel: int = 9,
        primary_kernel: int = 9,
        primary_stride: int = 2,
        decoder_sizes: Tuple[int, ...] = (512, 1024),
    ) -> None:
        self.config = config
        self.conv_channels = conv_channels
        self.conv_kernel = conv_kernel
        self.primary_kernel = primary_kernel
        self.primary_stride = primary_stride
        self.decoder_sizes = decoder_sizes
        self.routing = RoutingWorkload(config)

        channels, height, width = config.dataset_spec.image_shape
        self._conv1 = ConvGeometry(
            in_channels=channels,
            out_channels=conv_channels,
            kernel=conv_kernel,
            stride=1,
            in_h=height,
            in_w=width,
        )
        primary_h = _conv_out(self._conv1.out_h, primary_kernel, primary_stride)
        primary_w = _conv_out(self._conv1.out_w, primary_kernel, primary_stride)
        spatial = primary_h * primary_w
        # Choose the capsule channel count that reproduces Table 1's L-capsule count.
        capsule_channels = max(1, int(round(config.num_low_capsules / float(spatial))))
        self._primary = ConvGeometry(
            in_channels=conv_channels,
            out_channels=capsule_channels * config.low_dim,
            kernel=primary_kernel,
            stride=primary_stride,
            in_h=self._conv1.out_h,
            in_w=self._conv1.out_w,
        )
        self.primary_capsule_channels = capsule_channels
        self.primary_spatial = (primary_h, primary_w)

    # -- per-stage workloads ----------------------------------------------------

    def conv_layer(self) -> LayerWorkload:
        """The first convolution layer."""
        batch = self.config.batch_size
        geo = self._conv1
        return LayerWorkload(
            name="Conv",
            kind=LayerKind.CONV,
            flops=geo.flops(batch),
            input_bytes=geo.input_bytes(batch),
            weight_bytes=geo.weight_bytes(),
            output_bytes=geo.output_bytes(batch),
            working_set_bytes=geo.weight_bytes() + geo.input_bytes(1) + geo.output_bytes(1),
        )

    def primary_caps_layer(self) -> LayerWorkload:
        """The PrimaryCaps layer (convolution + squash)."""
        batch = self.config.batch_size
        geo = self._primary
        squash_flops = batch * self.config.num_low_capsules * (3 * self.config.low_dim + 19)
        return LayerWorkload(
            name="PrimaryCaps",
            kind=LayerKind.PRIMARY_CAPS,
            flops=geo.flops(batch) + squash_flops,
            input_bytes=geo.input_bytes(batch),
            weight_bytes=geo.weight_bytes(),
            output_bytes=geo.output_bytes(batch),
            working_set_bytes=geo.weight_bytes() + geo.input_bytes(1) + geo.output_bytes(1),
        )

    def routing_layer(self) -> LayerWorkload:
        """The routing procedure (the "H Caps" stage of Fig. 4)."""
        fp = self.routing.footprint()
        return LayerWorkload(
            name="Routing",
            kind=LayerKind.ROUTING,
            flops=self.routing.total_flops(),
            input_bytes=fp.low_capsules,
            weight_bytes=fp.weights,
            output_bytes=fp.high_capsules,
            working_set_bytes=fp.intermediate_bytes,
        )

    def fc_layers(self) -> List[LayerWorkload]:
        """The fully connected reconstruction decoder stages."""
        batch = self.config.batch_size
        pixels = self.config.dataset_spec.pixels
        sizes = [self.config.num_high_capsules * self.config.high_dim, *self.decoder_sizes, pixels]
        layers: List[LayerWorkload] = []
        for idx in range(len(sizes) - 1):
            fan_in, fan_out = sizes[idx], sizes[idx + 1]
            weight_bytes = fan_in * fan_out * FP32_BYTES
            layers.append(
                LayerWorkload(
                    name=f"FC{idx + 1}",
                    kind=LayerKind.FULLY_CONNECTED,
                    flops=2 * batch * fan_in * fan_out,
                    input_bytes=batch * fan_in * FP32_BYTES,
                    weight_bytes=weight_bytes,
                    output_bytes=batch * fan_out * FP32_BYTES,
                    working_set_bytes=weight_bytes + (fan_in + fan_out) * FP32_BYTES,
                )
            )
        return layers

    def layers(self) -> List[LayerWorkload]:
        """All network stages in execution order."""
        return [self.conv_layer(), self.primary_caps_layer(), self.routing_layer(), *self.fc_layers()]

    # -- aggregates ---------------------------------------------------------------

    def total_flops(self) -> int:
        """FLOPs of the whole network for one batched inference."""
        return sum(layer.flops for layer in self.layers())

    def flops_by_kind(self) -> Dict[LayerKind, int]:
        """FLOPs aggregated per stage category."""
        totals: Dict[LayerKind, int] = {kind: 0 for kind in LayerKind}
        for layer in self.layers():
            totals[layer.kind] += layer.flops
        return totals

    def host_layers(self) -> List[LayerWorkload]:
        """Stages PIM-CapsNet keeps on the host GPU (Conv / PrimaryCaps / FC)."""
        return [layer for layer in self.layers() if layer.kind is not LayerKind.ROUTING]

    def describe(self) -> str:
        """Multi-line human readable summary (used by examples)."""
        lines = [self.config.describe()]
        for layer in self.layers():
            lines.append(
                f"  {layer.name:<12} kind={layer.kind.value:<13} "
                f"GFLOPs={layer.flops / 1e9:8.3f} traffic={layer.traffic_bytes / 1e6:9.2f} MB"
            )
        return "\n".join(lines)
