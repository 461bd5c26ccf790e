"""Per-kernel GPU cost model and stall attribution.

The model decomposes each kernel (or kernel group) into five time components:

* ``compute``    -- FLOPs / (peak throughput x achieved ALU efficiency),
* ``bandwidth``  -- off-chip traffic / (peak bandwidth x achieved utilization);
  this is the only component that scales with the memory technology sweeps of
  Fig. 7,
* ``latency``    -- a traffic-proportional cost that models latency-bound /
  poorly-coalesced accesses which higher bandwidth does *not* remove,
* ``sync``       -- barrier synchronizations (``__syncthreads``) required by
  the aggregation operations of the routing procedure,
* ``overhead``   -- kernel-launch, instruction-fetch and occupancy-limit
  ("lack of resource") overheads.

The components that stall the pipeline (everything except useful compute
overlap) are attributed to the stall classes reported by NVprofiler, which is
how Fig. 5's breakdown is reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict


class StallClass(str, Enum):
    """Pipeline stall categories reported in Fig. 5."""

    MEMORY_ACCESS = "memory_access"
    SYNCHRONIZATION = "synchronization"
    LACK_OF_RESOURCE = "lack_of_resource"
    INSTRUCTION_FETCH = "inst_fetch"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GPUCostParameters:
    """Calibration constants of the GPU cost model.

    The defaults are chosen so the characterization figures of the paper are
    reproduced for the P100 baseline (see EXPERIMENTS.md):

    Attributes:
        dense_compute_efficiency: fraction of peak FLOP/s achieved by
            cuDNN-style dense kernels (Conv / FC).
        dense_bandwidth_utilization: fraction of peak bandwidth achieved by
            dense kernels.
        routing_alu_efficiency: fraction of peak FLOP/s achieved during the
            routing procedure (the paper profiles ~38.6% ALU utilization).
        routing_bandwidth_utilization: fraction of peak bandwidth achieved by
            the routing procedure's scattered accesses.
        routing_latency_seconds_per_byte: latency-bound memory cost per byte
            of routing traffic (does not improve with higher bandwidth).
        barrier_cost_seconds: cost of one barrier-synchronized partial
            reduction group (a warp-sized group of values synchronizing
            through shared memory).
        kernel_launch_seconds: fixed cost per kernel launch.
        resource_stall_fraction: occupancy-limit stalls as a fraction of the
            busy (compute + memory + sync) time.
        fetch_stall_fraction: instruction-fetch stalls as a fraction of busy time.
        other_stall_fraction: unclassified stalls as a fraction of busy time.
        routing_kernels_per_iteration: number of kernel launches per routing
            iteration (one or more per equation).
    """

    dense_compute_efficiency: float = 0.62
    dense_bandwidth_utilization: float = 0.70
    routing_alu_efficiency: float = 0.386
    routing_bandwidth_utilization: float = 0.30
    routing_latency_seconds_per_byte: float = 8.5e-12
    barrier_cost_seconds: float = 2.8e-8
    kernel_launch_seconds: float = 8.0e-6
    resource_stall_fraction: float = 0.115
    fetch_stall_fraction: float = 0.045
    other_stall_fraction: float = 0.045
    routing_kernels_per_iteration: int = 6

    def __post_init__(self) -> None:
        for name in (
            "dense_compute_efficiency",
            "dense_bandwidth_utilization",
            "routing_alu_efficiency",
            "routing_bandwidth_utilization",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        for name in (
            "routing_latency_seconds_per_byte",
            "barrier_cost_seconds",
            "kernel_launch_seconds",
            "resource_stall_fraction",
            "fetch_stall_fraction",
            "other_stall_fraction",
            "routing_kernels_per_iteration",
        ):
            # Written so that NaN fails: it compares false to everything.
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


@dataclass
class KernelTiming:
    """Timing decomposition of one kernel (or fused kernel group).

    All values are seconds.
    """

    name: str
    compute: float = 0.0
    bandwidth: float = 0.0
    latency: float = 0.0
    sync: float = 0.0
    overhead: float = 0.0

    @property
    def memory(self) -> float:
        """Total memory-induced time (bandwidth + latency bound)."""
        return self.bandwidth + self.latency

    @property
    def total(self) -> float:
        """Total kernel time."""
        return self.compute + self.bandwidth + self.latency + self.sync + self.overhead

    def scaled(self, factor: float) -> "KernelTiming":
        """Return a copy with every component scaled by ``factor``."""
        return KernelTiming(
            name=self.name,
            compute=self.compute * factor,
            bandwidth=self.bandwidth * factor,
            latency=self.latency * factor,
            sync=self.sync * factor,
            overhead=self.overhead * factor,
        )

    def merged_with(self, other: "KernelTiming", name: str | None = None) -> "KernelTiming":
        """Component-wise sum of two timings."""
        return KernelTiming(
            name=name or self.name,
            compute=self.compute + other.compute,
            bandwidth=self.bandwidth + other.bandwidth,
            latency=self.latency + other.latency,
            sync=self.sync + other.sync,
            overhead=self.overhead + other.overhead,
        )


@dataclass
class StallBreakdown:
    """Fractions of pipeline stall cycles attributed to each stall class."""

    fractions: Dict[StallClass, float] = field(default_factory=dict)

    @staticmethod
    def from_timing(timing: KernelTiming, params: GPUCostParameters) -> "StallBreakdown":
        """Attribute a kernel's non-compute time to NVprofiler stall classes.

        Memory stalls come from the bandwidth and latency components, barrier
        stalls from the sync component, and the overhead component is split
        between lack-of-resource, instruction-fetch and other according to
        the calibration fractions.
        """
        overhead_split = (
            params.resource_stall_fraction
            + params.fetch_stall_fraction
            + params.other_stall_fraction
        )
        if overhead_split <= 0:
            resource = fetch = other = timing.overhead / 3.0
        else:
            resource = timing.overhead * params.resource_stall_fraction / overhead_split
            fetch = timing.overhead * params.fetch_stall_fraction / overhead_split
            other = timing.overhead * params.other_stall_fraction / overhead_split
        stalls = {
            StallClass.MEMORY_ACCESS: timing.memory,
            StallClass.SYNCHRONIZATION: timing.sync,
            StallClass.LACK_OF_RESOURCE: resource,
            StallClass.INSTRUCTION_FETCH: fetch,
            StallClass.OTHER: other,
        }
        total = sum(stalls.values())
        if total <= 0:
            return StallBreakdown({cls: 0.0 for cls in StallClass})
        return StallBreakdown({cls: value / total for cls, value in stalls.items()})

    def fraction(self, stall_class: StallClass) -> float:
        """Fraction of stall cycles caused by ``stall_class``."""
        return self.fractions.get(stall_class, 0.0)

    def as_dict(self) -> Dict[str, float]:
        """Plain-string keyed dictionary (for reports)."""
        return {cls.value: self.fraction(cls) for cls in StallClass}
