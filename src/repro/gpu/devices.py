"""Catalog of the GPU devices referenced by the paper.

The paper's characterization uses several NVIDIA GPUs:

* Fig. 6 compares on-chip storage sizes: K40m (1.73 MB), Tesla P100
  (5.31 MB), RTX 2080Ti (9.75 MB) and Tesla V100 (16 MB).
* Fig. 7 compares memory technologies: GDDR5 288 GB/s (K40m), GDDR5X
  484 GB/s (GTX 1080Ti), GDDR6 616 GB/s (RTX 2080Ti) and HBM2 897 GB/s
  (Tesla V100).
* Table 4 defines the host processor of PIM-CapsNet: a P100-class GPU with
  3584 shading units at 1190 MHz, 24 KB L1/shared x 56 SMs + 4 MB L2 and an
  8 GB, 320 GB/s HBM memory.

On-chip storage numbers follow the paper's figure captions rather than the
vendor datasheets so the reproduced ratios line up with Fig. 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, List


class MemoryTechnology(str, Enum):
    """Off-chip memory technology of a GPU board."""

    GDDR5 = "GDDR5"
    GDDR5X = "GDDR5X"
    GDDR6 = "GDDR6"
    HBM = "HBM"
    HBM2 = "HBM2"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GPUDevice:
    """Architectural parameters of one GPU.

    Attributes:
        name: marketing name.
        shading_units: number of FP32 CUDA cores.
        core_clock_mhz: sustained core clock in MHz.
        onchip_storage_bytes: total on-chip storage (registers/L1/shared/L2)
            as counted by the paper's Fig. 6.
        memory_technology: off-chip memory technology.
        memory_bandwidth_gbs: off-chip memory bandwidth in GB/s.
        memory_capacity_gb: off-chip memory capacity in GB.
        tdp_watts: board thermal design power.
        idle_watts: static/idle power draw while executing (leakage + fans +
            non-compute logic), used by the energy model.
    """

    name: str
    shading_units: int
    core_clock_mhz: float
    onchip_storage_bytes: int
    memory_technology: MemoryTechnology
    memory_bandwidth_gbs: float
    memory_capacity_gb: float
    tdp_watts: float
    idle_watts: float

    def __post_init__(self) -> None:
        # Written so that NaN fails: it compares false to everything.
        for name in (
            "shading_units",
            "core_clock_mhz",
            "onchip_storage_bytes",
            "memory_bandwidth_gbs",
            "memory_capacity_gb",
        ):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.idle_watts <= self.tdp_watts < math.inf:
            raise ValueError(
                f"powers must satisfy 0 <= idle_watts <= tdp_watts < inf, got "
                f"idle_watts={self.idle_watts}, tdp_watts={self.tdp_watts}"
            )

    @property
    def peak_flops(self) -> float:
        """Peak FP32 throughput in FLOP/s (2 FLOPs per core per cycle)."""
        return 2.0 * self.shading_units * self.core_clock_mhz * 1e6

    @property
    def memory_bandwidth_bytes(self) -> float:
        """Off-chip bandwidth in bytes/s."""
        return self.memory_bandwidth_gbs * 1e9

    def with_memory_bandwidth(self, bandwidth_gbs: float) -> "GPUDevice":
        """Return a copy with a different off-chip bandwidth (Fig. 7 sweeps)."""
        return replace(self, memory_bandwidth_gbs=bandwidth_gbs)

    def with_onchip_storage(self, storage_bytes: int) -> "GPUDevice":
        """Return a copy with a different on-chip storage size (Fig. 6b sweeps)."""
        return replace(self, onchip_storage_bytes=storage_bytes)


def _mb(value: float) -> int:
    return int(value * 1024 * 1024)


#: GPUs referenced across the paper's characterization figures.
GPU_DEVICES: Dict[str, GPUDevice] = {
    "K40m": GPUDevice(
        name="K40m",
        shading_units=2880,
        core_clock_mhz=745.0,
        onchip_storage_bytes=_mb(1.73),
        memory_technology=MemoryTechnology.GDDR5,
        memory_bandwidth_gbs=288.0,
        memory_capacity_gb=12.0,
        tdp_watts=235.0,
        idle_watts=60.0,
    ),
    "GTX1080Ti": GPUDevice(
        name="GTX1080Ti",
        shading_units=3584,
        core_clock_mhz=1480.0,
        onchip_storage_bytes=_mb(5.0),
        memory_technology=MemoryTechnology.GDDR5X,
        memory_bandwidth_gbs=484.0,
        memory_capacity_gb=11.0,
        tdp_watts=250.0,
        idle_watts=55.0,
    ),
    "P100": GPUDevice(
        name="P100",
        shading_units=3584,
        core_clock_mhz=1190.0,
        onchip_storage_bytes=_mb(5.31),
        memory_technology=MemoryTechnology.HBM,
        memory_bandwidth_gbs=320.0,
        memory_capacity_gb=8.0,
        tdp_watts=250.0,
        idle_watts=60.0,
    ),
    "RTX2080Ti": GPUDevice(
        name="RTX2080Ti",
        shading_units=4352,
        core_clock_mhz=1545.0,
        onchip_storage_bytes=_mb(9.75),
        memory_technology=MemoryTechnology.GDDR6,
        memory_bandwidth_gbs=616.0,
        memory_capacity_gb=11.0,
        tdp_watts=250.0,
        idle_watts=55.0,
    ),
    "V100": GPUDevice(
        name="V100",
        shading_units=5120,
        core_clock_mhz=1380.0,
        onchip_storage_bytes=_mb(16.0),
        memory_technology=MemoryTechnology.HBM2,
        memory_bandwidth_gbs=897.0,
        memory_capacity_gb=16.0,
        tdp_watts=300.0,
        idle_watts=65.0,
    ),
}

#: Device order used by Fig. 6 (increasing on-chip storage).
ONCHIP_STORAGE_SWEEP: List[str] = ["K40m", "P100", "RTX2080Ti", "V100"]

#: Device order used by Fig. 7 (increasing memory bandwidth).
BANDWIDTH_SWEEP: List[str] = ["K40m", "GTX1080Ti", "RTX2080Ti", "V100"]


def get_device(name: str) -> GPUDevice:
    """Look up a device by (case-insensitive) name."""
    for key, device in GPU_DEVICES.items():
        if key.lower() == name.strip().lower():
            return device
    raise KeyError(f"unknown GPU {name!r}; known: {sorted(GPU_DEVICES)}")


def baseline_device() -> GPUDevice:
    """The paper's baseline host GPU (Table 4: P100-class with 320 GB/s HBM)."""
    return GPU_DEVICES["P100"]
