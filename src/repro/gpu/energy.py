"""GPU energy model.

Energy is accounted as the sum of:

* static energy -- the device's idle/leakage power drawn for the full
  duration of the phase being measured,
* dynamic compute energy -- an energy-per-FLOP cost scaled by how efficiently
  the phase uses the ALUs,
* DRAM energy -- an energy-per-byte cost of the off-chip traffic.

The defaults are derived from public energy-per-operation estimates for
14/16 nm GPUs (a few pJ per FP32 FLOP, tens of pJ per off-chip byte) and are
held constant across every design point so relative comparisons (Figs. 15
and 17) are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.elementwise import any_true
from repro.gpu.devices import GPUDevice, baseline_device


@dataclass
class EnergyBreakdown:
    """Energy (joules) split into the model's three components."""

    static: float = 0.0
    compute: float = 0.0
    dram: float = 0.0

    @property
    def total(self) -> float:
        return self.static + self.compute + self.dram

    def merged_with(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Component-wise sum."""
        return EnergyBreakdown(
            static=self.static + other.static,
            compute=self.compute + other.compute,
            dram=self.dram + other.dram,
        )

    def as_dict(self) -> Dict[str, float]:
        return {"static": self.static, "compute": self.compute, "dram": self.dram}


@dataclass(frozen=True)
class GPUEnergyModel:
    """Energy model of a GPU executing CapsNet phases.

    Attributes:
        device: the GPU whose static power is used.
        energy_per_flop: dynamic energy per FP32 operation (joules).
        energy_per_dram_byte: energy per byte moved to/from off-chip memory
            (joules); HBM-class memories sit around 10-20 pJ/byte once the
            PHY and controller are included.
        busy_power_fraction: fraction of (TDP - idle) drawn on top of the
            idle power while kernels are resident, covering clocks, fetch and
            scheduling logic that burns power regardless of useful work.
    """

    device: GPUDevice = None  # type: ignore[assignment]
    energy_per_flop: float = 6.0e-12
    energy_per_dram_byte: float = 15.0e-12
    busy_power_fraction: float = 0.30

    def __post_init__(self) -> None:
        if self.device is None:
            object.__setattr__(self, "device", baseline_device())
        if self.energy_per_flop < 0 or self.energy_per_dram_byte < 0:
            raise ValueError("energy coefficients must be non-negative")
        if not 0.0 <= self.busy_power_fraction <= 1.0:
            raise ValueError("busy_power_fraction must be in [0, 1]")

    @property
    def _background_power(self) -> float:
        """Power drawn while kernels run, independent of the work performed."""
        return self.device.idle_watts + self.busy_power_fraction * (
            self.device.tdp_watts - self.device.idle_watts
        )

    def phase_energy(self, duration_s: float, flops: float, dram_bytes: float) -> EnergyBreakdown:
        """Energy of one execution phase.

        Args:
            duration_s: wall-clock duration of the phase; a float64 array of
                durations makes the static energy an array.
            flops: floating point operations executed.
            dram_bytes: off-chip bytes moved.
        """
        if any_true(duration_s < 0) or flops < 0 or dram_bytes < 0:
            raise ValueError("phase quantities must be non-negative")
        return EnergyBreakdown(
            static=self._background_power * duration_s,
            compute=self.energy_per_flop * flops,
            dram=self.energy_per_dram_byte * dram_bytes,
        )

    def idle_energy(self, duration_s: float) -> EnergyBreakdown:
        """Energy drawn while the GPU merely waits (e.g. for the HMC).

        ``duration_s`` may be a float64 array; no element may be negative.
        """
        if any_true(duration_s < 0):
            raise ValueError("duration must be non-negative")
        return EnergyBreakdown(static=self.device.idle_watts * duration_s)
