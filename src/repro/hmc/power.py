"""HMC power, energy and logic-area models (Sec. 6.5).

Energy is decomposed into the four categories Fig. 16(b) plots:

* **execution** -- dynamic energy of the PEs,
* **DRAM** -- energy of the bytes read/written in the vault DRAM partitions,
* **crossbar** -- energy of inter-vault traffic,
* **vault** -- the sub-memory controllers plus the static power of the cube
  (refresh, SerDes, logic leakage) integrated over the execution time.

The area model reproduces the paper's overhead analysis: the per-vault PEs,
the per-vault operation controller and the single RMAS module sum to about
3.11 mm^2, roughly 0.3% of the logic die.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.hmc.config import HMCConfig
from repro.hmc.device import HMCExecution
from repro.hmc.pe import OperationMix


@dataclass
class HMCEnergyBreakdown:
    """Energy (joules) of one HMC execution, split by component."""

    execution: float = 0.0
    dram: float = 0.0
    crossbar: float = 0.0
    vault: float = 0.0

    @property
    def total(self) -> float:
        return self.execution + self.dram + self.crossbar + self.vault

    def merged_with(self, other: "HMCEnergyBreakdown") -> "HMCEnergyBreakdown":
        return HMCEnergyBreakdown(
            execution=self.execution + other.execution,
            dram=self.dram + other.dram,
            crossbar=self.crossbar + other.crossbar,
            vault=self.vault + other.vault,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "execution": self.execution,
            "dram": self.dram,
            "crossbar": self.crossbar,
            "vault": self.vault,
        }


@dataclass(frozen=True)
class HMCPowerModel:
    """Energy coefficients of the cube.

    Attributes:
        config: device configuration.
        pe_energy_per_op: dynamic energy per PE operation (joules).
        dram_energy_per_byte: energy per byte accessed in a vault's DRAM
            (TSV + bank access; ~3-4 pJ/bit for HMC-class internal accesses).
        crossbar_energy_per_byte: energy per byte crossing the crossbar.
        static_power_watts: background power of the cube (refresh, SerDes,
            controllers) while PIM execution is in flight.
        logic_power_watts: average power of the added PIM logic (the paper
            reports 2.24 W for all vaults' PEs plus the RMAS).
    """

    config: HMCConfig
    pe_energy_per_op: float = 4.0e-12
    dram_energy_per_byte: float = 28.0e-12
    crossbar_energy_per_byte: float = 6.0e-12
    static_power_watts: float = 7.5
    logic_power_watts: float = 2.24

    def __post_init__(self) -> None:
        for name in (
            "pe_energy_per_op",
            "dram_energy_per_byte",
            "crossbar_energy_per_byte",
            "static_power_watts",
            "logic_power_watts",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def energy(
        self,
        execution: HMCExecution,
        total_operations: OperationMix,
        total_dram_bytes: float,
        crossbar_payload_bytes: float,
    ) -> HMCEnergyBreakdown:
        """Energy of one distributed execution.

        Args:
            execution: the timing result (its total time scales the static
                term; a float64 array of times gives an array vault energy).
            total_operations: operations executed across *all* vaults.
            total_dram_bytes: DRAM bytes accessed across all vaults.
            crossbar_payload_bytes: bytes moved between vaults.
        """
        duration = execution.total_time
        wire_bytes = crossbar_payload_bytes * (
            1.0 + self.config.packet_overhead_bytes / float(self.config.block_bytes)
        )
        return HMCEnergyBreakdown(
            execution=self.pe_energy_per_op * total_operations.total_operations,
            dram=self.dram_energy_per_byte * total_dram_bytes,
            crossbar=self.crossbar_energy_per_byte * wire_bytes,
            vault=(self.static_power_watts + self.logic_power_watts) * duration,
        )

    @property
    def total_logic_power(self) -> float:
        """Average power added by the PIM logic (checked against the thermal budget)."""
        return self.logic_power_watts


@dataclass(frozen=True)
class LogicAreaModel:
    """Area model of the added PIM logic under the paper's 24 nm process.

    Attributes:
        config: device configuration.
        pe_area_mm2: area of one processing element.
        controller_area_mm2: area of one vault's operation controller and buffers.
        rmas_area_mm2: area of the runtime memory access scheduler.
        logic_die_area_mm2: total HMC logic-die area used to express the
            overhead as a percentage.
    """

    config: HMCConfig
    pe_area_mm2: float = 0.0052
    controller_area_mm2: float = 0.012
    rmas_area_mm2: float = 0.065
    logic_die_area_mm2: float = 968.0

    @property
    def per_vault_area_mm2(self) -> float:
        """Added logic area per vault."""
        return self.config.pes_per_vault * self.pe_area_mm2 + self.controller_area_mm2

    @property
    def total_area_mm2(self) -> float:
        """Total added logic area across the cube (paper: ~3.11 mm^2)."""
        return self.config.num_vaults * self.per_vault_area_mm2 + self.rmas_area_mm2

    @property
    def area_fraction(self) -> float:
        """Added area as a fraction of the logic die (paper: ~0.32%)."""
        return self.total_area_mm2 / self.logic_die_area_mm2
