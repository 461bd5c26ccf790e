"""Vault model: sub-memory controller + DRAM banks + 16 processing elements.

A vault executes the *snippets* the inter-vault distributor assigns to it.
The execution time of a vault is determined by three components:

* PE compute time -- the operation mix divided over the vault's PEs,
* DRAM service time -- the bytes the snippets touch, served by the vault's
  banks through the sub-memory controller,
* vault request stalls (VRS) -- the extra serialization caused by bank
  conflicts of concurrent PE requests, governed by the address mapping.

Compute and conflict-free DRAM service overlap (the sub-memory controller
prefetches while PEs crunch), so the base time is the maximum of the two;
the VRS and any PE under-utilization penalty are exposed on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.elementwise import maximum
from repro.hmc.address import AddressMapping, CustomAddressMapping
from repro.hmc.config import HMCConfig
from repro.hmc.dram import VaultMemoryModel
from repro.hmc.pe import OperationMix, PEDatapath


@dataclass
class VaultWorkload:
    """Work assigned to one vault for one routing pass.

    Attributes:
        operations: PE operation mix the vault must execute.
        dram_bytes: DRAM bytes read + written inside the vault.
        concurrent_requesters: number of PEs issuing memory requests
            concurrently (normally all PEs of the vault).
        pe_utilization: fraction of the vault's PEs that can be kept busy by
            the intra-vault workload distribution (1.0 = all 16).
    """

    operations: OperationMix
    dram_bytes: float
    concurrent_requesters: int = 16
    pe_utilization: float = 1.0

    def __post_init__(self) -> None:
        if self.dram_bytes < 0:
            raise ValueError("dram_bytes must be non-negative")
        if self.concurrent_requesters < 1:
            raise ValueError("concurrent_requesters must be positive")
        if not 0.0 < self.pe_utilization <= 1.0:
            raise ValueError("pe_utilization must be in (0, 1]")


@dataclass
class VaultExecution:
    """Timing result of one vault executing its workload.

    Every time is a float, or a float64 array when the PE frequency is one
    (the compute time then varies per element).

    Attributes:
        compute_time: PE execution time (seconds).
        dram_time: conflict-free DRAM service time (seconds).
        vrs_time: vault-request-stall time caused by bank conflicts (seconds).
    """

    compute_time: float
    dram_time: float
    vrs_time: float

    @property
    def execution_time(self) -> float:
        """Base execution time (compute overlapped with conflict-free DRAM)."""
        return maximum(self.compute_time, self.dram_time)

    @property
    def total_time(self) -> float:
        """Total vault time including vault request stalls."""
        return self.execution_time + self.vrs_time


class Vault:
    """One HMC vault with integrated PEs.

    Args:
        config: HMC configuration.
        datapath: PE datapath cost model (built from the config frequency by
            default).
        mapping: address mapping scheme in effect (the customized mapping by
            default).
        memory: vault DRAM timing model.
    """

    def __init__(
        self,
        config: HMCConfig,
        datapath: Optional[PEDatapath] = None,
        mapping: Optional[AddressMapping] = None,
        memory: Optional[VaultMemoryModel] = None,
    ) -> None:
        self.config = config
        self.datapath = datapath or PEDatapath(frequency_hz=config.pe_frequency_hz)
        self.mapping = mapping or CustomAddressMapping(config)
        self.memory = memory or VaultMemoryModel(config)

    def execute(self, workload: VaultWorkload) -> VaultExecution:
        """Execute one vault workload and return its timing decomposition."""
        effective_pes = max(1, int(round(self.config.pes_per_vault * workload.pe_utilization)))
        compute_time = self.datapath.time_for(workload.operations, num_pes=effective_pes)
        dram_time = self.memory.base_service_time(workload.dram_bytes)
        conflict = self.mapping.bank_conflict_factor(workload.concurrent_requesters)
        vrs_time = self.memory.stall_time(workload.dram_bytes, conflict)
        return VaultExecution(compute_time=compute_time, dram_time=dram_time, vrs_time=vrs_time)

    def compute_throughput_ops(self) -> float:
        """Aggregate MAC throughput of this vault's PEs (operations/second)."""
        from repro.hmc.pe import PEOperation

        return self.datapath.throughput_ops(PEOperation.MAC, num_pes=self.config.pes_per_vault)
