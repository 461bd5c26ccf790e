"""HMC device configuration (Table 4 of the paper / HMC 2.1 specification)."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.elementwise import all_true


@dataclass(frozen=True)
class HMCConfig:
    """Geometry and bandwidth parameters of the Hybrid Memory Cube.

    The defaults follow Table 4 of the paper and the HMC 2.1 specification:
    an 8 GB cube with 32 vaults of 16 banks each, 320 GB/s of external
    (SerDes link) bandwidth and 512 GB/s of aggregate internal (TSV)
    bandwidth, with 16 processing elements per vault running at 312.5 MHz.

    Attributes:
        num_vaults: number of vaults (sub-memory controllers).
        banks_per_vault: DRAM banks per vault.
        capacity_gb: total DRAM capacity in GB.
        external_bandwidth_gbs: full-duplex SerDes link bandwidth (GB/s).
        internal_bandwidth_gbs: aggregate TSV bandwidth across all vaults (GB/s).
        block_bytes: memory access granularity (a "block", 16 B).
        max_block_bytes: maximum sub-page ("MAX block") size in bytes.
        packet_overhead_bytes: packet head + tail bytes added to each request
            crossing the crossbar (``SIZE_pkt`` in the paper's Eqs. 8/10/12).
        pes_per_vault: processing elements integrated per vault.  An int64
            array holds one count per element of a frequency array.
        pe_frequency_mhz: PE clock frequency in MHz.  A float64 array holds
            one frequency per element: the analytic models then evaluate
            every frequency at once (vectorized sweeps), element by element.
    """

    num_vaults: int = 32
    banks_per_vault: int = 16
    capacity_gb: float = 8.0
    external_bandwidth_gbs: float = 320.0
    internal_bandwidth_gbs: float = 512.0
    block_bytes: int = 16
    max_block_bytes: int = 256
    packet_overhead_bytes: int = 16
    pes_per_vault: int = 16
    pe_frequency_mhz: float = 312.5

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails: it compares false to
        # everything.
        counts = (self.num_vaults, self.banks_per_vault, self.pes_per_vault)
        if not all(all_true(count >= 1) for count in counts):
            raise ValueError("vault/bank/PE counts must be positive")
        if not 1 <= self.block_bytes <= self.max_block_bytes:
            raise ValueError("invalid block / max-block sizes")
        if not 0 <= self.packet_overhead_bytes < math.inf:
            raise ValueError("packet_overhead_bytes must be finite and non-negative")
        for value in (self.external_bandwidth_gbs, self.internal_bandwidth_gbs):
            if not 0 < value < math.inf:
                raise ValueError("bandwidths must be finite and positive")
        if not 0 < self.capacity_gb < math.inf:
            raise ValueError("capacity_gb must be finite and positive")
        if not all_true((self.pe_frequency_mhz > 0) & (self.pe_frequency_mhz < math.inf)):
            raise ValueError("PE frequency must be finite and positive")

    # -- derived quantities ----------------------------------------------------

    @property
    def pe_frequency_hz(self) -> float:
        """PE clock frequency in Hz."""
        return self.pe_frequency_mhz * 1e6

    @property
    def external_bandwidth_bytes(self) -> float:
        """External link bandwidth in bytes/s."""
        return self.external_bandwidth_gbs * 1e9

    @property
    def internal_bandwidth_bytes(self) -> float:
        """Aggregate internal bandwidth in bytes/s."""
        return self.internal_bandwidth_gbs * 1e9

    @property
    def vault_bandwidth_bytes(self) -> float:
        """Internal bandwidth available to a single vault in bytes/s."""
        return self.internal_bandwidth_bytes / self.num_vaults

    @property
    def bank_bandwidth_bytes(self) -> float:
        """Service bandwidth of one DRAM bank in bytes/s."""
        return self.vault_bandwidth_bytes / self.banks_per_vault

    @property
    def capacity_bytes(self) -> int:
        """Total DRAM capacity in bytes."""
        return int(self.capacity_gb * (1 << 30))

    @property
    def bytes_per_vault(self) -> int:
        """DRAM capacity of one vault in bytes."""
        return self.capacity_bytes // self.num_vaults

    @property
    def total_pes(self) -> int:
        """Total number of processing elements in the cube."""
        return self.num_vaults * self.pes_per_vault

    # -- variants ----------------------------------------------------------------

    def with_pe_frequency(self, frequency_mhz: float) -> "HMCConfig":
        """Return a copy with a different PE frequency (Fig. 18 sweeps)."""
        return replace(self, pe_frequency_mhz=frequency_mhz)

    def with_pes_per_vault(self, pes: int) -> "HMCConfig":
        """Return a copy with a different PE count per vault."""
        if pes < 1:
            raise ValueError("pes must be positive")
        return replace(self, pes_per_vault=pes)
