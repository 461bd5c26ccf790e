"""Vault DRAM timing model.

Each vault owns a partition of DRAM banks reached through TSVs by the
vault's sub-memory controller.  For the granularity PIM-CapsNet cares about
(streams of 16-byte blocks produced by 16 PEs), the relevant behaviour is:

* a bank delivers data at a fixed sustained rate once a row is open,
* a row miss adds the activate/precharge latency,
* requests that collide on the same bank serialize; requests spread over
  different banks proceed in parallel up to the vault's TSV bandwidth.

The model exposes a single :meth:`VaultMemoryModel.service_time` that the
vault uses to translate "bytes accessed under a given conflict factor" into
seconds, plus helpers for row-hit sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elementwise import any_true
from repro.hmc.config import HMCConfig


@dataclass(frozen=True)
class BankTimings:
    """DRAM bank timing parameters.

    Attributes:
        row_hit_ns: access latency when the target row is already open.
        row_miss_ns: access latency including precharge + activate.
        row_buffer_bytes: bytes served from one open row.
        row_hit_rate: fraction of accesses that hit an open row for the
            streaming access patterns the PEs generate.
    """

    row_hit_ns: float = 15.0
    row_miss_ns: float = 45.0
    row_buffer_bytes: int = 8192
    row_hit_rate: float = 0.90

    def __post_init__(self) -> None:
        if self.row_hit_ns <= 0 or self.row_miss_ns < self.row_hit_ns:
            raise ValueError("row timings must satisfy 0 < hit <= miss")
        if not 0.0 <= self.row_hit_rate <= 1.0:
            raise ValueError("row_hit_rate must be in [0, 1]")
        if self.row_buffer_bytes < 1:
            raise ValueError("row_buffer_bytes must be positive")

    @property
    def average_access_ns(self) -> float:
        """Expected access latency given the row hit rate."""
        return self.row_hit_rate * self.row_hit_ns + (1.0 - self.row_hit_rate) * self.row_miss_ns


@dataclass(frozen=True)
class VaultMemoryModel:
    """Timing model of one vault's DRAM partition.

    Args:
        config: HMC configuration (bandwidths, bank counts).
        timings: bank timing parameters.
    """

    config: HMCConfig
    timings: BankTimings = BankTimings()

    @property
    def peak_bandwidth_bytes(self) -> float:
        """Peak TSV bandwidth of this vault (bytes/s)."""
        return self.config.vault_bandwidth_bytes

    @property
    def effective_bandwidth_bytes(self) -> float:
        """Sustained bandwidth accounting for row misses.

        The derating applies the average access latency to every block of
        ``block_bytes`` relative to the ideal transfer time.
        """
        block = self.config.block_bytes
        ideal_block_time = block / self.peak_bandwidth_bytes
        latency_penalty = (self.timings.average_access_ns * 1e-9) / self.config.banks_per_vault
        return block / (ideal_block_time + latency_penalty)

    def service_time(self, bytes_accessed: float, conflict_factor: float = 1.0) -> float:
        """Seconds to service ``bytes_accessed`` under a bank-conflict factor.

        Args:
            bytes_accessed: total DRAM bytes read + written in this vault.
            conflict_factor: serialization multiplier produced by the address
                mapping (1.0 = perfectly parallel banks); a float64 array
                gives one time per element.
        """
        if bytes_accessed < 0:
            raise ValueError("bytes_accessed must be non-negative")
        if any_true(conflict_factor < 1.0):
            raise ValueError("conflict_factor must be >= 1")
        return bytes_accessed * conflict_factor / self.effective_bandwidth_bytes

    def base_service_time(self, bytes_accessed: float) -> float:
        """Service time with no bank conflicts (conflict factor 1)."""
        return self.service_time(bytes_accessed, conflict_factor=1.0)

    def stall_time(self, bytes_accessed: float, conflict_factor: float) -> float:
        """Vault-request-stall (VRS) time: the extra service time caused by conflicts."""
        return self.service_time(bytes_accessed, conflict_factor) - self.base_service_time(
            bytes_accessed
        )
