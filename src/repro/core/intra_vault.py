"""Intra-vault workload distribution and operation lowering (Sec. 5.2).

The inter-vault distributor decides *which* routing sub-operations a vault
executes; this module decides how they map onto the vault's 16 PEs and what
they cost:

* :func:`lower_routing_to_operations` translates counts of routing-equation
  evaluations into a PE :class:`~repro.hmc.pe.OperationMix` (MACs for
  Eqs. 1/2/4, the squash flow for Eq. 3, the softmax flow for Eq. 5).
* :class:`IntraVaultDistributor` models how well the sub-operations assigned
  to a vault keep its PEs busy.  When the number of independent
  sub-operations along the chosen dimension is smaller than the PE count the
  distributor re-partitions along a secondary dimension, so utilization only
  collapses in genuinely degenerate configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elementwise import as_float, maximum, minimum, rounded
from repro.hmc.pe import OperationMix, PEOperation
from repro.workloads.benchmarks import BenchmarkConfig


def squash_operation_mix(count: float, high_dim: int) -> OperationMix:
    """PE operations for ``count`` squash evaluations of ``high_dim``-vectors.

    The squash (Eq. 3) needs the squared norm (``high_dim`` MACs), the
    approximate inverse square root, the approximate division for the
    ``||s||^2 / (1 + ||s||^2)`` factor, and ``high_dim + 1`` multiplies for
    the final scaling.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    mix = OperationMix()
    mix.add(PEOperation.MAC, count * high_dim)
    mix.add(PEOperation.ADD, count)
    mix.add(PEOperation.INV_SQRT, count)
    mix.add(PEOperation.DIV, count)
    mix.add(PEOperation.MUL, count * (high_dim + 1))
    return mix


def softmax_operation_mix(rows: float, row_length: int) -> OperationMix:
    """PE operations for ``rows`` softmax evaluations over ``row_length`` entries.

    Each row needs ``row_length`` exponentials, ``row_length - 1`` additions
    for the denominator and ``row_length`` divisions (Eq. 5).
    """
    if rows < 0:
        raise ValueError("rows must be non-negative")
    mix = OperationMix()
    mix.add(PEOperation.EXP, rows * row_length)
    mix.add(PEOperation.ADD, rows * max(0, row_length - 1))
    mix.add(PEOperation.DIV, rows * row_length)
    return mix


def lower_routing_to_operations(
    config: BenchmarkConfig,
    eq1_pairs: float,
    eq2_macs: float,
    eq3_squashes: float,
    eq4_dots: float,
    eq4_accumulations: float,
    eq5_rows: float,
) -> OperationMix:
    """Lower routing-equation evaluation counts to a PE operation mix.

    Args:
        config: benchmark configuration (provides ``CL`` / ``CH``).
        eq1_pairs: number of (batch, L, H) prediction-vector products
            (each costs ``CL * CH`` MACs).
        eq2_macs: number of scalar MACs of the weighted sum.
        eq3_squashes: number of squash evaluations.
        eq4_dots: number of (batch, L, H) agreement dot products
            (each costs ``CH`` MACs).
        eq4_accumulations: number of scalar additions accumulating agreements
            into ``b``.
        eq5_rows: number of softmax rows (length ``NH``).
    """
    mix = OperationMix()
    mix.add(PEOperation.MAC, eq1_pairs * config.low_dim * config.high_dim)
    mix.add(PEOperation.MAC, eq2_macs)
    mix = mix.merged_with(squash_operation_mix(eq3_squashes, config.high_dim))
    mix.add(PEOperation.MAC, eq4_dots * config.high_dim)
    mix.add(PEOperation.ADD, eq4_accumulations)
    mix = mix.merged_with(softmax_operation_mix(eq5_rows, config.num_high_capsules))
    return mix


@dataclass(frozen=True)
class IntraVaultDistributor:
    """Models PE utilization inside a vault (Sec. 5.2.1).

    Attributes:
        pes_per_vault: PEs available per vault (an int64 array gives one
            utilization and PE count per element).
        allow_secondary_dimension: when the primary dimension does not offer
            enough independent sub-operations to feed every PE, the
            distributor re-partitions along another dimension (the paper's
            fallback); disabling this models a naive design.
    """

    pes_per_vault: int = 16
    allow_secondary_dimension: bool = True

    def utilization(self, independent_suboperations: int, secondary_parallelism: int = 1) -> float:
        """Fraction of PEs kept busy given the available parallelism.

        Args:
            independent_suboperations: parallel sub-operations along the
                chosen (primary) dimension assigned to this vault.
            secondary_parallelism: additional parallel work available along a
                secondary dimension per primary sub-operation.
        """
        if independent_suboperations < 0 or secondary_parallelism < 1:
            raise ValueError("parallelism arguments must be positive")
        if independent_suboperations == 0:
            return 1.0 / self.pes_per_vault
        available = independent_suboperations
        if self.allow_secondary_dimension:
            available *= secondary_parallelism
        return minimum(1.0, available / as_float(self.pes_per_vault))

    def effective_pes(self, independent_suboperations: int, secondary_parallelism: int = 1) -> int:
        """Number of PEs the assignment actually keeps busy."""
        return maximum(
            1,
            rounded(
                self.pes_per_vault
                * self.utilization(independent_suboperations, secondary_parallelism)
            ),
        )
