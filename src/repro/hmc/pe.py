"""Customized processing element (PE) datapath model (Sec. 5.2.2).

Each vault's logic layer integrates 16 PEs built from adders, multipliers,
bit shifters and multiplexers.  The datapath supports several *flows*
configured through the MUXes:

* ``1 -> 2``                 : multiply-accumulate (MAC),
* ``3 -> 2 -> 1 -> 2 -> 1``  : inverse square root (bit-shift seed + Newton),
* ``1 -> 2 -> 2 -> 3``       : exponential (Eq. 14: MAC + add + bit shift),
* reciprocal / division      : bit-trick seed + one Newton refinement.

This module models the *cost* of those flows (cycles per operation) and
provides :class:`OperationMix`, the unit the workload distributor hands to a
vault: how many operations of each type the vault must execute.  The
numerical behaviour of the same flows lives in :mod:`repro.arithmetic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Mapping

from repro.elementwise import all_true


class PEOperation(str, Enum):
    """Operation types the PE datapath supports."""

    MAC = "mac"              #: fused multiply-accumulate (2 FLOPs)
    ADD = "add"              #: addition / subtraction
    MUL = "mul"              #: multiplication
    SHIFT = "shift"          #: bit shift on the FP32 word
    EXP = "exp"              #: approximate exponential (Eq. 14 flow)
    DIV = "div"              #: approximate division (reciprocal + multiply)
    INV_SQRT = "inv_sqrt"    #: approximate inverse square root

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Cycles each operation occupies a PE, including the operand hand-off from
#: the vault data buffer.  The routing MAC is the common case and is
#: intentionally *not* fully pipelined (operand fetch through the data buffer
#: + multiply + accumulate + write-back), which is what makes the PE
#: frequency sweeps of Fig. 18 meaningful.
DEFAULT_CYCLES_PER_OPERATION: Dict[PEOperation, float] = {
    PEOperation.MAC: 5.0,
    PEOperation.ADD: 3.0,
    PEOperation.MUL: 3.0,
    PEOperation.SHIFT: 1.0,
    PEOperation.EXP: 8.0,
    PEOperation.DIV: 10.0,
    PEOperation.INV_SQRT: 12.0,
}

#: Cycles per MAC for *streaming* dense kernels (Conv / FC executed on the
#: HMC for the All-in-PIM design point): sequential operand access lets the
#: sub-memory controller keep the multiply-accumulate pipeline full.
STREAMING_MAC_CYCLES = 1.0


@dataclass
class OperationMix:
    """A bag of PE operations (how many of each type).

    The workload distributor expresses per-vault work as an operation mix so
    the vault model can translate it into cycles without knowing anything
    about routing equations.
    """

    counts: Dict[PEOperation, float] = field(default_factory=dict)

    def add(self, operation: PEOperation, count: float) -> "OperationMix":
        """Accumulate ``count`` operations of ``operation`` (returns self)."""
        if count < 0:
            raise ValueError("operation count must be non-negative")
        self.counts[operation] = self.counts.get(operation, 0.0) + float(count)
        return self

    def merged_with(self, other: "OperationMix") -> "OperationMix":
        """Return a new mix with both mixes' counts summed."""
        merged = OperationMix(dict(self.counts))
        for op, count in other.counts.items():
            merged.add(op, count)
        return merged

    def scaled(self, factor: float) -> "OperationMix":
        """Return a new mix with every count multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return OperationMix({op: count * factor for op, count in self.counts.items()})

    @property
    def total_operations(self) -> float:
        """Total number of PE operations regardless of type."""
        return float(sum(self.counts.values()))

    @property
    def total_flops(self) -> float:
        """Equivalent FLOP count (a MAC counts as 2, special functions by their
        arithmetic content)."""
        flops_per_op = {
            PEOperation.MAC: 2.0,
            PEOperation.ADD: 1.0,
            PEOperation.MUL: 1.0,
            PEOperation.SHIFT: 0.0,
            PEOperation.EXP: 2.0,
            PEOperation.DIV: 3.0,
            PEOperation.INV_SQRT: 4.0,
        }
        return float(sum(flops_per_op[op] * count for op, count in self.counts.items()))

    def as_dict(self) -> Dict[str, float]:
        return {op.value: count for op, count in self.counts.items()}

    @staticmethod
    def from_counts(counts: Mapping[PEOperation, float]) -> "OperationMix":
        mix = OperationMix()
        for op, count in counts.items():
            mix.add(op, count)
        return mix


@dataclass(frozen=True)
class PEDatapath:
    """Cycle-cost model of one processing element.

    Attributes:
        cycles_per_operation: cycles each operation type occupies the PE.
        frequency_hz: PE clock frequency; a float64 array of frequencies makes
            :meth:`time_for` and :meth:`throughput_ops` return one value per
            element.
    """

    frequency_hz: float
    cycles_per_operation: Mapping[PEOperation, float] = field(
        default_factory=lambda: dict(DEFAULT_CYCLES_PER_OPERATION)
    )

    def __post_init__(self) -> None:
        # NaN fails both comparisons.
        if not all_true((self.frequency_hz > 0) & (self.frequency_hz < math.inf)):
            raise ValueError("frequency must be finite and positive")
        for op in PEOperation:
            if op not in self.cycles_per_operation:
                raise ValueError(f"missing cycle cost for {op}")
            if self.cycles_per_operation[op] <= 0:
                raise ValueError(f"cycle cost for {op} must be positive")

    def cycles_for(self, mix: OperationMix) -> float:
        """Total PE cycles needed to execute an operation mix on one PE."""
        return float(
            sum(self.cycles_per_operation[op] * count for op, count in mix.counts.items())
        )

    def time_for(self, mix: OperationMix, num_pes: int = 1) -> float:
        """Seconds to execute ``mix`` spread evenly over ``num_pes`` PEs."""
        if num_pes < 1:
            raise ValueError("num_pes must be positive")
        return self.cycles_for(mix) / (num_pes * self.frequency_hz)

    def throughput_ops(self, operation: PEOperation, num_pes: int = 1) -> float:
        """Sustained operations/second for a single operation type."""
        return num_pes * self.frequency_hz / self.cycles_per_operation[operation]
