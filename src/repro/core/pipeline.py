"""Host / HMC batch pipeline (Sec. 4).

PIM-CapsNet processes a stream of batched input sets: while the HMC executes
the routing procedure of batch *k*, the host GPU already runs the Conv /
PrimaryCaps layers of batch *k+1* and the FC decoder of batch *k-1*.  In
steady state the per-batch latency is the longer of the two stages (plus the
contention each side suffers from sharing the cube, see
:mod:`repro.core.rmas`); the pipeline fill and drain expose one extra host
stage and one extra routing stage.

The same model also evaluates the non-pipelined baselines: the GPU-only
baseline simply runs both stages back to back, and All-in-PIM runs both
stages on the HMC back to back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.elementwise import any_true, maximum


@dataclass
class PipelineTiming:
    """Latency of processing ``num_batches`` batch groups.

    The stage times may be float64 arrays (one element per PE frequency of a
    vectorized sweep); every derived time is then an array too.

    Attributes:
        host_stage_time: per-batch host stage time (after contention).
        routing_stage_time: per-batch routing stage time (after contention).
        num_batches: batch groups processed.
        pipelined: whether the two stages overlapped.
    """

    host_stage_time: float
    routing_stage_time: float
    num_batches: int
    pipelined: bool

    @property
    def steady_state_time(self) -> float:
        """Per-batch latency once the pipeline is full."""
        if self.pipelined:
            return maximum(self.host_stage_time, self.routing_stage_time)
        return self.host_stage_time + self.routing_stage_time

    @property
    def total_time(self) -> float:
        """Latency of the whole stream including fill/drain."""
        if self.num_batches < 1:
            return 0.0
        if not self.pipelined:
            return self.num_batches * self.steady_state_time
        if self.num_batches == 1:
            return self.host_stage_time + self.routing_stage_time
        return (
            self.host_stage_time
            + (self.num_batches - 1) * self.steady_state_time
            + self.routing_stage_time
        )

    @property
    def average_batch_time(self) -> float:
        """Average per-batch latency over the stream."""
        if self.num_batches < 1:
            return 0.0
        return self.total_time / self.num_batches

    @property
    def bubble_time(self) -> float:
        """Per-batch idle time of the faster stage in steady state."""
        if not self.pipelined:
            return 0.0
        return abs(self.host_stage_time - self.routing_stage_time)


@dataclass(frozen=True)
class PipelineModel:
    """Builds :class:`PipelineTiming` instances for the evaluated designs.

    Attributes:
        num_batches: number of batch groups in the evaluated stream; the
            paper pipelines across batched input sets, and a moderate stream
            length exposes the fill/drain overhead that keeps the end-to-end
            speedup below the ideal ``T_total / max(stage)`` bound.
    """

    num_batches: int = 8

    def __post_init__(self) -> None:
        if self.num_batches < 1:
            raise ValueError("num_batches must be >= 1")

    def serial(self, host_time: float, routing_time: float) -> PipelineTiming:
        """Non-pipelined execution (GPU baseline, All-in-PIM).

        Either stage time may be a float64 array; no element may be negative.
        """
        self._validate(host_time, routing_time)
        return PipelineTiming(
            host_stage_time=host_time,
            routing_stage_time=routing_time,
            num_batches=self.num_batches,
            pipelined=False,
        )

    def pipelined(self, host_time: float, routing_time: float) -> PipelineTiming:
        """Pipelined host + HMC execution (PIM-CapsNet).

        Either stage time may be a float64 array; no element may be negative.
        """
        self._validate(host_time, routing_time)
        return PipelineTiming(
            host_stage_time=host_time,
            routing_stage_time=routing_time,
            num_batches=self.num_batches,
            pipelined=True,
        )

    @staticmethod
    def _validate(host_time: float, routing_time: float) -> None:
        if any_true(host_time < 0) or any_true(routing_time < 0):
            raise ValueError("stage times must be non-negative")

    @staticmethod
    def speedup(baseline: PipelineTiming, improved: PipelineTiming) -> float:
        """Speedup of one timing over another (same number of batches)."""
        if improved.total_time <= 0:
            return float("inf")
        return baseline.total_time / improved.total_time
