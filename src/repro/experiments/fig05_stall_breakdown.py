"""Fig. 5: pipeline-stall breakdown of the routing procedure on the GPU.

The paper profiles the contributions of memory access, barrier
synchronization, lack of resources, instruction fetch and other causes to
the pipeline stalls during RP execution; memory access (~44.6%) and
synchronization (~34.5%) dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.engine.context import SimulationContext
from repro.engine.experiment import Experiment, register_experiment
from repro.gpu.devices import GPUDevice
from repro.gpu.kernels import StallClass
from repro.gpu.simulator import GPUSimulator
from repro.workloads.layers_model import CapsNetWorkload


@dataclass
class StallBreakdownRow:
    """One bar of Fig. 5."""

    benchmark: str
    fractions: Dict[StallClass, float]
    alu_utilization: float
    ldst_utilization: float


@dataclass
class StallBreakdownResult:
    """All bars plus the averages the paper quotes in the text."""

    rows: List[StallBreakdownRow]
    average_memory_fraction: float
    average_sync_fraction: float
    average_alu_utilization: float
    average_ldst_utilization: float


def run(
    device: Optional[GPUDevice] = None,
    benchmarks: Optional[List[str]] = None,
    context: Optional[SimulationContext] = None,
) -> StallBreakdownResult:
    """Run the Fig. 5 characterization (on the context scenario's host GPU)."""
    ctx = context or SimulationContext()
    scenario = ctx.scenario
    gpu = device if device is not None else scenario.gpu
    names = ctx.select_benchmarks(benchmarks)

    def _row(name: str) -> StallBreakdownRow:
        simulator = GPUSimulator(gpu, scenario.gpu_params)
        workload = CapsNetWorkload(ctx.benchmark_config(name))
        profile = simulator.simulate_routing(workload.routing)
        return StallBreakdownRow(
            benchmark=name,
            fractions={cls: profile.stalls.fraction(cls) for cls in StallClass},
            alu_utilization=profile.alu_utilization,
            ldst_utilization=profile.ldst_utilization,
        )

    rows = [_row(name) for name in names]
    return StallBreakdownResult(
        rows=rows,
        average_memory_fraction=arithmetic_mean(
            [row.fractions[StallClass.MEMORY_ACCESS] for row in rows]
        ),
        average_sync_fraction=arithmetic_mean(
            [row.fractions[StallClass.SYNCHRONIZATION] for row in rows]
        ),
        average_alu_utilization=arithmetic_mean([row.alu_utilization for row in rows]),
        average_ldst_utilization=arithmetic_mean([row.ldst_utilization for row in rows]),
    )


def format_report(result: StallBreakdownResult) -> str:
    """Render the Fig. 5 rows as a table."""
    headers = ["Benchmark"] + [cls.value for cls in StallClass] + ["ALU util", "LDST util"]
    rows = [
        [row.benchmark]
        + [row.fractions[cls] for cls in StallClass]
        + [row.alu_utilization, row.ldst_utilization]
        for row in result.rows
    ]
    table = format_table(headers, rows, title="Fig. 5 -- RP pipeline stall breakdown on the GPU")
    return (
        f"{table}\n"
        f"Average memory-access stall share: {100.0 * result.average_memory_fraction:.2f}% (paper: 44.64%)\n"
        f"Average synchronization stall share: {100.0 * result.average_sync_fraction:.2f}% (paper: 34.45%)"
    )


@register_experiment
class Fig05Experiment(Experiment):
    """Fig. 5 -- RP pipeline-stall breakdown on the GPU."""

    name = "fig05"
    title = "Fig. 5 -- RP pipeline stall breakdown on the GPU"

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
