"""Fig. 4: per-layer execution time breakdown of CapsNet inference on the GPU.

The paper stacks the time of the Conv layer, the L-Caps (PrimaryCaps) layer,
the H-Caps layer (the routing procedure) and the FC decoder for every
benchmark, and overlays the absolute inference time.  The headline number is
that the routing procedure accounts for ~74.6% of the inference time on
average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.engine.context import SimulationContext
from repro.engine.experiment import Experiment, register_experiment
from repro.gpu.devices import GPUDevice
from repro.gpu.simulator import GPUSimulator
from repro.workloads.layers_model import CapsNetWorkload, LayerKind


@dataclass
class LayerBreakdownRow:
    """One bar of Fig. 4."""

    benchmark: str
    total_time_s: float
    fraction_conv: float
    fraction_primary_caps: float
    fraction_routing: float
    fraction_fc: float

    def as_tuple(self) -> tuple:
        return (
            self.benchmark,
            self.total_time_s,
            self.fraction_conv,
            self.fraction_primary_caps,
            self.fraction_routing,
            self.fraction_fc,
        )


@dataclass
class LayerBreakdownResult:
    """All bars plus the headline average routing share."""

    rows: List[LayerBreakdownRow]
    average_routing_fraction: float


def run(
    device: Optional[GPUDevice] = None,
    benchmarks: Optional[List[str]] = None,
    context: Optional[SimulationContext] = None,
) -> LayerBreakdownResult:
    """Run the Fig. 4 characterization.

    Args:
        device: GPU model (the context scenario's host GPU by default).
        benchmarks: benchmark names (the scenario's selection, then all of
            Table 1, by default).
        context: engine context supplying the scenario (paper-default
            scenario when omitted).
    """
    ctx = context or SimulationContext()
    scenario = ctx.scenario
    gpu = device if device is not None else scenario.gpu
    names = ctx.select_benchmarks(benchmarks)

    def _row(name: str) -> LayerBreakdownRow:
        simulator = GPUSimulator(gpu, scenario.gpu_params)
        workload = CapsNetWorkload(ctx.benchmark_config(name))
        timing = simulator.simulate(workload)
        fractions: Dict[LayerKind, float] = timing.fraction_by_kind()
        return LayerBreakdownRow(
            benchmark=name,
            total_time_s=timing.total_time,
            fraction_conv=fractions[LayerKind.CONV],
            fraction_primary_caps=fractions[LayerKind.PRIMARY_CAPS],
            fraction_routing=fractions[LayerKind.ROUTING],
            fraction_fc=fractions[LayerKind.FULLY_CONNECTED],
        )

    rows = [_row(name) for name in names]
    average = arithmetic_mean([row.fraction_routing for row in rows])
    return LayerBreakdownResult(rows=rows, average_routing_fraction=average)


def format_report(result: LayerBreakdownResult) -> str:
    """Render the Fig. 4 rows as a table."""
    table = format_table(
        headers=["Benchmark", "Total (s)", "Conv", "L Caps", "H Caps (RP)", "FC"],
        rows=[row.as_tuple() for row in result.rows],
        title="Fig. 4 -- CapsNet inference time breakdown on the GPU",
    )
    return (
        f"{table}\n"
        f"Average routing-procedure share: {100.0 * result.average_routing_fraction:.2f}% "
        f"(paper: 74.62%)"
    )


@register_experiment
class Fig04Experiment(Experiment):
    """Fig. 4 -- per-layer execution time breakdown on the GPU."""

    name = "fig04"
    title = "Fig. 4 -- CapsNet inference time breakdown on the GPU"

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
