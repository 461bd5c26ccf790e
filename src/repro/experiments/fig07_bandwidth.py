"""Fig. 7: impact of off-chip memory bandwidth on RP performance.

The paper sweeps the memory technology -- GDDR5 288 GB/s, GDDR5X 484 GB/s,
GDDR6 616 GB/s, HBM2 897 GB/s -- and observes that even the 3.1x bandwidth
increase only improves the RP by ~26% on average: higher bandwidth does not
remove the intensity of the off-chip accesses, the latency-bound portion or
the synchronizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.engine.context import SimulationContext
from repro.engine.experiment import Experiment, register_experiment
from repro.gpu.devices import GPU_DEVICES, BANDWIDTH_SWEEP
from repro.gpu.simulator import GPUSimulator
from repro.workloads.rp_model import RoutingWorkload


@dataclass
class BandwidthRow:
    """One benchmark's normalized RP performance per memory technology."""

    benchmark: str
    normalized_performance: Dict[str, float]


@dataclass
class BandwidthResult:
    """All benchmarks plus the per-technology average."""

    rows: List[BandwidthRow]
    technologies: List[str]
    bandwidths_gbs: Dict[str, float]
    average_by_technology: Dict[str, float]


def run(
    benchmarks: Optional[List[str]] = None,
    devices: Optional[List[str]] = None,
    context: Optional[SimulationContext] = None,
) -> BandwidthResult:
    """Run the Fig. 7 sweep (bandwidth only; compute and storage stay at the scenario host)."""
    ctx = context or SimulationContext()
    scenario = ctx.scenario
    names = ctx.select_benchmarks(benchmarks)
    device_names = devices or list(BANDWIDTH_SWEEP)
    baseline = scenario.gpu
    technologies = [GPU_DEVICES[d].memory_technology.value for d in device_names]
    bandwidths = {
        GPU_DEVICES[d].memory_technology.value: GPU_DEVICES[d].memory_bandwidth_gbs
        for d in device_names
    }

    def _row(name: str) -> BandwidthRow:
        routing = RoutingWorkload(ctx.benchmark_config(name))
        reference_time: Optional[float] = None
        normalized: Dict[str, float] = {}
        for device_name in device_names:
            technology = GPU_DEVICES[device_name].memory_technology.value
            bandwidth = GPU_DEVICES[device_name].memory_bandwidth_gbs
            simulator = GPUSimulator(baseline.with_memory_bandwidth(bandwidth), scenario.gpu_params)
            time = simulator.simulate_routing(routing).total_time
            if reference_time is None:
                reference_time = time
            normalized[technology] = reference_time / time
        return BandwidthRow(benchmark=name, normalized_performance=normalized)

    rows = [_row(name) for name in names]
    return BandwidthResult(
        rows=rows,
        technologies=technologies,
        bandwidths_gbs=bandwidths,
        average_by_technology={
            tech: arithmetic_mean([row.normalized_performance[tech] for row in rows])
            for tech in technologies
        },
    )


def format_report(result: BandwidthResult) -> str:
    """Render the Fig. 7 series."""
    table = format_table(
        headers=["Benchmark"]
        + [f"{tech} ({result.bandwidths_gbs[tech]:.0f} GB/s)" for tech in result.technologies],
        rows=[
            [row.benchmark] + [row.normalized_performance[tech] for tech in result.technologies]
            for row in result.rows
        ],
        title="Fig. 7 -- normalized RP performance vs. memory bandwidth",
    )
    best = result.technologies[-1]
    return (
        f"{table}\n"
        f"Average RP improvement with {best}: "
        f"{result.average_by_technology[best]:.3f}x (paper: ~1.26x)"
    )


@register_experiment
class Fig07Experiment(Experiment):
    """Fig. 7 -- impact of off-chip memory bandwidth on RP performance."""

    name = "fig07"
    title = "Fig. 7 -- normalized RP performance vs. memory bandwidth"

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
