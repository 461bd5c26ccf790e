"""Fig. 6: routing intermediates vs. GPU on-chip storage.

* Fig. 6(a): the ratio of the RP's non-shareable intermediate variables to
  the on-chip storage of four GPU generations (K40m 1.73 MB, P100 5.31 MB,
  RTX 2080Ti 9.75 MB, V100 16 MB) -- the intermediates exceed on-chip
  storage by 40x-300x.
* Fig. 6(b): the RP performance obtained by only scaling the on-chip storage
  to those sizes -- at most ~1.14x, because the dominant prediction vectors
  still do not fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.engine.context import SimulationContext
from repro.engine.experiment import Experiment, register_experiment
from repro.gpu.devices import GPU_DEVICES, ONCHIP_STORAGE_SWEEP
from repro.gpu.simulator import GPUSimulator
from repro.workloads.rp_model import RoutingWorkload


@dataclass
class OnChipStorageRow:
    """One benchmark's ratios (Fig. 6a) and normalized performance (Fig. 6b)."""

    benchmark: str
    intermediate_bytes: int
    ratio_by_device: Dict[str, float]
    normalized_performance_by_device: Dict[str, float]


@dataclass
class OnChipStorageResult:
    """All benchmarks plus per-device averages."""

    rows: List[OnChipStorageRow]
    devices: List[str]
    average_ratio_by_device: Dict[str, float]
    average_performance_by_device: Dict[str, float]


def run(
    benchmarks: Optional[List[str]] = None,
    devices: Optional[List[str]] = None,
    context: Optional[SimulationContext] = None,
) -> OnChipStorageResult:
    """Run the Fig. 6 characterization.

    The performance sweep keeps the scenario host GPU's compute/bandwidth and
    only changes the on-chip storage, isolating the variable the figure
    studies.
    """
    ctx = context or SimulationContext()
    scenario = ctx.scenario
    names = ctx.select_benchmarks(benchmarks)
    device_names = devices or list(ONCHIP_STORAGE_SWEEP)
    baseline = scenario.gpu

    def _row(name: str) -> OnChipStorageRow:
        routing = RoutingWorkload(ctx.benchmark_config(name))
        footprint = routing.footprint()
        ratios: Dict[str, float] = {}
        performance: Dict[str, float] = {}
        reference_time: Optional[float] = None
        for device_name in device_names:
            storage = GPU_DEVICES[device_name].onchip_storage_bytes
            ratios[device_name] = footprint.ratio_to_storage(storage)
            simulator = GPUSimulator(baseline.with_onchip_storage(storage), scenario.gpu_params)
            time = simulator.simulate_routing(routing).total_time
            if reference_time is None:
                reference_time = time
            performance[device_name] = reference_time / time
        return OnChipStorageRow(
            benchmark=name,
            intermediate_bytes=footprint.intermediate_bytes,
            ratio_by_device=ratios,
            normalized_performance_by_device=performance,
        )

    rows = [_row(name) for name in names]
    return OnChipStorageResult(
        rows=rows,
        devices=device_names,
        average_ratio_by_device={
            device: arithmetic_mean([row.ratio_by_device[device] for row in rows])
            for device in device_names
        },
        average_performance_by_device={
            device: arithmetic_mean([row.normalized_performance_by_device[device] for row in rows])
            for device in device_names
        },
    )


def format_report(result: OnChipStorageResult) -> str:
    """Render the Fig. 6a ratios and Fig. 6b normalized performance."""
    ratio_table = format_table(
        headers=["Benchmark", "Intermediates (MB)"] + [f"ratio {d}" for d in result.devices],
        rows=[
            [row.benchmark, row.intermediate_bytes / 1e6]
            + [row.ratio_by_device[d] for d in result.devices]
            for row in result.rows
        ],
        title="Fig. 6(a) -- intermediate variables vs. on-chip storage",
    )
    perf_table = format_table(
        headers=["Benchmark"] + [f"perf {d}" for d in result.devices],
        rows=[
            [row.benchmark] + [row.normalized_performance_by_device[d] for d in result.devices]
            for row in result.rows
        ],
        title="Fig. 6(b) -- RP performance vs. on-chip storage (normalized to the smallest)",
    )
    best_device = result.devices[-1]
    return (
        f"{ratio_table}\n\n{perf_table}\n"
        f"Average normalized RP performance on {best_device}: "
        f"{result.average_performance_by_device[best_device]:.3f}x (paper: up to ~1.14x)"
    )


@register_experiment
class Fig06Experiment(Experiment):
    """Fig. 6 -- routing intermediates vs. GPU on-chip storage."""

    name = "fig06"
    title = "Fig. 6 -- intermediate variables vs. on-chip storage"

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
