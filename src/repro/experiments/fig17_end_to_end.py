"""Fig. 17: end-to-end CapsNet inference speedup and energy.

The paper compares the whole-inference latency and energy of:

* the GPU baseline,
* All-in-PIM (the entire network on the HMC),
* RMAS-PIM / RMAS-GPU (pipelined execution with naive memory arbitration),
* PIM-CapsNet (pipelined execution with the runtime memory access scheduler),

reporting a 2.44x average speedup and 64.91% energy saving for PIM-CapsNet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.core.accelerator import DesignPoint
from repro.engine.context import SimulationContext
from repro.engine.experiment import Experiment, register_experiment
from repro.engine.strategies import design_key, headline_design, resolve_designs

#: Design points plotted by Fig. 17 (the paper default; a scenario's
#: ``designs`` selection replaces the non-baseline entries).
FIG17_DESIGNS = [
    DesignPoint.BASELINE_GPU,
    DesignPoint.ALL_IN_PIM,
    DesignPoint.RMAS_PIM,
    DesignPoint.RMAS_GPU,
    DesignPoint.PIM_CAPSNET,
]

DesignLike = Union[DesignPoint, str]


@dataclass
class EndToEndRow:
    """One benchmark's bars (speedup and normalized energy per design point)."""

    benchmark: str
    speedup: Dict[DesignLike, float]
    normalized_energy: Dict[DesignLike, float]


@dataclass
class EndToEndResult:
    """All benchmarks plus the headline PIM-CapsNet averages."""

    rows: List[EndToEndRow]
    average_speedup: float
    max_speedup: float
    average_energy_saving: float
    average_all_in_pim_speedup: float
    designs: List[DesignLike] = field(default_factory=lambda: list(FIG17_DESIGNS))


def run(
    benchmarks: Optional[List[str]] = None, context: Optional[SimulationContext] = None
) -> EndToEndResult:
    """Run the Fig. 17 comparison (hardware and design selection from the
    context scenario)."""
    ctx = context or SimulationContext()
    names = ctx.select_benchmarks(benchmarks)
    designs = resolve_designs(ctx.scenario.designs, FIG17_DESIGNS)
    headline = headline_design(designs)

    def _row(name: str) -> EndToEndRow:
        results = {design: ctx.end_to_end(name, design) for design in designs}
        baseline = results[DesignPoint.BASELINE_GPU]
        return EndToEndRow(
            benchmark=name,
            speedup={d: r.speedup_over(baseline) for d, r in results.items()},
            normalized_energy={
                d: r.energy_joules / baseline.energy_joules for d, r in results.items()
            },
        )

    rows = [_row(name) for name in names]
    pim_speedups = [row.speedup[headline] for row in rows]
    pim_savings = [1.0 - row.normalized_energy[headline] for row in rows]
    return EndToEndResult(
        rows=rows,
        average_speedup=arithmetic_mean(pim_speedups),
        max_speedup=max(pim_speedups),
        average_energy_saving=arithmetic_mean(pim_savings),
        average_all_in_pim_speedup=(
            arithmetic_mean([row.speedup[DesignPoint.ALL_IN_PIM] for row in rows])
            if DesignPoint.ALL_IN_PIM in designs
            else float("nan")
        ),
        designs=designs,
    )


def format_report(result: EndToEndResult) -> str:
    """Render the Fig. 17 bars."""
    designs = result.designs
    headline = headline_design(designs)
    label = "PIM-CapsNet" if headline is DesignPoint.PIM_CAPSNET else design_key(headline)
    speedup_table = format_table(
        headers=["Benchmark"] + [design_key(design) for design in designs],
        rows=[
            [row.benchmark] + [row.speedup[design] for design in designs]
            for row in result.rows
        ],
        title="Fig. 17(a) -- end-to-end speedup over the GPU baseline",
    )
    energy_table = format_table(
        headers=["Benchmark"] + [design_key(design) for design in designs],
        rows=[
            [row.benchmark] + [row.normalized_energy[design] for design in designs]
            for row in result.rows
        ],
        title="Fig. 17(b) -- end-to-end energy normalized to the GPU baseline",
    )
    report = (
        f"{speedup_table}\n\n{energy_table}\n"
        f"Average {label} speedup: {result.average_speedup:.2f}x "
        f"(paper: 2.44x, up to 2.76x; measured max {result.max_speedup:.2f}x)\n"
        f"Average {label} energy saving: {100.0 * result.average_energy_saving:.2f}% "
        f"(paper: 64.91%)"
    )
    if DesignPoint.ALL_IN_PIM in designs:
        report += (
            f"\nAverage All-in-PIM speedup: {result.average_all_in_pim_speedup:.2f}x "
            f"(paper: 0.52x -- see EXPERIMENTS.md for the known deviation)"
        )
    return report


@register_experiment
class Fig17Experiment(Experiment):
    """Fig. 17 -- end-to-end CapsNet inference speedup and energy."""

    name = "fig17"
    title = "Fig. 17 -- end-to-end speedup and energy"

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
