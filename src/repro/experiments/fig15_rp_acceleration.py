"""Fig. 15: routing-procedure speedup and energy of PIM-CapsNet.

The paper compares the RP execution of the GPU baseline, the GPU with an
ideal cache replacement policy (GPU-ICP) and PIM-CapsNet: PIM-CapsNet is
~2.17x faster on average and saves ~92% of the RP energy, while GPU-ICP
barely helps (~1% on both).
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

#: Design points plotted by Fig. 15 (the paper default; a scenario's
#: ``designs`` selection replaces the non-baseline entries).
FIG15_DESIGNS = [DesignPoint.BASELINE_GPU, DesignPoint.GPU_ICP, DesignPoint.PIM_CAPSNET]

DesignLike = Union[DesignPoint, str]


@dataclass
class RPAccelerationRow:
    """One benchmark's bars (speedup and normalized energy)."""

    benchmark: str
    speedup: Dict[DesignLike, float]
    normalized_energy: Dict[DesignLike, float]
    chosen_dimension: str


@dataclass
class RPAccelerationResult:
    """All benchmarks plus the headline averages."""

    rows: List[RPAccelerationRow]
    average_speedup: float
    max_speedup: float
    average_energy_saving: float
    designs: List[DesignLike] = field(default_factory=lambda: list(FIG15_DESIGNS))


def run(
    benchmarks: Optional[List[str]] = None, context: Optional[SimulationContext] = None
) -> RPAccelerationResult:
    """Run the Fig. 15 comparison.

    Args:
        benchmarks: benchmark names (the scenario's selection, then all of
            Table 1, by default).
        context: shared simulation context (a private one by default);
            its scenario supplies the hardware and the optional design-point
            selection, and routing results already computed by other
            experiments are reused.
    """
    ctx = context or SimulationContext()
    names = ctx.select_benchmarks(benchmarks)
    designs = resolve_designs(ctx.scenario.designs, FIG15_DESIGNS)
    headline = headline_design(designs)

    def _row(name: str) -> RPAccelerationRow:
        results = {design: ctx.routing(name, design) for design in designs}
        baseline = results[DesignPoint.BASELINE_GPU]
        chosen = results[headline].dimension
        return RPAccelerationRow(
            benchmark=name,
            speedup={
                design: result.speedup_over(baseline) for design, result in results.items()
            },
            normalized_energy={
                design: result.energy_joules / baseline.energy_joules
                for design, result in results.items()
            },
            chosen_dimension=chosen.value if chosen else "-",
        )

    rows = [_row(name) for name in names]
    pim_speedups = [row.speedup[headline] for row in rows]
    pim_savings = [1.0 - row.normalized_energy[headline] for row in rows]
    return RPAccelerationResult(
        rows=rows,
        average_speedup=arithmetic_mean(pim_speedups),
        max_speedup=max(pim_speedups),
        average_energy_saving=arithmetic_mean(pim_savings),
        designs=designs,
    )


def format_report(result: RPAccelerationResult) -> str:
    """Render the Fig. 15 bars."""
    if result.designs == FIG15_DESIGNS:
        # Paper default: the classic (golden) three-column layout.
        table = format_table(
            headers=[
                "Benchmark",
                "Baseline",
                "GPU-ICP speedup",
                "PIM-CapsNet speedup",
                "PIM energy (norm.)",
                "dimension",
            ],
            rows=[
                [
                    row.benchmark,
                    row.speedup[DesignPoint.BASELINE_GPU],
                    row.speedup[DesignPoint.GPU_ICP],
                    row.speedup[DesignPoint.PIM_CAPSNET],
                    row.normalized_energy[DesignPoint.PIM_CAPSNET],
                    row.chosen_dimension,
                ]
                for row in result.rows
            ],
            title="Fig. 15 -- RP speedup and normalized energy",
        )
        label = "PIM-CapsNet"
    else:
        # Scenario design-point selection: one speedup/energy column pair per
        # evaluated design.
        label = design_key(headline_design(result.designs))
        table = format_table(
            headers=["Benchmark"]
            + [f"{design_key(design)} speedup" for design in result.designs]
            + [f"{design_key(design)} energy" for design in result.designs]
            + ["dimension"],
            rows=[
                [row.benchmark]
                + [row.speedup[design] for design in result.designs]
                + [row.normalized_energy[design] for design in result.designs]
                + [row.chosen_dimension]
                for row in result.rows
            ],
            title="Fig. 15 -- RP speedup and normalized energy",
        )
    return (
        f"{table}\n"
        f"Average {label} RP speedup: {result.average_speedup:.2f}x "
        f"(paper: 2.17x, up to 2.27x; measured max {result.max_speedup:.2f}x)\n"
        f"Average {label} RP energy saving: {100.0 * result.average_energy_saving:.2f}% "
        f"(paper: 92.18%)"
    )


@register_experiment
class Fig15Experiment(Experiment):
    """Fig. 15 -- routing-procedure speedup and energy of PIM-CapsNet."""

    name = "fig15"
    title = "Fig. 15 -- RP speedup and normalized energy"

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
