"""Fig. 16: effectiveness of the intra-vault and inter-vault designs.

The paper compares three PIM design points on the RP alone:

* **PIM-Intra** -- intra-vault design only: inter-vault communication
  (crossbar) dominates (~45% of its time), still ~1.22x over the baseline.
* **PIM-Inter** -- inter-vault design only: vault request stalls from bank
  conflicts dominate (~58% of its time), ending slightly slower than the
  GPU baseline.
* **PIM-CapsNet** -- both levels: little crossbar time and few stalls.

Fig. 16(b) plots the corresponding energy, split into execution (PEs), DRAM,
crossbar and vault (controllers + static) energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.core.accelerator import DesignPoint
from repro.engine.context import SimulationContext
from repro.engine.experiment import Experiment, register_experiment

#: PIM design points plotted by Fig. 16.
FIG16_DESIGNS = [DesignPoint.PIM_INTRA, DesignPoint.PIM_INTER, DesignPoint.PIM_CAPSNET]


@dataclass
class PIMBreakdownRow:
    """One benchmark's time/energy decomposition per PIM design point."""

    benchmark: str
    normalized_time: Dict[DesignPoint, Dict[str, float]]
    normalized_energy: Dict[DesignPoint, Dict[str, float]]


@dataclass
class PIMBreakdownResult:
    """All benchmarks plus the averages discussed in the paper's text."""

    rows: List[PIMBreakdownRow]
    average_intra_crossbar_share: float
    average_inter_vrs_share: float
    average_speedup_over_intra: float
    average_speedup_over_inter: float


def run(
    benchmarks: Optional[List[str]] = None, context: Optional[SimulationContext] = None
) -> PIMBreakdownResult:
    """Run the Fig. 16 comparison (times normalized to the GPU baseline).

    The hardware comes from the context scenario; the design points stay
    fixed (the breakdown components are specific to these three designs).
    """
    ctx = context or SimulationContext()
    names = ctx.select_benchmarks(benchmarks)

    rows: List[PIMBreakdownRow] = []
    intra_shares: List[float] = []
    inter_shares: List[float] = []
    speedup_vs_intra: List[float] = []
    speedup_vs_inter: List[float] = []
    for name in names:
        baseline = ctx.routing(name, DesignPoint.BASELINE_GPU)
        results = {design: ctx.routing(name, design) for design in FIG16_DESIGNS}
        normalized_time: Dict[DesignPoint, Dict[str, float]] = {}
        normalized_energy: Dict[DesignPoint, Dict[str, float]] = {}
        for design, result in results.items():
            normalized_time[design] = {
                component: value / baseline.time_seconds
                for component, value in result.time_components.items()
            }
            normalized_energy[design] = {
                component: value / baseline.energy_joules
                for component, value in result.energy_components.items()
            }
        rows.append(
            PIMBreakdownRow(
                benchmark=name,
                normalized_time=normalized_time,
                normalized_energy=normalized_energy,
            )
        )
        intra = results[DesignPoint.PIM_INTRA]
        inter = results[DesignPoint.PIM_INTER]
        pim = results[DesignPoint.PIM_CAPSNET]
        intra_shares.append(intra.time_components["xbar"] / intra.time_seconds)
        inter_shares.append(inter.time_components["vrs"] / inter.time_seconds)
        speedup_vs_intra.append(intra.time_seconds / pim.time_seconds)
        speedup_vs_inter.append(inter.time_seconds / pim.time_seconds)
    return PIMBreakdownResult(
        rows=rows,
        average_intra_crossbar_share=arithmetic_mean(intra_shares),
        average_inter_vrs_share=arithmetic_mean(inter_shares),
        average_speedup_over_intra=arithmetic_mean(speedup_vs_intra),
        average_speedup_over_inter=arithmetic_mean(speedup_vs_inter),
    )


def format_report(result: PIMBreakdownResult) -> str:
    """Render the Fig. 16 stacked bars (normalized to the GPU baseline)."""
    time_rows = []
    energy_rows = []
    for row in result.rows:
        for design in FIG16_DESIGNS:
            time = row.normalized_time[design]
            time_rows.append(
                [
                    row.benchmark,
                    design.value,
                    time.get("execution", 0.0),
                    time.get("xbar", 0.0),
                    time.get("vrs", 0.0),
                    sum(time.values()),
                ]
            )
            energy = row.normalized_energy[design]
            energy_rows.append(
                [
                    row.benchmark,
                    design.value,
                    energy.get("execution", 0.0),
                    energy.get("dram", 0.0),
                    energy.get("crossbar", 0.0),
                    energy.get("vault", 0.0),
                    sum(energy.values()),
                ]
            )
    time_table = format_table(
        headers=["Benchmark", "Design", "Execution", "X-bar", "VRS", "Total"],
        rows=time_rows,
        title="Fig. 16(a) -- RP time breakdown normalized to the GPU baseline",
    )
    energy_table = format_table(
        headers=["Benchmark", "Design", "Execution", "DRAM", "XBAR", "Vault", "Total"],
        rows=energy_rows,
        title="Fig. 16(b) -- RP energy breakdown normalized to the GPU baseline",
    )
    return (
        f"{time_table}\n\n{energy_table}\n"
        f"Average crossbar share of PIM-Intra time: "
        f"{100.0 * result.average_intra_crossbar_share:.1f}% (paper: 45.24%)\n"
        f"Average VRS share of PIM-Inter time: "
        f"{100.0 * result.average_inter_vrs_share:.1f}% (paper: 57.91%)\n"
        f"PIM-CapsNet speedup over PIM-Intra / PIM-Inter: "
        f"{result.average_speedup_over_intra:.2f}x / {result.average_speedup_over_inter:.2f}x "
        f"(paper: 1.77x / 2.28x)"
    )


@register_experiment
class Fig16Experiment(Experiment):
    """Fig. 16 -- effectiveness of the intra-vault and inter-vault designs."""

    name = "fig16"
    title = "Fig. 16 -- RP time/energy breakdown of the PIM design points"

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
