"""Fig. 18: distribution-dimension speedup heat map vs. PE frequency.

For every benchmark and every PE frequency (312.5, 625, 937.5 MHz) the paper
plots the RP speedup obtained when forcing the inter-vault distribution onto
each of the three dimensions.  Two effects are visible: higher frequency
helps across the board, and the best dimension can change with frequency
(compute shrinks with frequency while inter-vault communication does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.core.accelerator import DesignPoint
from repro.engine.context import SimulationContext
from repro.engine.experiment import Experiment, register_experiment
from repro.workloads.parallelism import Dimension

#: PE frequencies swept by Fig. 18 (MHz).
FIG18_FREQUENCIES_MHZ = (312.5, 625.0, 937.5)


@dataclass
class FrequencySweepCell:
    """Speedup of one (benchmark, frequency, dimension) cell."""

    benchmark: str
    frequency_mhz: float
    dimension: Dimension
    speedup: float


@dataclass
class FrequencySweepResult:
    """The whole heat map plus the per-(benchmark, frequency) best dimension."""

    cells: List[FrequencySweepCell]
    best_dimension: Dict[Tuple[str, float], Dimension]
    benchmarks: List[str]
    frequencies_mhz: Tuple[float, ...]

    def speedup(self, benchmark: str, frequency_mhz: float, dimension: Dimension) -> float:
        """Look up one cell of the heat map."""
        for cell in self.cells:
            if (
                cell.benchmark == benchmark
                and cell.frequency_mhz == frequency_mhz
                and cell.dimension == dimension
            ):
                return cell.speedup
        raise KeyError((benchmark, frequency_mhz, dimension))

    def dimension_changes_with_frequency(self) -> List[str]:
        """Benchmarks whose best dimension differs across the swept frequencies."""
        changed = []
        for benchmark in self.benchmarks:
            dims = {self.best_dimension[(benchmark, f)] for f in self.frequencies_mhz}
            if len(dims) > 1:
                changed.append(benchmark)
        return changed


def run(
    benchmarks: Optional[List[str]] = None,
    frequencies_mhz: Tuple[float, ...] = FIG18_FREQUENCIES_MHZ,
    context: Optional[SimulationContext] = None,
) -> FrequencySweepResult:
    """Run the Fig. 18 sweep.

    Each swept frequency applies on top of the context scenario's HMC
    configuration (geometry, bandwidth and PE count stay scenario-defined).
    """
    ctx = context or SimulationContext()
    names = ctx.select_benchmarks(benchmarks)

    cells: List[FrequencySweepCell] = []
    best: Dict[Tuple[str, float], Dimension] = {}
    for name in names:
        for frequency in frequencies_mhz:
            baseline = ctx.routing(
                name, DesignPoint.BASELINE_GPU, pe_frequency_mhz=frequency
            )
            best_speedup = 0.0
            for dimension in Dimension:
                result = ctx.routing(
                    name,
                    DesignPoint.PIM_CAPSNET,
                    pe_frequency_mhz=frequency,
                    force_dimension=dimension,
                )
                value = result.speedup_over(baseline)
                cells.append(
                    FrequencySweepCell(
                        benchmark=name,
                        frequency_mhz=frequency,
                        dimension=dimension,
                        speedup=value,
                    )
                )
                if value > best_speedup:
                    best_speedup = value
                    best[(name, frequency)] = dimension
    return FrequencySweepResult(
        cells=cells,
        best_dimension=best,
        benchmarks=names,
        frequencies_mhz=tuple(frequencies_mhz),
    )


def format_report(result: FrequencySweepResult) -> str:
    """Render the Fig. 18 heat map as a table (one row per benchmark)."""
    headers = ["Benchmark"]
    for frequency in result.frequencies_mhz:
        for dimension in Dimension:
            headers.append(f"{frequency:.0f}MHz/{dimension.value}")
        headers.append(f"{frequency:.0f}MHz best")
    rows = []
    for benchmark in result.benchmarks:
        row: List[object] = [benchmark]
        for frequency in result.frequencies_mhz:
            for dimension in Dimension:
                row.append(result.speedup(benchmark, frequency, dimension))
            row.append(result.best_dimension[(benchmark, frequency)].value)
        rows.append(row)
    table = format_table(headers, rows, title="Fig. 18 -- RP speedup by distribution dimension and PE frequency")
    changed = result.dimension_changes_with_frequency()
    return (
        f"{table}\n"
        f"Benchmarks whose best dimension changes with frequency: "
        f"{', '.join(changed) if changed else 'none'}"
    )


@register_experiment
class Fig18Experiment(Experiment):
    """Fig. 18 -- distribution-dimension speedup vs. PE frequency."""

    name = "fig18"
    title = "Fig. 18 -- RP speedup by distribution dimension and PE frequency"

    def run(self, context, benchmarks=None):
        return run(benchmarks=benchmarks, context=context)

    def format_report(self, result):
        return format_report(result)
