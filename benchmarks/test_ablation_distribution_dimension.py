"""Ablation: the execution-score based dimension selection (Sec. 5.1.2).

Compares the distributor's automatic dimension choice against naively fixing
each of the three dimensions for every benchmark: the automatic choice must
match the best fixed dimension (that is exactly what the execution score is
for), and the worst fixed dimension shows how much performance is at stake.
"""

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.core.accelerator import DesignPoint, PIMCapsNet
from repro.workloads.benchmarks import BENCHMARKS
from repro.workloads.parallelism import Dimension


def _run():
    rows = []
    for name in BENCHMARKS:
        baseline = PIMCapsNet(name).simulate_routing(DesignPoint.BASELINE_GPU)
        auto = PIMCapsNet(name).simulate_routing(DesignPoint.PIM_CAPSNET)
        fixed = {
            dimension: PIMCapsNet(name, force_dimension=dimension).simulate_routing(
                DesignPoint.PIM_CAPSNET
            )
            for dimension in Dimension
        }
        speedups = {d: r.speedup_over(baseline) for d, r in fixed.items()}
        rows.append(
            {
                "benchmark": name,
                "auto_dimension": auto.dimension.value,
                "auto_speedup": auto.speedup_over(baseline),
                "best_fixed": max(speedups.values()),
                "worst_fixed": min(speedups.values()),
                **{f"speedup_{d.value}": s for d, s in speedups.items()},
            }
        )
    return rows


def test_ablation_distribution_dimension(save_report):
    rows = _run()
    table = format_table(
        ["Benchmark", "auto dim", "auto", "B", "L", "H", "worst fixed"],
        [
            [
                r["benchmark"],
                r["auto_dimension"],
                r["auto_speedup"],
                r["speedup_B"],
                r["speedup_L"],
                r["speedup_H"],
                r["worst_fixed"],
            ]
            for r in rows
        ],
        title="Ablation -- inter-vault distribution dimension selection",
    )
    save_report("ablation_distribution_dimension", table)

    assert len(rows) == 12
    for r in rows:
        # The intelligent distributor always matches the best fixed dimension.
        assert r["auto_speedup"] >= r["best_fixed"] - 1e-9
    # Picking the wrong dimension costs real performance on average.
    average_gap = arithmetic_mean([r["best_fixed"] / r["worst_fixed"] for r in rows])
    assert average_gap > 1.5
