"""Ablation: pipelining depth and the runtime memory access scheduler (Sec. 4 / 5.3.2)."""

from repro.analysis.tables import format_table
from repro.core.accelerator import DesignPoint, PIMCapsNet
from repro.core.pipeline import PipelineModel

BENCHMARK = "Caps-MN1"
DEPTHS = (1, 2, 4, 8, 16)


def _run():
    rows = []
    for depth in DEPTHS:
        accelerator = PIMCapsNet(BENCHMARK, pipeline=PipelineModel(num_batches=depth))
        baseline = accelerator.simulate_end_to_end(DesignPoint.BASELINE_GPU)
        results = {
            design: accelerator.simulate_end_to_end(design)
            for design in (DesignPoint.PIM_CAPSNET, DesignPoint.RMAS_PIM, DesignPoint.RMAS_GPU)
        }
        rows.append(
            {
                "depth": depth,
                "pim": results[DesignPoint.PIM_CAPSNET].speedup_over(baseline),
                "rmas_pim": results[DesignPoint.RMAS_PIM].speedup_over(baseline),
                "rmas_gpu": results[DesignPoint.RMAS_GPU].speedup_over(baseline),
            }
        )
    return rows


def test_ablation_pipeline_and_rmas(save_report):
    rows = _run()
    table = format_table(
        ["batch groups", "PIM-CapsNet", "RMAS-PIM", "RMAS-GPU"],
        [[r["depth"], r["pim"], r["rmas_pim"], r["rmas_gpu"]] for r in rows],
        title=f"Ablation -- pipeline depth and memory scheduling ({BENCHMARK})",
    )
    save_report("ablation_pipeline_rmas", table)

    # Deeper pipelines amortize the fill/drain overhead: speedup is monotone.
    speedups = [r["pim"] for r in rows]
    assert speedups == sorted(speedups)
    # With a single batch group there is nothing to overlap with.
    assert rows[0]["pim"] < rows[-1]["pim"]
    # The RMAS-balanced scheduler is never worse than the naive policies.
    for r in rows:
        assert r["pim"] >= r["rmas_pim"] - 1e-9
        assert r["pim"] >= r["rmas_gpu"] - 1e-9
