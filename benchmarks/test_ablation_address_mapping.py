"""Ablation: the customized memory address mapping (Sec. 5.3.1).

Quantifies how much of PIM-CapsNet's routing speedup comes from the
customized address mapping alone by comparing the full design against the
PIM-Inter design point (inter-vault distribution but default intra-vault
mapping, i.e. heavy bank conflicts).
"""

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.tables import format_table
from repro.core.accelerator import DesignPoint, PIMCapsNet
from repro.workloads.benchmarks import BENCHMARKS


def _run():
    rows = []
    for name in BENCHMARKS:
        accelerator = PIMCapsNet(name)
        baseline = accelerator.simulate_routing(DesignPoint.BASELINE_GPU)
        with_mapping = accelerator.simulate_routing(DesignPoint.PIM_CAPSNET)
        without_mapping = accelerator.simulate_routing(DesignPoint.PIM_INTER)
        rows.append(
            {
                "benchmark": name,
                "speedup_with": with_mapping.speedup_over(baseline),
                "speedup_without": without_mapping.speedup_over(baseline),
                "vrs_share_without": without_mapping.time_components["vrs"]
                / without_mapping.time_seconds,
                "mapping_gain": without_mapping.time_seconds / with_mapping.time_seconds,
            }
        )
    return rows


def test_ablation_address_mapping(save_report):
    rows = _run()
    table = format_table(
        ["Benchmark", "speedup w/ mapping", "speedup w/o mapping", "VRS share w/o", "mapping gain"],
        [
            [r["benchmark"], r["speedup_with"], r["speedup_without"], r["vrs_share_without"], r["mapping_gain"]]
            for r in rows
        ],
        title="Ablation -- customized address mapping (PIM-CapsNet vs. PIM-Inter)",
    )
    save_report("ablation_address_mapping", table)

    assert len(rows) == 12
    # Without the mapping the design loses most of its advantage (paper:
    # PIM-Inter even drops slightly below the GPU baseline).
    assert arithmetic_mean([r["speedup_without"] for r in rows]) < 1.2
    assert arithmetic_mean([r["mapping_gain"] for r in rows]) > 1.5
    for r in rows:
        assert r["speedup_with"] > r["speedup_without"]
