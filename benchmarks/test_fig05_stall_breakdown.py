"""Benchmark: regenerate Fig. 5 (RP pipeline-stall breakdown on the GPU)."""

from repro.experiments import fig05_stall_breakdown


def test_fig05_stall_breakdown(save_report):
    result = fig05_stall_breakdown.run()
    report = fig05_stall_breakdown.format_report(result)
    save_report("fig05_stall_breakdown", report)

    assert len(result.rows) == 12
    # Paper: memory-access stalls ~44.64%, synchronization stalls ~34.45%.
    assert 0.35 < result.average_memory_fraction < 0.60
    assert 0.25 < result.average_sync_fraction < 0.45
    # Paper: ALU ~38.6% utilized while the LDST units are ~85.9% utilized.
    assert result.average_ldst_utilization > 0.6
    assert result.average_alu_utilization < 0.5
