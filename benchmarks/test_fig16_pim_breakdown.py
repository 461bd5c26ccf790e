"""Benchmark: regenerate Fig. 16 (intra-/inter-vault design effectiveness)."""

from repro.experiments import fig16_pim_breakdown


def test_fig16_pim_breakdown(save_report):
    result = fig16_pim_breakdown.run()
    report = fig16_pim_breakdown.format_report(result)
    save_report("fig16_pim_breakdown", report)

    assert len(result.rows) == 12
    # Paper: the crossbar contributes ~45% of PIM-Intra's time and vault
    # request stalls ~58% of PIM-Inter's time; PIM-CapsNet beats both
    # (1.77x / 2.28x respectively).
    assert 0.3 < result.average_intra_crossbar_share < 0.9
    assert 0.4 < result.average_inter_vrs_share < 0.85
    assert 1.3 < result.average_speedup_over_intra < 3.0
    assert 1.5 < result.average_speedup_over_inter < 3.5
