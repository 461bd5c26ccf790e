"""Benchmark: regenerate Fig. 17 (end-to-end speedup and energy)."""

from repro.core.accelerator import DesignPoint
from repro.experiments import fig17_end_to_end


def test_fig17_overall(save_report):
    result = fig17_end_to_end.run()
    report = fig17_end_to_end.format_report(result)
    save_report("fig17_overall", report)

    assert len(result.rows) == 12
    # Paper: 2.44x average speedup (up to 2.76x), 64.91% energy saving.
    assert 1.9 < result.average_speedup < 3.0
    assert result.max_speedup < 3.3
    assert 0.45 < result.average_energy_saving < 0.80
    # All-in-PIM trades performance away (paper: 47.6% drop; our host-stage
    # model is more compute-efficient so the drop is larger -- see EXPERIMENTS.md).
    assert result.average_all_in_pim_speedup < 1.0
    # The runtime scheduler never loses to the naive priority policies.
    for row in result.rows:
        assert row.speedup[DesignPoint.PIM_CAPSNET] >= row.speedup[DesignPoint.RMAS_PIM] - 1e-9
        assert row.speedup[DesignPoint.PIM_CAPSNET] >= row.speedup[DesignPoint.RMAS_GPU] - 1e-9
