"""Benchmark: regenerate Fig. 15 (RP speedup and energy of PIM-CapsNet)."""

from repro.experiments import fig15_rp_acceleration


def test_fig15_rp_speedup(save_report):
    result = fig15_rp_acceleration.run()
    report = fig15_rp_acceleration.format_report(result)
    save_report("fig15_rp_speedup", report)

    assert len(result.rows) == 12
    # Paper: 2.17x average speedup (up to 2.27x) and 92.18% energy saving.
    assert 1.7 < result.average_speedup < 2.7
    assert result.max_speedup < 3.5
    assert 0.85 < result.average_energy_saving < 0.99
