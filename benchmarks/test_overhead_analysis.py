"""Benchmark: regenerate the Sec. 6.5 overhead analysis (area / power / thermal)."""

from repro.experiments import overhead


def test_overhead_analysis(save_report):
    result = overhead.run()
    report = overhead.format_report(result)
    save_report("overhead_analysis", report)

    # Paper: 3.11 mm^2 (~0.32% of the logic die), 2.24 W average logic power,
    # within the 10 W thermal budget.
    assert abs(result.total_area_mm2 - 3.11) < 0.3
    assert 0.002 < result.area_fraction < 0.005
    assert 1.0 < result.average_logic_power_watts < 4.0
    assert all(report.within_budget for _, report in result.thermal_reports)
