"""Benchmark: regenerate Fig. 7 (memory bandwidth sensitivity of the RP)."""

from repro.experiments import fig07_bandwidth


def test_fig07_bandwidth(save_report):
    result = fig07_bandwidth.run()
    report = fig07_bandwidth.format_report(result)
    save_report("fig07_bandwidth", report)

    assert len(result.rows) == 12
    # Paper: going from 288 GB/s GDDR5 to 897 GB/s HBM2 only buys ~1.26x.
    assert 1.1 < result.average_by_technology["HBM2"] < 1.6
    # Monotonically increasing with bandwidth.
    ordered = [result.average_by_technology[tech] for tech in result.technologies]
    assert ordered == sorted(ordered)
