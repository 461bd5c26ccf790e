"""Benchmark: regenerate Fig. 6 (intermediates vs. GPU on-chip storage)."""

from repro.experiments import fig06_onchip_storage


def test_fig06_onchip_storage(save_report):
    result = fig06_onchip_storage.run()
    report = fig06_onchip_storage.format_report(result)
    save_report("fig06_onchip_storage", report)

    assert len(result.rows) == 12
    # Fig. 6(a): the intermediates exceed every GPU's on-chip storage by 40x+
    # on the smallest device and still by a lot on the largest.
    assert result.average_ratio_by_device["K40m"] > 40
    assert result.average_ratio_by_device["V100"] > 4
    # Fig. 6(b): scaling storage from 1.73 MB to 16 MB helps by at most ~1.14x.
    assert 1.0 < result.average_performance_by_device["V100"] < 1.25
