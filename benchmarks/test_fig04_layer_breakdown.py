"""Benchmark: regenerate Fig. 4 (per-layer CapsNet time breakdown on the GPU)."""

from repro.experiments import fig04_layer_breakdown


def test_fig04_layer_breakdown(save_report):
    result = fig04_layer_breakdown.run()
    report = fig04_layer_breakdown.format_report(result)
    save_report("fig04_layer_breakdown", report)

    assert len(result.rows) == 12
    # Paper: the routing procedure accounts for ~74.62% of the inference time.
    assert 0.65 < result.average_routing_fraction < 0.90
    for row in result.rows:
        assert row.fraction_routing > 0.55
