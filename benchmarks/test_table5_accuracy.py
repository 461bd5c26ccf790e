"""Benchmark: regenerate Table 5 (accuracy with the PE approximations).

Training the functional CapsNets is by far the most expensive part of the
harness, so the benchmark trains one network per dataset family (the paper's
rows that share a dataset reuse the same trained weights anyway) with a small
epoch budget.  Pass ``epochs``/``num_train`` to
:func:`repro.experiments.table05_accuracy.run` for a longer, higher-accuracy run.
"""

from repro.experiments import table05_accuracy

#: One representative benchmark per dataset family (all 12 rows map onto these).
REPRESENTATIVE_BENCHMARKS = [
    "Caps-MN1",
    "Caps-CF1",
    "Caps-EN1",
    "Caps-EN2",
    "Caps-EN3",
    "Caps-SV1",
]


def test_table5_accuracy(save_report):
    result = table05_accuracy.run(benchmarks=REPRESENTATIVE_BENCHMARKS, epochs=2)
    report = table05_accuracy.format_report(result)
    save_report("table5_accuracy", report)

    assert len(result.rows) == len(REPRESENTATIVE_BENCHMARKS)
    for row in result.rows:
        assert 0.0 <= row.origin_accuracy <= 1.0
        # The approximations must not change the accuracy materially
        # (paper: <= 0.35% without recovery, ~0.04% with recovery).
        assert abs(row.loss_without_recovery) < 0.10
        assert row.loss_with_recovery < 0.10
    assert abs(result.average_loss_without_recovery) < 0.05
    assert result.average_loss_with_recovery < 0.05
