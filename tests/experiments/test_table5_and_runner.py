"""Tests for the Table 5 accuracy experiment and the experiment runner."""

import pytest

from repro.engine import experiment_names, run_experiments
from repro.experiments import table05_accuracy


@pytest.fixture(scope="module")
def small_accuracy_result():
    # A deliberately tiny configuration so the test stays fast; the full
    # experiment is exercised by the benchmark harness.
    return table05_accuracy.run(
        benchmarks=["Caps-MN1", "Caps-MN2"], epochs=1, num_train=60, num_test=40
    )


def test_table5_rows_cover_requested_benchmarks(small_accuracy_result):
    assert [row.benchmark for row in small_accuracy_result.rows] == ["Caps-MN1", "Caps-MN2"]


def test_table5_benchmarks_sharing_a_dataset_share_accuracy(small_accuracy_result):
    first, second = small_accuracy_result.rows
    assert first.dataset == second.dataset == "MNIST"
    assert first.origin_accuracy == pytest.approx(second.origin_accuracy)


def test_table5_accuracies_are_probabilities(small_accuracy_result):
    for row in small_accuracy_result.rows:
        for value in (row.origin_accuracy, row.approx_accuracy, row.recovered_accuracy):
            assert 0.0 <= value <= 1.0


def test_table5_approximation_changes_accuracy_only_slightly(small_accuracy_result):
    for row in small_accuracy_result.rows:
        assert abs(row.loss_without_recovery) < 0.15
        assert row.loss_with_recovery < 0.15


def test_table5_report_mentions_paper_targets(small_accuracy_result):
    report = table05_accuracy.format_report(small_accuracy_result)
    assert "0.35%" in report
    assert "0.04%" in report


def test_runner_registry_covers_all_figures():
    assert set(experiment_names()) == {
        "fig04",
        "fig05",
        "fig06",
        "fig07",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "table5",
        "overhead",
    }


def test_runner_only_selection():
    result = run_experiments(only=["overhead"])
    assert set(result.results) == {"overhead"}
    assert "overhead" in result.combined_report()


def test_runner_skip_selection():
    result = run_experiments(only=["fig07", "overhead"], skip=["fig07"])
    assert set(result.results) == {"overhead"}
