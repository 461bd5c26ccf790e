"""Benchmark: regenerate Fig. 18 (distribution dimension vs. PE frequency)."""

from repro.experiments import fig18_frequency_sweep
from repro.workloads.parallelism import Dimension


def test_fig18_frequency_sweep(save_report):
    result = fig18_frequency_sweep.run()
    report = fig18_frequency_sweep.format_report(result)
    save_report("fig18_frequency", report)

    assert len(result.benchmarks) == 12
    assert result.frequencies_mhz == (312.5, 625.0, 937.5)
    # Higher PE frequency never hurts the best achievable speedup.
    for name in result.benchmarks:
        best_by_freq = [
            max(result.speedup(name, frequency, dimension) for dimension in Dimension)
            for frequency in result.frequencies_mhz
        ]
        assert best_by_freq[0] <= best_by_freq[1] + 1e-9 <= best_by_freq[2] + 2e-9
    # The paper's observation: the preferred dimension is configuration
    # dependent -- across benchmarks/frequencies more than one dimension wins.
    winning_dimensions = set(result.best_dimension.values())
    assert len(winning_dimensions) >= 2
