"""Tests for the Session facade and scenario comparison (repro.api)."""

from pathlib import Path

import pytest

from repro.api import Scenario, Session, compare_scenarios, headline_metrics

REPORTS_DIR = Path(__file__).parent.parent.parent / "benchmarks" / "reports"

#: Golden files checked for default-scenario byte-equivalence (a fast,
#: representative subset; tests/test_golden_reports.py covers the full set).
GOLDEN_SUBSET = {
    "fig04": "fig04_layer_breakdown.txt",
    "fig15": "fig15_rp_speedup.txt",
    "overhead": "overhead_analysis.txt",
}


@pytest.fixture(scope="module")
def default_session():
    return Session()


def test_default_scenario_reproduces_golden_reports(default_session):
    result = default_session.run(sorted(GOLDEN_SUBSET))
    for name, filename in GOLDEN_SUBSET.items():
        golden = (REPORTS_DIR / filename).read_text(encoding="utf-8")
        assert result.reports[name] + "\n" == golden


def test_repeated_runs_are_cache_hits(default_session):
    first = default_session.run(["fig15"])
    executed = default_session.context.simulations_executed
    second = default_session.run(["fig15"])
    # The identical selection is memoized wholesale...
    assert second is first
    # ...and even a fresh overlapping selection re-simulates nothing.
    default_session.run(["fig15", "fig16"], benchmarks=["Caps-MN1"])
    assert default_session.context.stats.hits > 0
    third = default_session.run(["fig15"])
    assert third is first
    assert default_session.context.simulations_executed >= executed


def test_session_rejects_mismatched_context():
    from repro.engine.context import SimulationContext

    context = SimulationContext(scenario=Scenario.preset("v100-host"))
    with pytest.raises(ValueError, match="different scenario"):
        Session(Scenario.default(), context=context)


def test_session_result_structure(default_session):
    result = default_session.run(["overhead"])
    assert list(result.results) == ["overhead"]
    payload = result.to_dict()
    assert payload["scenario"]["name"] == "paper-default"
    assert payload["experiments"]["overhead"]["experiment"] == "overhead"
    assert result.metrics()["overhead"]["total_area_mm2"] > 0
    assert "overhead" in result.report()


def test_scenario_hardware_changes_results():
    base = Session().run(["fig15"], benchmarks=["Caps-MN1"])
    fast = Session(Scenario.default().with_set(["hmc.pe_frequency_mhz=625"])).run(
        ["fig15"], benchmarks=["Caps-MN1"]
    )
    assert (
        fast.results["fig15"].average_speedup > base.results["fig15"].average_speedup
    )


def test_scenario_design_selection_threads_through_fig15_and_fig17():
    scenario = Scenario.default().with_overrides(
        {"designs": "pim-capsnet,all-in-pim"}
    )
    result = Session(scenario).run(
        ["fig15", "fig17"], benchmarks=["Caps-MN1"]
    )
    fig15 = result.results["fig15"]
    assert [str(design) for design in fig15.designs] == ["baseline", "pim-capsnet", "all-in-pim"]
    report = result.reports["fig17"]
    assert "rmas-pim" not in report
    assert "all-in-pim" in report


def test_scenario_benchmark_selection_is_the_default():
    scenario = Scenario.default().with_overrides({"benchmarks": "Caps-MN1"})
    result = Session(scenario).run(["fig04"])
    assert [row.benchmark for row in result.results["fig04"].rows] == ["Caps-MN1"]


def test_headline_metrics_extracts_top_level_scalars(default_session):
    result = default_session.run(["fig15"])
    metrics = headline_metrics(result.results["fig15"])
    assert set(metrics) == {"average_speedup", "max_speedup", "average_energy_saving"}
    assert headline_metrics(object()) == {}


def test_compare_scenarios_aligns_metrics_and_skips_slow():
    base = Scenario.default()
    fast = base.with_set(["hmc.pe_frequency_mhz=625"])
    comparison = compare_scenarios(
        [base, fast], only=["fig15"], benchmarks=["Caps-MN1"]
    )
    assert comparison.labels == [base.name, fast.name]
    speedups = {
        delta.metric: delta for delta in comparison.deltas if delta.experiment == "fig15"
    }
    avg = speedups["average_speedup"]
    assert avg.values[1] > avg.values[0]
    assert avg.delta_percent(1) > 0
    report = comparison.format_report()
    assert "Scenario comparison" in report
    assert fast.name in report
    payload = comparison.to_dict()
    assert len(payload["scenarios"]) == 2
    assert payload["metrics"]


def test_compare_scenarios_requires_a_scenario():
    with pytest.raises(ValueError, match="at least one"):
        compare_scenarios([])


def test_compare_scenarios_disambiguates_duplicate_names():
    base = Scenario.default()
    comparison = compare_scenarios(
        [base, base], only=["overhead"], benchmarks=["Caps-MN1"]
    )
    assert comparison.labels == ["paper-default", "paper-default#2"]
