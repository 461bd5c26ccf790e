"""Tests for the engine runner and the experiment registry."""

import pytest

from repro.engine.context import SimulationContext
from repro.engine.experiment import experiment_names, get_experiment
from repro.engine.runner import run_experiments, select_experiments


def test_registry_order_matches_report_order():
    assert experiment_names() == [
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
    ]


def test_get_experiment_unknown_name():
    with pytest.raises(KeyError, match="valid names"):
        get_experiment("fig99")


def test_select_experiments_resolves_only_and_skip():
    assert select_experiments(only=["fig07", "overhead"], skip=["fig07"]) == ["overhead"]
    assert select_experiments(skip=experiment_names()) == []


def test_run_all_unknown_only_raises_value_error():
    with pytest.raises(ValueError, match="fig99"):
        run_experiments(only=["fig99"])


def test_run_all_unknown_skip_raises_value_error():
    with pytest.raises(ValueError, match="valid names"):
        run_experiments(skip=["not-an-experiment"])


def test_run_all_only_selection():
    result = run_experiments(only=["overhead"])
    assert set(result.results) == {"overhead"}
    assert "overhead" in result.combined_report()


def test_run_experiments_shares_one_context():
    ctx = SimulationContext()
    result = run_experiments(
        only=["fig15", "fig16"], benchmarks=["Caps-MN1"], context=ctx
    )
    assert set(result.results) == {"fig15", "fig16"}
    assert result.context is ctx
    # fig16 re-reads the baseline + PIM routing fig15 already simulated.
    assert ctx.stats.hits > 0


def test_runner_result_to_dict_contains_each_experiment():
    result = run_experiments(only=["overhead"])
    payload = result.to_dict()
    assert set(payload) == {"overhead"}
    assert payload["overhead"]["experiment"] == "overhead"
    assert "data" in payload["overhead"]
    # Repeat calls (serve's warm requests) reuse the lowered output.
    assert result.to_dict() is payload


def test_context_with_conflicting_scenario_raises():
    # Regression: the scenario argument used to be silently ignored when a
    # context was passed, running under the wrong hardware unnoticed.
    from repro.api.scenario import Scenario

    context = SimulationContext()
    other = Scenario.preset("hmc-625mhz")
    with pytest.raises(ValueError, match="different scenario"):
        run_experiments(only=["overhead"], context=context, scenario=other)


def test_context_with_matching_scenario_is_accepted():
    from repro.api.scenario import Scenario

    scenario = Scenario.default()
    context = SimulationContext(scenario=scenario)
    result = run_experiments(only=["overhead"], context=context, scenario=scenario)
    assert result.context is context
