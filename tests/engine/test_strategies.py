"""Tests for the design-point strategy registry."""

import dataclasses

import pytest

from repro.core.accelerator import DesignPoint, PIMCapsNet
from repro.engine.design_points import routing_on_hmc
from repro.engine.strategies import (
    DesignPointStrategy,
    design_key,
    get_strategy,
    register_strategy,
    strategy_names,
    unregister_strategy,
)


def test_design_key_accepts_enum_and_string():
    assert design_key(DesignPoint.PIM_CAPSNET) == "pim-capsnet"
    assert design_key("pim-capsnet") == "pim-capsnet"


def test_builtin_strategies_cover_every_design_point():
    names = strategy_names()
    for design in DesignPoint:
        assert design.value in names


def test_enum_and_string_resolve_to_same_strategy():
    assert get_strategy(DesignPoint.BASELINE_GPU) is get_strategy("baseline")


def test_unknown_design_point_raises_with_known_names():
    with pytest.raises(KeyError, match="no strategy registered"):
        get_strategy("does-not-exist")


def test_duplicate_registration_rejected_without_replace():
    with pytest.raises(ValueError, match="already registered"):
        register_strategy(get_strategy(DesignPoint.BASELINE_GPU))


@pytest.fixture
def custom_strategy():
    """A custom design point registered for the duration of one test."""

    class DoubledRoutingStrategy(DesignPointStrategy):
        # A scenario the paper does not evaluate: the PIM design with the
        # default (conflicting) mapping *and* doubled routing time.
        key = "test-doubled"

        def simulate_routing(self, model, design=None):
            result = routing_on_hmc(model, design or self.key, custom_mapping=False)
            return dataclasses.replace(result, time_seconds=2.0 * result.time_seconds)

        def simulate_end_to_end(self, model, design=None):
            delegate = get_strategy(DesignPoint.PIM_CAPSNET)
            return delegate.simulate_end_to_end(model, design or self.key)

    strategy = DoubledRoutingStrategy()
    register_strategy(strategy)
    yield strategy
    unregister_strategy(strategy.key)


def test_custom_design_point_runs_routing_through_facade(custom_strategy):
    model = PIMCapsNet("Caps-MN1")
    custom = model.simulate_routing("test-doubled")
    reference = model.simulate_routing(DesignPoint.PIM_INTER)
    assert custom.design == "test-doubled"
    assert custom.benchmark == "Caps-MN1"
    assert custom.time_seconds == pytest.approx(2.0 * reference.time_seconds)


def test_custom_design_point_runs_end_to_end_through_facade(custom_strategy):
    model = PIMCapsNet("Caps-MN1")
    result = model.simulate_end_to_end("test-doubled")
    assert result.design == "test-doubled"
    assert result.time_seconds > 0
    assert result.energy_joules > 0
    reference = model.simulate_end_to_end(DesignPoint.PIM_CAPSNET)
    assert result.time_seconds == pytest.approx(reference.time_seconds)


def test_strategy_without_routing_model_raises(custom_strategy):
    class EndToEndOnly(DesignPointStrategy):
        key = "test-e2e-only"

    register_strategy(EndToEndOnly())
    try:
        with pytest.raises(NotImplementedError, match="routing"):
            PIMCapsNet("Caps-MN1").simulate_routing("test-e2e-only")
    finally:
        unregister_strategy("test-e2e-only")


def test_facade_memoizes_simulations():
    model = PIMCapsNet("Caps-MN1")
    first = model.simulate_routing(DesignPoint.PIM_CAPSNET)
    executed = model.simulations_executed
    second = model.simulate_routing(DesignPoint.PIM_CAPSNET)
    assert second == first
    assert model.simulations_executed == executed
    assert model.cache_hits >= 1
    model.clear_cache()
    third = model.simulate_routing(DesignPoint.PIM_CAPSNET)
    assert model.simulations_executed == executed + 1
    assert third.time_seconds == pytest.approx(first.time_seconds)


def test_cached_results_are_immutable():
    # The memo hands every caller the same object, so no caller may change
    # what another one reads.
    model = PIMCapsNet("Caps-MN1")
    first = model.simulate_routing(DesignPoint.PIM_CAPSNET)
    snapshot = dataclasses.replace(first)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.time_seconds *= 100.0
    with pytest.raises(TypeError):
        first.time_components["execution"] = -1.0
    second = model.simulate_routing(DesignPoint.PIM_CAPSNET)
    assert second is first
    assert second == snapshot
