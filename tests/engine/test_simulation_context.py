"""Tests for the SimulationContext cache."""

import pytest

from repro.core.accelerator import DesignPoint
from repro.engine.context import CacheStats, SimulationContext
from repro.workloads.parallelism import Dimension


def test_model_is_memoized_per_benchmark():
    ctx = SimulationContext()
    first = ctx.model("Caps-MN1")
    second = ctx.model("Caps-MN1")
    other = ctx.model("Caps-MN2")
    assert first is second
    assert other is not first
    assert ctx.model_stats.hits == 1
    assert ctx.model_stats.misses == 2


def test_model_variants_are_distinct():
    ctx = SimulationContext()
    base = ctx.model("Caps-MN1")
    fast = ctx.model("Caps-MN1", pe_frequency_mhz=937.5)
    forced = ctx.model("Caps-MN1", force_dimension=Dimension.HIGH)
    assert base is not fast
    assert base is not forced
    assert fast.hmc_config.pe_frequency_mhz == 937.5
    assert forced.force_dimension is Dimension.HIGH


def test_routing_cache_hit_and_miss():
    ctx = SimulationContext()
    first = ctx.routing("Caps-MN1", DesignPoint.PIM_CAPSNET)
    assert ctx.stats.misses == 1 and ctx.stats.hits == 0
    second = ctx.routing("Caps-MN1", DesignPoint.PIM_CAPSNET)
    assert second == first
    assert ctx.stats.misses == 1 and ctx.stats.hits == 1
    # A different design or benchmark misses again.
    ctx.routing("Caps-MN1", DesignPoint.BASELINE_GPU)
    ctx.routing("Caps-MN2", DesignPoint.PIM_CAPSNET)
    assert ctx.stats.misses == 3
    assert ctx.stats.hit_rate == pytest.approx(1 / 4)


def test_end_to_end_and_routing_are_cached_separately():
    ctx = SimulationContext()
    routing = ctx.routing("Caps-MN1", DesignPoint.PIM_CAPSNET)
    end_to_end = ctx.end_to_end("Caps-MN1", DesignPoint.PIM_CAPSNET)
    assert routing is not end_to_end
    assert end_to_end.routing_stage_seconds > 0


def test_end_to_end_reuses_cached_routing_of_same_model():
    ctx = SimulationContext()
    ctx.routing("Caps-MN1", DesignPoint.PIM_CAPSNET)
    model = ctx.model("Caps-MN1")
    executed = model.simulations_executed
    # The pipelined end-to-end strategy needs the PIM routing numbers; they
    # must come from the model's cache, adding exactly one new simulation.
    ctx.end_to_end("Caps-MN1", DesignPoint.PIM_CAPSNET)
    assert model.simulations_executed == executed + 1


def test_shared_context_executes_fewer_simulations_than_isolated_runs():
    from repro.experiments import (
        fig15_rp_acceleration,
        fig16_pim_breakdown,
        fig17_end_to_end,
    )

    benchmarks = ["Caps-MN1", "Caps-SV1"]
    shared = SimulationContext()
    fig15_rp_acceleration.run(benchmarks=benchmarks, context=shared)
    fig16_pim_breakdown.run(benchmarks=benchmarks, context=shared)
    fig17_end_to_end.run(benchmarks=benchmarks, context=shared)

    isolated = 0
    for module in (fig15_rp_acceleration, fig16_pim_breakdown, fig17_end_to_end):
        ctx = SimulationContext()
        module.run(benchmarks=benchmarks, context=ctx)
        isolated += ctx.simulations_executed

    assert shared.simulations_executed < isolated
    assert shared.stats.hits > 0


def test_custom_config_does_not_alias_canonical_benchmark():
    import dataclasses

    from repro.workloads.benchmarks import BENCHMARKS

    ctx = SimulationContext()
    canonical = ctx.routing("Caps-MN1", DesignPoint.PIM_CAPSNET)
    custom_config = dataclasses.replace(BENCHMARKS["Caps-MN1"], batch_size=64)
    custom = ctx.routing(custom_config, DesignPoint.PIM_CAPSNET)
    # Same name, different configuration: must be a separate cache entry
    # (and a separate model), not the canonical benchmark's result.
    assert ctx.stats.misses == 2
    assert custom.time_seconds != pytest.approx(canonical.time_seconds)
    assert len(ctx.models()) == 2


def test_cache_stats_defaults():
    stats = CacheStats()
    assert stats.requests == 0
    assert stats.hit_rate == 0.0
