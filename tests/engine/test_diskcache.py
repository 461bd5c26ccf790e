"""Tests for the persistent simulation cache (:mod:`repro.engine.diskcache`)."""

import dataclasses
import json

import pytest

from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint
from repro.engine.context import SimulationContext
from repro.engine.diskcache import (
    CACHE_SCHEMA_VERSION,
    SimulationCache,
    benchmark_hash,
    decode_result,
    encode_result,
)
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.catalog import WorkloadSpec


@pytest.fixture
def scenario():
    return Scenario.default()


@pytest.fixture
def workload():
    return get_benchmark("Caps-MN1")


def _routing(scenario, workload):
    context = SimulationContext(scenario=scenario)
    return context.routing(workload.name, DesignPoint.PIM_CAPSNET)


def _end_to_end(scenario, workload):
    context = SimulationContext(scenario=scenario)
    return context.end_to_end(workload.name, DesignPoint.PIM_CAPSNET)


# ------------------------------------------------------------------ codecs


def test_routing_round_trips_exactly(scenario, workload):
    result = _routing(scenario, workload)
    decoded = decode_result(json.loads(json.dumps(encode_result(result))))
    assert decoded == result  # dataclass equality covers every float exactly


def test_end_to_end_round_trips_exactly(scenario, workload):
    result = _end_to_end(scenario, workload)
    decoded = decode_result(json.loads(json.dumps(encode_result(result))))
    assert decoded == result


def test_unknown_result_types_are_uncacheable():
    assert encode_result({"custom": 1}) is None
    with pytest.raises(ValueError, match="unknown cache entry type"):
        decode_result({"type": "quantum"})


# ----------------------------------------------------------------- hashing


def test_scenario_hash_ignores_name_and_selections():
    base = Scenario.default()
    renamed = dataclasses.replace(base, name="elsewhere")
    selected = dataclasses.replace(base, benchmarks=("Caps-MN1",))
    assert base.hardware_hash() == renamed.hardware_hash()
    assert base.hardware_hash() == selected.hardware_hash()


def test_scenario_hash_tracks_hardware():
    base = Scenario.default()
    faster = base.with_overrides({"hmc.pe_frequency_mhz": 625.0})
    assert base.hardware_hash() != faster.hardware_hash()


def test_workload_spec_content_hash_tracks_fields():
    spec = WorkloadSpec(
        name="Caps-X", dataset="MNIST", batch_size=64,
        num_low_capsules=512, num_high_capsules=10,
    )
    same = WorkloadSpec.from_dict(spec.to_dict())
    bigger = dataclasses.replace(spec, batch_size=128)
    assert spec.content_hash() == same.content_hash()
    assert spec.content_hash() != bigger.content_hash()


def test_benchmark_hash_distinguishes_configs(workload):
    other = get_benchmark("Caps-SV1")
    assert benchmark_hash(workload) != benchmark_hash(other)
    assert benchmark_hash(workload) == benchmark_hash(get_benchmark("Caps-MN1"))


# ----------------------------------------------------------------- get/put


def test_put_get_round_trip_via_disk(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    writer = SimulationCache(tmp_path)
    assert writer.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    assert writer.flush() == 1
    reader = SimulationCache(tmp_path)
    cached = reader.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET)
    assert cached == result
    assert reader.stats.hits == 1 and reader.stats.misses == 0


def test_get_misses_on_cold_cache(tmp_path, scenario, workload):
    cache = SimulationCache(tmp_path)
    assert cache.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    assert cache.stats.misses == 1


def test_schema_version_change_invalidates(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    cache = SimulationCache(tmp_path, version=CACHE_SCHEMA_VERSION)
    cache.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    cache.flush()
    bumped = SimulationCache(tmp_path, version=CACHE_SCHEMA_VERSION + 1)
    assert bumped.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    assert bumped.stats.misses == 1


def test_scenario_hash_change_invalidates(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    cache = SimulationCache(tmp_path)
    cache.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    cache.flush()
    other = scenario.with_overrides({"hmc.pe_frequency_mhz": 625.0})
    reader = SimulationCache(tmp_path)
    assert reader.get(other, workload, "routing", DesignPoint.PIM_CAPSNET) is None


def test_corrupt_shard_counts_as_miss(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    cache = SimulationCache(tmp_path)
    cache.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    cache.flush()
    shard = next((tmp_path / f"v{CACHE_SCHEMA_VERSION}").rglob("*.json"))
    shard.write_text("{not json", encoding="utf-8")
    reader = SimulationCache(tmp_path)
    assert reader.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    # The next flush rewrites the corrupt shard wholesale.
    reader.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    assert reader.flush() == 1
    fresh = SimulationCache(tmp_path)
    assert fresh.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) == result


def test_uncacheable_results_are_skipped(tmp_path, scenario, workload):
    cache = SimulationCache(tmp_path)
    assert not cache.put(
        scenario, workload, "routing", DesignPoint.PIM_CAPSNET, {"opaque": True}
    )
    assert cache.flush() == 0


# ------------------------------------------------------- context integration


def test_context_warms_and_reads_the_disk_cache(tmp_path, scenario):
    cold_cache = SimulationCache(tmp_path)
    cold = SimulationContext(scenario=scenario, disk_cache=cold_cache)
    result = cold.routing("Caps-MN1", DesignPoint.PIM_CAPSNET)
    assert cold.simulations_executed > 0
    cold_cache.flush()

    warm = SimulationContext(scenario=scenario, disk_cache=SimulationCache(tmp_path))
    cached = warm.routing("Caps-MN1", DesignPoint.PIM_CAPSNET)
    assert cached == result
    # A disk hit skips model construction entirely: zero simulations ran.
    assert warm.simulations_executed == 0
    assert warm.disk_stats.hits == 1 and warm.disk_stats.misses == 0


def test_context_without_disk_cache_reports_zero_stats(scenario):
    context = SimulationContext(scenario=scenario)
    assert context.disk_stats.requests == 0


def test_flush_merges_with_concurrent_shard_writers(tmp_path, scenario, workload):
    # Two caches sharing one scenario shard (e.g. parallel sweep points over
    # selection axes) must not clobber each other's entries on flush.
    routing = _routing(scenario, workload)
    end_to_end = _end_to_end(scenario, workload)
    first = SimulationCache(tmp_path)
    second = SimulationCache(tmp_path)
    first.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, routing)
    second.put(scenario, workload, "end_to_end", DesignPoint.PIM_CAPSNET, end_to_end)
    first.flush()
    second.flush()  # merges first's published entry instead of overwriting
    fresh = SimulationCache(tmp_path)
    assert fresh.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) == routing
    assert (
        fresh.get(scenario, workload, "end_to_end", DesignPoint.PIM_CAPSNET)
        == end_to_end
    )
