"""Tests for the persistent simulation cache (:mod:`repro.engine.diskcache`)."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint
from repro.engine import diskcache
from repro.engine.context import SimulationContext
from repro.engine.diskcache import (
    CACHE_SCHEMA_VERSION,
    SimulationCache,
    benchmark_hash,
    decode_result,
    encode_result,
)
from repro.sweep import SweepRunner, SweepSpec
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.catalog import WorkloadSpec
from repro.workloads.parallelism import Dimension


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


# ------------------------------------------------------------ shard format


def _shard_file(tmp_path, scenario):
    digest = scenario.hardware_hash()
    return tmp_path / f"v{CACHE_SCHEMA_VERSION}" / digest[:2] / f"{digest}.json"


def _write_shard(path, entries, schema=CACHE_SCHEMA_VERSION):
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"schema": schema, "scenario": path.stem}
    path.write_text(json.dumps({**header, "entries": entries}), encoding="utf-8")


def test_shard_rows_store_each_key_once(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    cache = SimulationCache(tmp_path)
    cache.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    cache.flush()
    data = json.loads(_shard_file(tmp_path, scenario).read_text(encoding="utf-8"))
    assert data["schema"] == CACHE_SCHEMA_VERSION == 2
    assert data["entries"] == [
        [
            benchmark_hash(workload),
            "routing",
            DesignPoint.PIM_CAPSNET.value,
            None,
            None,
            encode_result(result),
        ]
    ]


@pytest.mark.parametrize(
    "rows",
    [
        [["workload", "routing", "pim-capsnet", None, None]],  # short row
        [["workload", "routing", "pim-capsnet", None, None, "not a dict"]],
        [["workload", "routing", "pim-capsnet", [625.0], None, {}]],
        [["workload", "routing", "pim-capsnet", True, None, {}]],
        [["workload", "routing", "pim-capsnet", None, 7, {}]],
        [[1, "routing", "pim-capsnet", None, None, {}]],
        [{"key": {}, "result": {}}],
    ],
    ids=["short", "payload", "frequency", "bool-frequency", "dimension",
         "workload", "v1-entry"],
)
def test_shard_with_malformed_rows_is_quarantined(
    tmp_path, scenario, workload, rows, capsys
):
    result = _routing(scenario, workload)
    shard = _shard_file(tmp_path, scenario)
    good_row = [benchmark_hash(workload), "routing", DesignPoint.PIM_CAPSNET.value,
                None, None, encode_result(result)]
    # One bad row spoils the whole shard, even next to a well-formed one.
    _write_shard(shard, [good_row, *rows])
    cache = SimulationCache(tmp_path)
    assert cache.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    assert cache.stats.misses == 1
    assert cache.stats.corrupt_artifacts == 1
    assert not shard.exists()
    assert [path.name for path in (tmp_path / "corrupt").iterdir()] == [shard.name]
    assert "corrupt cache shard" in capsys.readouterr().err


@pytest.mark.parametrize("schema", [1, CACHE_SCHEMA_VERSION])
def test_v1_entry_map_at_a_v2_path_is_a_plain_miss(tmp_path, scenario, workload, schema):
    result = _routing(scenario, workload)
    shard = _shard_file(tmp_path, scenario)
    v1_entry = {
        "key": {"schema": 1, "scenario": scenario.hardware_hash(), "kind": "routing"},
        "result": encode_result(result),
    }
    _write_shard(shard, {"0" * 64: v1_entry}, schema=schema)
    cache = SimulationCache(tmp_path)
    assert cache.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    assert cache.stats.misses == 1
    assert cache.stats.corrupt_artifacts == 0
    assert shard.exists() and not (tmp_path / "corrupt").exists()
    # The next flush rewrites the foreign file in the v2 layout.
    cache.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    assert cache.flush() == 1
    assert isinstance(json.loads(shard.read_text(encoding="utf-8"))["entries"], list)
    fresh = SimulationCache(tmp_path)
    assert fresh.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) == result


def test_overrides_survive_a_disk_round_trip(tmp_path, scenario, workload):
    base = _routing(scenario, workload)
    dimensions = [None, *Dimension]
    stored = {}
    writer = SimulationCache(tmp_path)
    for index, (frequency, dimension) in enumerate(
        (frequency, dimension) for frequency in (625, None) for dimension in dimensions
    ):
        result = dataclasses.replace(base, time_seconds=float(index))
        assert writer.put(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result,
            pe_frequency_mhz=frequency, force_dimension=dimension,
        )
        stored[(frequency, dimension)] = result
    # 625 and 625.0 name one entry: re-storing under the float overwrites it.
    writer.put(
        scenario, workload, "routing", DesignPoint.PIM_CAPSNET,
        stored[(625, None)], pe_frequency_mhz=625.0,
    )
    assert writer.flush() == 1
    rows = json.loads(_shard_file(tmp_path, scenario).read_text(encoding="utf-8"))
    assert len(rows["entries"]) == len(stored) == 2 * len(dimensions)

    reader = SimulationCache(tmp_path)
    for (frequency, dimension), result in stored.items():
        lookups = [frequency] if frequency is None else [625, 625.0]
        for value in lookups:
            cached = reader.get(
                scenario, workload, "routing", DesignPoint.PIM_CAPSNET,
                pe_frequency_mhz=value, force_dimension=dimension,
            )
            assert cached == result
    assert reader.stats.misses == 0


def test_get_many_reads_each_shard_once(tmp_path, scenario, workload, monkeypatch):
    faster = scenario.with_overrides({"hmc.pe_frequency_mhz": 625.0})
    result = _routing(scenario, workload)
    writer = SimulationCache(tmp_path)
    requests = [
        (variant, workload, "routing", design)
        for variant in (scenario, faster)
        for design in (DesignPoint.PIM_CAPSNET, DesignPoint.BASELINE_GPU)
    ]
    writer.put_many([(*request, result) for request in requests])
    assert writer.flush() == 2

    reads = []
    read_text = Path.read_text

    def counting_read_text(path, *args, **kwargs):
        reads.append(path.name)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    reader = SimulationCache(tmp_path)
    for _ in range(3):
        assert reader.get_many(requests) == [result] * len(requests)
    assert sorted(reads) == sorted(
        f"{variant.hardware_hash()}.json" for variant in (scenario, faster)
    )
    assert reader.stats.hits == 3 * len(requests)


# ------------------------------------------------- no per-entry digests


def test_bulk_cache_io_computes_no_digests(tmp_path, monkeypatch):
    """Warm ``get_many``/``put_many`` key entries without hashing them."""
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625.0, 937.5], "hmc.pes_per_vault": [8, 16]},
        benchmarks=("Caps-MN1", "Caps-SV1"),
        designs=("pim-capsnet", "all-in-pim"),
        kind="end-to-end",
    )
    catalog = Scenario.default().catalog
    for name in spec.benchmarks:
        benchmark_hash(catalog.benchmark(name))  # memoize the workload hashes

    digests = []
    real_digest = diskcache.canonical_digest

    def counting_digest(payload):
        digests.append(payload)
        return real_digest(payload)

    monkeypatch.setattr(diskcache, "canonical_digest", counting_digest)
    inside = {"get_many": 0, "put_many": 0}
    calls = {"get_many": 0, "put_many": 0}
    for name in inside:
        method = getattr(SimulationCache, name)

        def counted(self, *args, _method=method, _name=name):
            before = len(digests)
            try:
                return _method(self, *args)
            finally:
                calls[_name] += 1
                inside[_name] += len(digests) - before

        monkeypatch.setattr(SimulationCache, name, counted)

    cold = SweepRunner(spec, cache_dir=tmp_path).run()
    warm = SweepRunner(spec, cache_dir=tmp_path).run()
    assert cold.executor_used == warm.executor_used == "vectorized"
    assert warm.simulations_executed == 0 and warm.cache.misses == 0
    # Two planes (one per PEs-per-vault value), each a get_many; the cold
    # pass also stores each plane with a put_many.
    assert calls == {"get_many": 4, "put_many": 2}
    assert inside == {"get_many": 0, "put_many": 0}


# ------------------------------------------------- warm runs never write


def _snapshot(root):
    return {
        str(path.relative_to(root)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_warm_runs_never_write_the_cache(tmp_path):
    vectorized = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625.0]}, benchmarks=("Caps-MN1",)
    )
    scalar = SweepSpec.from_axes(
        {"hmc.pes_per_vault": [8, 16]}, benchmarks=("Caps-MN1",)
    )

    def run_all():
        sweeps = [
            SweepRunner(vectorized, jobs=1, cache_dir=tmp_path).run(),
            SweepRunner(scalar, jobs=1, cache_dir=tmp_path, backend="scalar").run(),
        ]
        context = SimulationContext(disk_cache=SimulationCache(tmp_path))
        Session(context=context).run(["fig15", "fig16"], benchmarks=["Caps-MN1"])
        return sweeps, context

    (cold_vectorized, cold_scalar), cold_context = run_all()
    assert cold_vectorized.executor_used == "vectorized"
    assert cold_scalar.executor_used == "serial"
    assert cold_context.simulations_executed > 0
    before = _snapshot(tmp_path)
    assert any(name.endswith(".json") for name in before)

    (warm_vectorized, warm_scalar), warm_context = run_all()
    assert _snapshot(tmp_path) == before
    assert warm_vectorized.simulations_executed == 0
    assert warm_scalar.simulations_executed == 0
    assert warm_context.simulations_executed == 0
