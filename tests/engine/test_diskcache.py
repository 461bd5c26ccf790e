"""Tests for the persistent simulation cache (:mod:`repro.engine.diskcache`)."""

import base64
import dataclasses
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint, PIMCapsNet
from repro.engine import diskcache
from repro.engine.context import SimulationContext
from repro.engine.diskcache import (
    CACHE_SCHEMA_VERSION,
    Block,
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


def _shard_form(block):
    """``[shape, packed]`` of a block as a shard stores it (through JSON)."""
    return json.loads(json.dumps([block.shape, block.packed()]))


def _json_round_trip(result):
    """A result through the row codec and a one-row block, both via JSON."""
    row = decode_result(*json.loads(json.dumps(encode_result(result))))
    block = Block.from_json(*_shard_form(Block.of(result, 312.5)))
    return row, block.row(0)


def test_routing_round_trips_exactly(scenario, workload):
    result = _routing(scenario, workload)
    for decoded in _json_round_trip(result):
        assert decoded == result  # dataclass equality covers every float exactly


def test_end_to_end_round_trips_exactly(scenario, workload):
    result = _end_to_end(scenario, workload)
    for decoded in _json_round_trip(result):
        assert decoded == result


def test_unknown_result_types_are_uncacheable():
    assert encode_result({"custom": 1}) is None
    assert Block.of({"custom": 1}, 312.5) is None
    with pytest.raises(ValueError, match="unknown cache entry type"):
        decode_result(["quantum"], [])


def test_appending_and_joining_blocks_agree(scenario, workload):
    """Growing a block in place and joining its parts once give the same
    rows: later rows win, and a changed result shape replaces the rest."""
    routing, end_to_end = _routing(scenario, workload), _end_to_end(scenario, workload)

    def rows(frequencies, time_seconds):
        result = dataclasses.replace(routing, time_seconds=time_seconds)
        return Block.of(result, np.array(frequencies, dtype=np.float64))

    superseded = [rows([1.0, 2.0], 1.0), rows([3.0], 2.0), rows([2.0, 4.0], 3.0)]
    reshaped = [rows([1.0], 1.0), Block.of(end_to_end, 5.0), rows([6.0], 2.0)]
    for parts in (superseded, reshaped):
        grown = Block(parts[0].shape, parts[0].matrix)
        for part in parts[1:]:
            handed_out = grown.matrix
            before = handed_out.copy()
            grown.append(part)
            assert np.array_equal(handed_out, before, equal_nan=True)
        joined = Block.joined(parts)
        assert grown.shape == joined.shape
        assert np.array_equal(grown.matrix, joined.matrix, equal_nan=True)
    assert joined.frequencies.tolist() == [6.0]
    grown = Block.joined(superseded)
    assert grown.frequencies.tolist() == [1.0, 3.0, 2.0, 4.0]
    assert [grown.row(j).time_seconds for j in range(4)] == [1.0, 2.0, 3.0, 3.0]


# ----------------------------------------------------------------- hashing


#: Scenario keys that no simulated time or energy reads, so they stay out of
#: the cache key (``Scenario.hardware_dict``).
UNREAD_KEYS = {"hmc.capacity_gb": 32.0, "gpu.memory_capacity_gb": 4.0}


def test_scenario_hash_ignores_name_and_selections():
    base = Scenario.default()
    renamed = dataclasses.replace(base, name="elsewhere")
    selected = dataclasses.replace(base, benchmarks=("Caps-MN1",))
    assert base.hardware_hash() == renamed.hardware_hash()
    assert base.hardware_hash() == selected.hardware_hash()
    for key, value in UNREAD_KEYS.items():
        resized = base.with_overrides({key: value})
        assert resized != base
        assert base.hardware_hash() == resized.hardware_hash()
        assert base.plane_hash() == resized.plane_hash()


@pytest.mark.parametrize("key", sorted(UNREAD_KEYS))
def test_capacity_keys_change_no_simulated_result(key):
    # Guard for leaving them out of the cache key: the day a model reads one
    # of them, this fails, and hardware_dict must hash it again.
    from repro.engine.strategies import strategy_names

    base = SimulationContext(scenario=Scenario.default())
    resized = SimulationContext(
        scenario=Scenario.default().with_overrides({key: UNREAD_KEYS[key]})
    )
    for name in ("Caps-MN1", "Caps-EN1"):
        for design in strategy_names():
            assert resized.routing(name, design) == base.routing(name, design)
            assert resized.end_to_end(name, design) == base.end_to_end(name, design)


@pytest.mark.parametrize("key", sorted(UNREAD_KEYS))
def test_capacity_sweep_points_share_cache_entries(tmp_path, key):
    spec = SweepSpec.from_axes({key: [8.0, 16.0]}, benchmarks=("Caps-MN1",))
    runner = SweepRunner(spec, jobs=1, backend="scalar", cache_dir=tmp_path)
    first, second = runner.evaluate(spec.assignments())[0]
    assert first["simulations"] > 0
    assert second["simulations"] == 0
    assert second["disk_misses"] == 0
    assert second["cells"] == first["cells"]


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
    # The corrupt file was quarantined; the next flush publishes the row anew.
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


def _plane_dir(tmp_path, scenario):
    digest = scenario.plane_hash()
    return tmp_path / f"v{CACHE_SCHEMA_VERSION}" / digest[:2] / digest


def _plane_files(tmp_path, scenario):
    """The shard files of a scenario's plane: its base and deltas."""
    return sorted(_plane_dir(tmp_path, scenario).glob("*.json"))


def _shard_file(tmp_path, scenario):
    """The one shard file of a plane flushed once."""
    [path] = _plane_files(tmp_path, scenario)
    return path


def _delta_path(tmp_path, scenario, seq=1):
    """Where a delta a process with pid 1 published first would live."""
    return _plane_dir(tmp_path, scenario) / f"delta-{seq:08d}-1-0.json"


def _write_shard(path, blocks, schema=CACHE_SCHEMA_VERSION, body="blocks"):
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {"schema": schema, "plane": path.parent.name}
    path.write_text(json.dumps({**header, body: blocks}), encoding="utf-8")


def _block_row(workload, result, frequency=312.5):
    """One shard block row, as a flush writes it."""
    return [benchmark_hash(workload), "routing", DesignPoint.PIM_CAPSNET.value,
            None, *_shard_form(Block.of(result, frequency))]


def _packed(height, rows=1):
    """A packed block matrix of zeros (code 0, dimension B)."""
    return base64.b64encode(np.zeros((height, rows)).tobytes()).decode("ascii")


#: A well-formed end-to-end block shape: 2 + 5 matrix rows.
E2E_SHAPE = ["end_to_end", "pim-capsnet", "Caps-MN1", 1, False]


def test_shard_rows_store_each_key_once(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    faster = scenario.with_overrides({"hmc.pe_frequency_mhz": 625.0})
    cache = SimulationCache(tmp_path)
    for variant in (scenario, faster):
        cache.put(variant, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    cache.flush()
    data = json.loads(_shard_file(tmp_path, scenario).read_text(encoding="utf-8"))
    assert data["schema"] == CACHE_SCHEMA_VERSION == 4
    assert data["plane"] == scenario.plane_hash() == faster.plane_hash()
    # One block holds the key once and one row per frequency.
    [block] = data["blocks"]
    assert block[:4] == [
        benchmark_hash(workload), "routing", DesignPoint.PIM_CAPSNET.value, None
    ]
    shape, values, dimension = encode_result(result)
    assert block[4] == json.loads(json.dumps(shape))
    # Columns are rows: frequency, dimension code, then the float fields.
    matrix = np.frombuffer(base64.b64decode(block[5]), dtype="<f8").reshape(-1, 2)
    code = [member.value for member in Dimension].index(dimension)
    assert matrix.tolist() == [[312.5, 625.0], [code, code], *([value] * 2 for value in values)]


@pytest.mark.parametrize(
    "rows",
    [
        [["workload", "routing", "pim-capsnet", None, E2E_SHAPE]],  # short
        [["workload", "routing", "pim-capsnet", None, E2E_SHAPE, "not base64!"]],
        [["workload", "routing", "pim-capsnet", None, E2E_SHAPE,
          _packed(7)[:-12]]],  # not a whole number of rows
        [["workload", "routing", "pim-capsnet", None,
          ["end_to_end", "pim-capsnet", "Caps-MN1", True, False], _packed(7)]],
        [["workload", "routing", "pim-capsnet", 7, E2E_SHAPE, _packed(7)]],
        [[1, "routing", "pim-capsnet", None, E2E_SHAPE, _packed(7)]],
        [{"key": {}, "result": {}}],
        [["workload", "routing", "pim-capsnet", None,
          ["quantum", "pim-capsnet", "Caps-MN1", 1, False], _packed(7)]],
        [["workload", "routing", "pim-capsnet", None,
          ["routing", "pim-capsnet", "Caps-MN1", "ab", []], _packed(6)]],
        [["workload", "routing", "pim-capsnet", None, E2E_SHAPE,
          base64.b64encode(np.full((7, 1), 7.0).tobytes()).decode("ascii")]],
    ],
    ids=["short", "payload", "frequency", "bool-frequency", "dimension",
         "workload", "v1-entry", "shape", "component-names", "dimension-code"],
)
def test_shard_with_malformed_rows_is_quarantined(
    tmp_path, scenario, workload, rows, capsys
):
    result = _routing(scenario, workload)
    shard = _delta_path(tmp_path, scenario)
    # One bad block spoils the whole shard, even next to a well-formed one.
    _write_shard(shard, [_block_row(workload, result), *rows])
    cache = SimulationCache(tmp_path)
    assert cache.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    assert cache.stats.misses == 1
    assert cache.stats.corrupt_artifacts == 1
    assert not shard.exists()
    assert [path.name for path in (tmp_path / "corrupt").iterdir()] == [shard.name]
    assert "corrupt cache shard" in capsys.readouterr().err


@pytest.mark.parametrize("schema", [1, 2, 3, CACHE_SCHEMA_VERSION])
def test_foreign_json_at_a_shard_path_is_a_plain_miss(tmp_path, scenario, workload, schema):
    """A v1 entry map or v2 rows at a delta path: a plain miss, not corruption."""
    result = _routing(scenario, workload)
    shard = _delta_path(tmp_path, scenario)
    v1_entry = {
        "key": {"schema": 1, "scenario": scenario.hardware_hash(), "kind": "routing"},
        "result": {"type": "routing"},
    }
    _write_shard(shard, {"0" * 64: v1_entry}, schema=schema, body="entries")
    cache = SimulationCache(tmp_path)
    assert cache.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    assert cache.stats.misses == 1
    assert cache.stats.corrupt_artifacts == 0
    assert shard.exists() and not (tmp_path / "corrupt").exists()
    # The next flush publishes its row in a delta beside the foreign file.
    cache.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    assert cache.flush() == 1
    [published] = [path for path in _plane_files(tmp_path, scenario) if path != shard]
    assert isinstance(json.loads(published.read_text(encoding="utf-8"))["blocks"], list)
    fresh = SimulationCache(tmp_path)
    assert fresh.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) == result


def _assert_old_tree_is_ignored(tmp_path, scenario, workload, old_shard):
    """A cache misses on an older schema's shard and leaves it as it was."""
    result = _routing(scenario, workload)
    before = old_shard.read_bytes()
    cache = SimulationCache(tmp_path)
    assert cache.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    cache.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    assert cache.flush() == 1
    assert old_shard.read_bytes() == before
    assert _shard_file(tmp_path, scenario).exists()


def test_v2_tree_is_ignored(tmp_path, scenario, workload):
    digest = scenario.hardware_hash()
    v2_shard = tmp_path / "v2" / digest[:2] / f"{digest}.json"
    v2_row = [benchmark_hash(workload), "routing", DesignPoint.PIM_CAPSNET.value,
              None, None, {"type": "routing"}]
    _write_shard(v2_shard, [v2_row], schema=2, body="entries")
    _assert_old_tree_is_ignored(tmp_path, scenario, workload, v2_shard)


def test_v3_tree_is_ignored(tmp_path, scenario, workload):
    # Schema 3 kept one file per plane, rewritten by every flush.
    digest = scenario.plane_hash()
    v3_shard = tmp_path / "v3" / digest[:2] / f"{digest}.json"
    v3_shard.parent.mkdir(parents=True)
    v3_shard.write_text(
        json.dumps({"schema": 3, "plane": digest,
                    "blocks": [_block_row(workload, _routing(scenario, workload))]}),
        encoding="utf-8",
    )
    _assert_old_tree_is_ignored(tmp_path, scenario, workload, v3_shard)


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
    data = json.loads(_shard_file(tmp_path, scenario).read_text(encoding="utf-8"))
    # One block per force_dimension, one row per effective frequency.
    assert [block[3] for block in data["blocks"]] == [
        dimension.value if dimension is not None else None for dimension in dimensions
    ]
    assert all(
        len(Block.from_json(*block[4:])) == 2 for block in data["blocks"]
    )

    reader = SimulationCache(tmp_path)
    for (frequency, dimension), result in stored.items():
        # No override means the scenario's own frequency: the same row.
        lookups = [625, 625.0] if frequency is not None else [None, 312.5]
        for value in lookups:
            cached = reader.get(
                scenario, workload, "routing", DesignPoint.PIM_CAPSNET,
                pe_frequency_mhz=value, force_dimension=dimension,
            )
            assert cached == result
    assert reader.stats.misses == 0


@pytest.mark.parametrize("kind", ["routing", "end_to_end"])
def test_frequency_override_and_own_frequency_share_one_entry(tmp_path, kind):
    """Fig. 18's override on the default scenario and a scenario at that
    frequency hit one entry, for every design and forced dimension, and
    both equal fresh simulations."""
    default = Scenario.default()
    faster = default.with_overrides({"hmc.pe_frequency_mhz": 625.0})
    requests = [(design, dimension) for design in DesignPoint for dimension in (None, *Dimension)]

    def simulate(model, design):
        if kind == "routing":
            return model.simulate_routing(design)
        return model.simulate_end_to_end(design)

    writer = SimulationContext(scenario=default, disk_cache=SimulationCache(tmp_path))
    stored = {
        request: writer._simulate(kind, "Caps-EN1", request[0], 625.0, request[1])
        for request in requests
    }
    writer.disk_cache.flush()
    reader = SimulationContext(scenario=faster, disk_cache=SimulationCache(tmp_path))
    for (design, dimension), result in stored.items():
        cached = reader._simulate(kind, "Caps-EN1", design, None, dimension)
        assert cached == result
        overridden = PIMCapsNet(
            "Caps-EN1", **default.model_kwargs(pe_frequency_mhz=625.0, force_dimension=dimension)
        )
        own = PIMCapsNet("Caps-EN1", **faster.model_kwargs(force_dimension=dimension))
        assert simulate(overridden, design) == result == simulate(own, design)
    assert reader.simulations_executed == 0
    assert reader.disk_stats.hits == len(requests) and reader.disk_stats.misses == 0


def test_writers_sharing_a_plane_keep_each_others_rows(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    faster = scenario.with_overrides({"hmc.pe_frequency_mhz": 625.0})
    first = SimulationCache(tmp_path)
    second = SimulationCache(tmp_path)
    design = DesignPoint.PIM_CAPSNET
    # Both load the (empty) plane before either publishes.
    assert first.get(scenario, workload, "routing", design) is None
    assert second.get(faster, workload, "routing", design) is None
    first.put(scenario, workload, "routing", design, result)
    second.put(faster, workload, "routing", design, dataclasses.replace(result, time_seconds=2.0))
    second.put(faster, workload, "routing", DesignPoint.BASELINE_GPU, result)
    assert first.flush() == second.flush() == 1
    assert first.flush() == 0  # nothing dirty any more
    fresh = SimulationCache(tmp_path)
    assert fresh.get(scenario, workload, "routing", design) == result
    assert fresh.get(faster, workload, "routing", design).time_seconds == 2.0
    assert fresh.get(faster, workload, "routing", DesignPoint.BASELINE_GPU) == result
    assert fresh.get(scenario, workload, "routing", DesignPoint.BASELINE_GPU) is None


# ---------------------------------------------------- deltas and compaction


def _put_row(cache, scenario, workload, result, frequency, design=DesignPoint.PIM_CAPSNET):
    assert cache.put(scenario, workload, "routing", design, result, pe_frequency_mhz=frequency)


def _shard_tree(root):
    """Every shard file below a cache root, by relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*.json"))
    }


@pytest.fixture
def published_bytes(monkeypatch):
    """The size of every file ``publish_file`` writes from now on."""
    sizes = []
    publish = diskcache.publish_file

    def measured(path, write, faults=()):
        def counted(handle):
            write(handle)
            sizes.append(handle.tell())

        publish(path, counted, faults)

    monkeypatch.setattr(diskcache, "publish_file", measured)
    return sizes


def test_a_one_row_flush_writes_the_same_bytes_however_full_the_plane(
    tmp_path, scenario, workload, published_bytes
):
    result = _routing(scenario, workload)
    written = {}
    for held in (4, 200):
        cache = SimulationCache(tmp_path / str(held))
        for index in range(held):
            _put_row(cache, scenario, workload, result, 100.0 + index)
        assert cache.flush() == 1
        published_bytes.clear()
        _put_row(cache, scenario, workload, result, 1000.0)
        assert cache.flush() == 1
        written[held] = sum(published_bytes)
    # The flush publishes its one row, not the plane it joins.
    assert written[4] == written[200] > 0


def test_a_hundred_one_row_flushes_keep_the_plane_bounded(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    cache = SimulationCache(tmp_path)
    frequencies = [100.0 + index for index in range(100)]
    for frequency in frequencies:
        _put_row(cache, scenario, workload, result, frequency)
        assert cache.flush() == 1
        assert len(_plane_files(tmp_path, scenario)) <= diskcache.MAX_DELTAS + 1
    assert not list(tmp_path.rglob("*.tmp"))
    fresh = SimulationCache(tmp_path)
    for frequency in frequencies:
        assert fresh.get(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, pe_frequency_mhz=frequency
        ) == result
    assert (fresh.stats.hits, fresh.stats.misses) == (100, 0)


def test_the_same_rows_in_any_order_compact_to_the_same_bytes(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    designs = (DesignPoint.PIM_CAPSNET, DesignPoint.BASELINE_GPU, DesignPoint.ALL_IN_PIM)
    # One row per flush: the last of these flushes compacts the plane.
    rows = [
        (designs[index % len(designs)], 100.0 + (7 * index) % 13)
        for index in range(diskcache.MAX_DELTAS + 1)
    ]
    trees = []
    for order, name in ((rows, "forward"), (rows[::-1], "backward")):
        cache = SimulationCache(tmp_path / name)
        for design, frequency in order:
            _put_row(cache, scenario, workload, result, frequency, design)
            assert cache.flush() == 1
        trees.append(_shard_tree(tmp_path / name))
    forward, backward = trees
    assert len(forward) == 1
    assert forward == backward
    [text] = forward.values()
    for block in json.loads(text)["blocks"]:
        frequencies = Block.from_json(*block[4:]).frequencies.tolist()
        assert frequencies == sorted(frequencies)


def test_a_reader_lists_again_when_a_compaction_takes_its_delta(
    tmp_path, scenario, workload, monkeypatch
):
    result = _routing(scenario, workload)
    writer = SimulationCache(tmp_path)
    frequencies = [100.0 + index for index in range(diskcache.MAX_DELTAS + 1)]
    for frequency in frequencies[:-1]:
        _put_row(writer, scenario, workload, result, frequency)
        assert writer.flush() == 1
    list_plane = diskcache._list_plane
    compacted = []

    def listing_then_compaction(directory):
        listing = list_plane(directory)
        if not compacted:
            compacted.append(listing)
            # One more delta: the writer compacts the plane and unlinks every
            # delta the reader has just listed.
            _put_row(writer, scenario, workload, result, frequencies[-1])
            assert writer.flush() == 1
        return listing

    monkeypatch.setattr(diskcache, "_list_plane", listing_then_compaction)
    reader = SimulationCache(tmp_path)
    for frequency in frequencies:
        assert reader.get(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, pe_frequency_mhz=frequency
        ) == result
    [listing] = compacted
    assert len(listing.deltas) == diskcache.MAX_DELTAS and not listing.bases
    assert [path.name.split("-")[0] for path in _plane_files(tmp_path, scenario)] == ["base"]
    assert (reader.stats.hits, reader.stats.corrupt_artifacts) == (len(frequencies), 0)


def test_gets_and_puts_do_not_wait_for_a_flush_on_the_disk(
    tmp_path, scenario, workload, monkeypatch
):
    result = _routing(scenario, workload)
    cache = SimulationCache(tmp_path)
    _put_row(cache, scenario, workload, result, 312.5)
    inside, release = threading.Barrier(2, timeout=60), threading.Event()
    publish = diskcache.publish_file

    def held_publish(path, write, faults=()):
        def held(handle):
            inside.wait()  # the flush is now inside its publish
            release.wait(timeout=60)
            write(handle)

        publish(path, held, faults)

    monkeypatch.setattr(diskcache, "publish_file", held_publish)
    answers = []

    def use_the_cache():
        answers.append(cache.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET))
        answers.append(
            cache.put(
                scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result,
                pe_frequency_mhz=625.0,
            )
        )

    flusher = threading.Thread(target=cache.flush)
    user = threading.Thread(target=use_the_cache)
    flusher.start()
    try:
        inside.wait()
        user.start()
        user.join(timeout=10)
        assert not user.is_alive(), "get/put waited for another thread's disk write"
        assert answers == [result, True]
    finally:
        release.set()
        flusher.join(timeout=60)
        if user.ident is not None:
            user.join(timeout=60)
    assert not flusher.is_alive()
    # The row stored during the publish is the next flush's.
    monkeypatch.setattr(diskcache, "publish_file", publish)
    assert cache.flush() == 1
    fresh = SimulationCache(tmp_path)
    for frequency in (312.5, 625.0):
        assert fresh.get(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, pe_frequency_mhz=frequency
        ) == result


def test_get_many_counts_hits_and_misses_per_entry(tmp_path, scenario, workload):
    result = _routing(scenario, workload)
    writer = SimulationCache(tmp_path)
    for frequency in (312.5, 625.0):
        writer.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result,
                   pe_frequency_mhz=frequency)
    writer.flush()
    frequencies = [156.25, 312.5, 625.0, 1250.0]
    scalar = [
        (scenario, workload, "routing", design, frequency)
        for design in (DesignPoint.PIM_CAPSNET, DesignPoint.BASELINE_GPU)
        for frequency in frequencies
    ]
    plane = [
        (scenario.plane_hash(), workload, "routing", design, np.array(frequencies))
        for design in (DesignPoint.PIM_CAPSNET, DesignPoint.BASELINE_GPU)
    ]
    one_by_one = SimulationCache(tmp_path)
    singles = [one_by_one.get(*request) for request in scalar]
    bulk = SimulationCache(tmp_path)
    found, missing = bulk.get_many(plane)
    # A frequency array's slot holds the rows found, in request order.
    assert missing is None
    assert found.frequencies.tolist() == [312.5, 625.0]
    assert [found.row(j) for j in range(len(found))] == [r for r in singles if r is not None]
    assert (bulk.stats.hits, bulk.stats.misses) == (one_by_one.stats.hits, one_by_one.stats.misses) == (2, 6)
    assert bulk.get_many(scalar) == singles
    assert (bulk.stats.hits, bulk.stats.misses) == (2 * 2, 2 * 6)


def test_get_many_reads_each_shard_once(tmp_path, scenario, workload, monkeypatch):
    faster = scenario.with_overrides({"hmc.pe_frequency_mhz": 625.0})
    narrower = scenario.with_overrides({"hmc.pes_per_vault": 8})
    result = _routing(scenario, workload)
    writer = SimulationCache(tmp_path)
    requests = [
        (variant, workload, "routing", design)
        for variant in (scenario, faster, narrower)
        for design in (DesignPoint.PIM_CAPSNET, DesignPoint.BASELINE_GPU)
    ]
    writer.put_many([(*request, result) for request in requests])
    # scenario and faster share one frequency plane, narrower has its own.
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
        _shard_file(tmp_path, variant).name for variant in (scenario, narrower)
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
