"""Fault injection against the persistent caches: degrade, never corrupt.

Arms every ``diskcache.*`` and ``modelcache.*`` fault point and asserts the
documented degradation story: transient errors are retried away, fatal disk
errors flip the cache to read-only with one warning and a counter, and torn
artifacts are quarantined and recomputed -- never re-read, never raised.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint
from repro.engine import diskcache
from repro.engine.context import SimulationContext
from repro.engine.diskcache import MAX_DELTAS, SimulationCache, TrainedModelCache
from repro.faults import DEFAULT_ATTEMPTS, FaultPlan, FaultRule, fired_counts, injected
from repro.sweep import SweepSpec, run_queued_sweep
from repro.sweep.queue import _ShardQueue, load_manifest
from repro.workloads.benchmarks import get_benchmark


@pytest.fixture
def scenario():
    return Scenario.default()


@pytest.fixture
def workload():
    return get_benchmark("Caps-MN1")


@pytest.fixture
def result(scenario, workload):
    context = SimulationContext(scenario=scenario)
    return context.routing(workload.name, DesignPoint.PIM_CAPSNET)


def _plan(*rules):
    return FaultPlan(rules=tuple(rules))


def _filled_cache(tmp_path, scenario, workload, result):
    cache = SimulationCache(tmp_path / "cache")
    assert cache.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    return cache


# -------------------------------------------------------- simulation cache


def test_shard_read_error_is_a_plain_miss(tmp_path, scenario, workload, result):
    cache = _filled_cache(tmp_path, scenario, workload, result)
    assert cache.flush() == 1

    rule = FaultRule(point="diskcache.shard.read", error="EIO", times=None)
    with injected(_plan(rule)):
        cold = SimulationCache(tmp_path / "cache")
        assert (
            cold.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
        )
    assert cold.stats.misses == 1
    assert cold.stats.corrupt_artifacts == 0  # unreadable != corrupt


def test_transient_flush_error_is_retried_away(tmp_path, scenario, workload, result):
    cache = _filled_cache(tmp_path, scenario, workload, result)
    rule = FaultRule(point="diskcache.flush.replace", error="EIO", times=2)
    with injected(_plan(rule)):
        assert cache.flush() == 1
        assert fired_counts() == {"diskcache.flush.replace": 2}
    assert cache.stats.write_errors == 0
    assert not cache.read_only
    warm = SimulationCache(tmp_path / "cache")
    assert warm.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) == result


def test_fatal_flush_error_degrades_to_read_only(
    tmp_path, scenario, workload, result, capsys
):
    cache = _filled_cache(tmp_path, scenario, workload, result)
    rule = FaultRule(point="diskcache.flush.write", error="ENOSPC", times=None)
    with injected(_plan(rule)):
        assert cache.flush() == 0
        assert cache.flush() == 0  # read-only now: flushes are no-ops
    assert cache.read_only
    assert cache.stats.write_errors == 1
    # Buffered entries still serve in-process gets.
    assert cache.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) == result
    warnings = [
        line
        for line in capsys.readouterr().err.splitlines()
        if "degraded to read-only" in line
    ]
    assert len(warnings) == 1  # one-shot, not one line per shard/flush


def test_torn_shard_is_quarantined_and_recomputed(
    tmp_path, scenario, workload, result, capsys
):
    cache = _filled_cache(tmp_path, scenario, workload, result)
    # Tear the temp file right before the atomic publish: the shard that
    # lands on disk is truncated JSON.
    rule = FaultRule(
        point="diskcache.flush.write", action="truncate", keep_bytes=20
    )
    with injected(_plan(rule)):
        assert cache.flush() == 1

    cold = SimulationCache(tmp_path / "cache")
    assert cold.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) is None
    assert cold.stats.corrupt_artifacts == 1
    corrupt = list((tmp_path / "cache" / "corrupt").iterdir())
    assert len(corrupt) == 1
    assert "corrupt cache shard" in capsys.readouterr().err

    # Recovery: recompute, re-publish, read back cleanly.
    assert cold.put(scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result)
    assert cold.flush() == 1
    warm = SimulationCache(tmp_path / "cache")
    assert warm.get(scenario, workload, "routing", DesignPoint.PIM_CAPSNET) == result
    assert warm.stats.corrupt_artifacts == 0


def _flush_rows(cache, scenario, workload, result, frequencies):
    """One flush per frequency, each publishing one row."""
    for frequency in frequencies:
        assert cache.put(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result,
            pe_frequency_mhz=frequency,
        )
        assert cache.flush() == 1


def _plane_files(root, scenario):
    digest = scenario.plane_hash()
    return sorted((root / f"v{diskcache.CACHE_SCHEMA_VERSION}" / digest[:2] / digest).glob("*.json"))


@pytest.fixture
def fault_calls(monkeypatch):
    """Every ``(point, path)`` the cache module fires from now on."""
    calls = []
    fire = diskcache.fault_point

    def recorded(name, path=None):
        calls.append((name, path))
        fire(name, path=path)

    monkeypatch.setattr(diskcache, "fault_point", recorded)
    return calls


def test_every_delta_and_compaction_publish_fires_the_flush_points(
    tmp_path, scenario, workload, result, fault_calls
):
    cache = SimulationCache(tmp_path / "cache")
    # MAX_DELTAS + 1 deltas; publishing the last one compacts the plane.
    _flush_rows(cache, scenario, workload, result, [100.0 + i for i in range(MAX_DELTAS + 1)])
    [base] = _plane_files(tmp_path / "cache", scenario)
    assert base.name.startswith("base-")
    writes = [path for name, path in fault_calls if name == "diskcache.flush.write"]
    replaces = [path for name, path in fault_calls if name == "diskcache.flush.replace"]
    assert len(writes) == len(replaces) == MAX_DELTAS + 2
    # The write point names the temporary file about to be published.
    assert all(str(path).endswith(".tmp") for path in writes)
    assert {Path(path).parent for path in writes} == {base.parent}
    assert replaces == [None] * len(replaces)


def test_each_shard_file_read_fires_the_read_point(
    tmp_path, scenario, workload, result, fault_calls
):
    def reads():
        return sorted(path for name, path in fault_calls if name == "diskcache.shard.read")

    own, other = SimulationCache(tmp_path / "cache"), SimulationCache(tmp_path / "cache")
    frequencies = [100.0 + i for i in range(MAX_DELTAS + 3)]
    assert other.put(
        scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result,
        pe_frequency_mhz=frequencies[0],
    )
    _flush_rows(own, scenario, workload, result, frequencies[1 : MAX_DELTAS + 1])
    deltas = _plane_files(tmp_path / "cache", scenario)
    assert len(deltas) == MAX_DELTAS and not reads()
    # Its compaction reads each delta it does not hold once, and not its own.
    assert other.flush() == 1
    assert reads() == deltas
    _flush_rows(own, scenario, workload, result, frequencies[MAX_DELTAS + 1 :])
    files = _plane_files(tmp_path / "cache", scenario)
    assert [path.name.split("-")[0] for path in files] == ["base", "delta", "delta"]
    fault_calls.clear()
    reader = SimulationCache(tmp_path / "cache")
    for frequency in frequencies:
        assert reader.get(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, pe_frequency_mhz=frequency
        ) == result
    assert reads() == files


def test_a_corrupt_delta_is_quarantined_alone(tmp_path, scenario, workload, result, capsys):
    frequencies = [100.0 + i for i in range(MAX_DELTAS + 4)]
    _flush_rows(SimulationCache(tmp_path / "cache"), scenario, workload, result, frequencies)
    base, *deltas = _plane_files(tmp_path / "cache", scenario)
    assert base.name.startswith("base-") and len(deltas) == 3
    deltas[1].write_text('{"schema": 4, "blocks": [', encoding="utf-8")

    reader = SimulationCache(tmp_path / "cache")
    found = [
        reader.get(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, pe_frequency_mhz=frequency
        )
        for frequency in frequencies
    ]
    # The base's rows and the other deltas' rows still serve.
    assert found == [result] * (MAX_DELTAS + 2) + [None, result]
    assert reader.stats.corrupt_artifacts == 1
    assert [path.name for path in (tmp_path / "cache" / "corrupt").iterdir()] == [deltas[1].name]
    assert _plane_files(tmp_path / "cache", scenario) == [base, deltas[0], deltas[2]]
    assert "corrupt cache shard" in capsys.readouterr().err


# ----------------------------------------------------------- model cache


def _model_parts():
    key = {"pipeline": "table5", "seed": 1234}
    state = {"w": np.arange(6, dtype=np.float64).reshape(2, 3)}
    accuracies = {"origin": 0.995, "approx": 0.991}
    return key, state, accuracies


def test_model_read_error_is_a_plain_miss(tmp_path):
    key, state, accuracies = _model_parts()
    cache = TrainedModelCache(tmp_path / "cache")
    assert cache.put(key, state, accuracies)
    rule = FaultRule(point="modelcache.read", error="EIO")
    with injected(_plan(rule)):
        assert cache.get(key) is None
    assert cache.stats.misses == 1
    assert cache.stats.corrupt_artifacts == 0
    artifact = cache.get(key)  # fault window spent: clean read works
    assert artifact is not None
    assert artifact.accuracies == accuracies


def test_torn_model_artifact_is_quarantined(tmp_path, capsys):
    key, state, accuracies = _model_parts()
    cache = TrainedModelCache(tmp_path / "cache")
    # Tear the temp file before the publish: a truncated .npz lands on disk.
    rule = FaultRule(point="modelcache.write", action="truncate", keep_bytes=64)
    with injected(_plan(rule)):
        assert cache.put(key, state, accuracies)

    cold = TrainedModelCache(tmp_path / "cache")
    assert cold.get(key) is None
    assert cold.stats.corrupt_artifacts == 1
    corrupt = list((tmp_path / "cache" / "corrupt").iterdir())
    assert len(corrupt) == 1
    assert "corrupt trained-model artifact" in capsys.readouterr().err

    # The retrain-and-rewrite path recovers.
    assert cold.put(key, state, accuracies)
    warm = TrainedModelCache(tmp_path / "cache")
    assert warm.get(key).accuracies == accuracies


def test_transient_model_publish_error_is_retried(tmp_path):
    key, state, accuracies = _model_parts()
    cache = TrainedModelCache(tmp_path / "cache")
    rule = FaultRule(point="modelcache.replace", error="EIO", times=1)
    with injected(_plan(rule)):
        assert cache.put(key, state, accuracies)
    assert cache.stats.write_errors == 0
    assert cache.get(key).accuracies == accuracies


def test_fatal_model_publish_error_degrades_to_read_only(tmp_path, capsys):
    key, state, accuracies = _model_parts()
    cache = TrainedModelCache(tmp_path / "cache")
    rule = FaultRule(point="modelcache.replace", error="EACCES", times=None)
    with injected(_plan(rule)):
        assert not cache.put(key, state, accuracies)
        assert not cache.put(key, state, accuracies)  # read-only no-op
    assert cache.read_only
    assert cache.stats.write_errors == 1  # the second put never hit the disk
    warnings = [
        line
        for line in capsys.readouterr().err.splitlines()
        if "degraded to read-only" in line
    ]
    assert len(warnings) == 1


# ------------------------------------------------- one publish, three writers
#
# Shard flushes, model puts and queue done-files all publish through
# ``publish_file``: one that fails for good leaves no temporary file and the
# file published before it as it was.


def _shard_flush(tmp_path, scenario, workload, result):
    cache = _filled_cache(tmp_path, scenario, workload, result)
    assert cache.flush() == 1

    def publish():
        cache.put(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result, pe_frequency_mhz=625.0
        )
        assert cache.flush() == 0
        assert cache.stats.write_errors == 1

    return publish, tmp_path / "cache"


def _model_put(tmp_path, scenario, workload, result):
    key, state, accuracies = _model_parts()
    cache = TrainedModelCache(tmp_path / "cache")
    assert cache.put(key, state, accuracies)

    def publish():
        assert not cache.put(key, {"w": state["w"] + 1.0}, accuracies)
        assert cache.stats.write_errors == 1

    return publish, tmp_path / "cache"


def _queue_done(tmp_path, scenario, workload, result):
    spec = SweepSpec.from_axes({"hmc.pe_frequency_mhz": [312.5, 625.0]}, benchmarks=("Caps-MN1",))
    workdir = tmp_path / "wd"
    run_queued_sweep(spec, shard_size=1, workdir=workdir, cache_dir=tmp_path / "cache")
    queue = _ShardQueue(workdir, load_manifest(workdir), "second")  # a new done-file payload

    def publish():
        with pytest.raises(OSError):
            queue.execute(0)

    return publish, workdir / "done"


@pytest.mark.parametrize(
    "writer, point",
    [
        (_shard_flush, "diskcache.flush.replace"),
        (_model_put, "modelcache.replace"),
        (_queue_done, "queue.done.publish"),
    ],
    ids=["shard-flush", "model-put", "queue-done"],
)
def test_failed_publish_leaves_no_temp_file_and_keeps_the_old_file(
    tmp_path, scenario, workload, result, writer, point
):
    publish, directory = writer(tmp_path, scenario, workload, result)
    before = {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}
    assert before
    with injected(_plan(FaultRule(point=point, error="EIO", times=None))):
        publish()
        assert fired_counts() == {point: DEFAULT_ATTEMPTS}  # every retry spent
    assert {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()} == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_failed_compaction_leaves_no_temp_file_and_keeps_the_plane(
    tmp_path, scenario, workload, result
):
    """The compaction publish of the test above: the flush's delta is out,
    and the new base's publish fails for good."""
    cache = SimulationCache(tmp_path / "cache")
    frequencies = [100.0 + i for i in range(MAX_DELTAS + 1)]
    _flush_rows(cache, scenario, workload, result, frequencies[:-1])
    before = {path: path.read_bytes() for path in _plane_files(tmp_path / "cache", scenario)}
    assert len(before) == MAX_DELTAS
    # The first replace publishes the delta; every attempt of the base fails.
    rule = FaultRule(point="diskcache.flush.replace", error="EIO", after=1, times=None)
    with injected(_plan(rule)):
        _flush_rows(cache, scenario, workload, result, frequencies[-1:])
        assert fired_counts() == {"diskcache.flush.replace": DEFAULT_ATTEMPTS}
    assert cache.stats.write_errors == 1 and not cache.read_only
    after = {path: path.read_bytes() for path in _plane_files(tmp_path / "cache", scenario)}
    assert {path: after[path] for path in before} == before
    assert [path.name.split("-")[0] for path in after] == ["delta"] * (MAX_DELTAS + 1)
    assert not list(tmp_path.rglob("*.tmp"))
    fresh = SimulationCache(tmp_path / "cache")
    for frequency in frequencies:
        assert fresh.get(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET, pe_frequency_mhz=frequency
        ) == result
