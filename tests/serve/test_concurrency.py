"""Concurrency hardening for the layers the serve process shares.

Extends the cache's cross-process coverage
(``tests/engine/test_diskcache.py``) to the in-process thread model the
HTTP server actually runs: many handler threads multiplexed onto one warm
:class:`~repro.api.session.Session` and one persistent cache directory.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.core.accelerator import DesignPoint
from repro.engine.context import SimulationContext
from repro.engine.diskcache import MAX_DELTAS, SimulationCache, TrainedModelCache
from repro.workloads.benchmarks import get_benchmark


def _run_threads(targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()


# -------------------------------------------------------- shared sessions


def test_shared_session_threads_match_serial_byte_for_byte():
    selections = [("fig15",), ("fig16",), ("fig15", "fig16")]
    benchmarks = ["Caps-MN1", "Caps-SV1"]

    serial = {
        selection: Session()
        .run(list(selection), benchmarks=benchmarks)
        .report()
        for selection in selections
    }

    shared = Session()  # one warm session, like the server's LRU slot
    reports = {}
    lock = threading.Lock()
    barrier = threading.Barrier(2 * len(selections), timeout=120)

    def invoke(selection):
        barrier.wait()  # maximize overlap on the shared context
        report = shared.run(list(selection), benchmarks=benchmarks).report()
        with lock:
            reports.setdefault(selection, []).append(report)

    _run_threads(
        [lambda s=s: invoke(s) for s in selections for _ in range(2)]
    )

    for selection in selections:
        assert len(reports[selection]) == 2
        for report in reports[selection]:
            assert report == serial[selection]  # byte-identical to serial


# -------------------------------------------- simulation cache, same shard


def test_threaded_same_shard_writers_lose_no_entries(tmp_path):
    # N threads each flush their own cache instance into one plane
    # concurrently: each publishes its own delta, and every entry is kept.
    scenario = Scenario.default()
    workload = get_benchmark("Caps-MN1")
    context = SimulationContext(scenario=scenario)
    result = context.routing(workload.name, DesignPoint.PIM_CAPSNET)

    writers = 8
    barrier = threading.Barrier(writers, timeout=60)

    def write(index):
        cache = SimulationCache(tmp_path)
        # Distinct frequency per writer keys a distinct cache entry.
        cache.put(
            scenario,
            workload,
            "routing",
            DesignPoint.PIM_CAPSNET,
            result,
            pe_frequency_mhz=100.0 + index,
        )
        barrier.wait()  # all flushes race on the same shard file
        cache.flush()

    _run_threads([lambda i=i: write(i) for i in range(writers)])

    fresh = SimulationCache(tmp_path)
    for index in range(writers):
        assert (
            fresh.get(
                scenario,
                workload,
                "routing",
                DesignPoint.PIM_CAPSNET,
                pe_frequency_mhz=100.0 + index,
            )
            == result
        )
    assert fresh.stats.hits == writers


def test_racing_flushes_and_compactions_lose_no_rows(tmp_path):
    # More writers than cores, each flushing one row at a time into one
    # plane: deltas race with each other and with compactions that unlink
    # them.  Three writers share one cache instance, so its pending rows
    # are swapped out by one flush while other threads store more.
    scenario = Scenario.default()
    workload = get_benchmark("Caps-MN1")
    result = SimulationContext(scenario=scenario).routing(workload.name, DesignPoint.PIM_CAPSNET)
    writers, rows_each = 6, 2 * MAX_DELTAS
    shared = SimulationCache(tmp_path)
    caches = [shared] * 3 + [SimulationCache(tmp_path) for _ in range(writers - 3)]
    barrier = threading.Barrier(writers, timeout=60)

    def write(index):
        barrier.wait()
        for row in range(rows_each):
            assert caches[index].put(
                scenario, workload, "routing", DesignPoint.PIM_CAPSNET, result,
                pe_frequency_mhz=100.0 + index * rows_each + row,
            )
            caches[index].flush()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_threads([lambda i=i: write(i) for i in range(writers)])
    finally:
        sys.setswitchinterval(interval)

    fresh = SimulationCache(tmp_path)
    for frequency in range(writers * rows_each):
        assert fresh.get(
            scenario, workload, "routing", DesignPoint.PIM_CAPSNET,
            pe_frequency_mhz=100.0 + frequency,
        ) == result
    assert fresh.stats.hits == writers * rows_each
    assert all(cache.stats.write_errors == cache.stats.corrupt_artifacts == 0 for cache in caches)
    assert not list(tmp_path.rglob("*.tmp"))


# --------------------------------------------------- trained-model cache


def test_threaded_model_cache_writers_distinct_keys(tmp_path):
    cache = TrainedModelCache(tmp_path)
    writers = 6
    barrier = threading.Barrier(writers, timeout=60)

    def write(index):
        barrier.wait()
        ok = cache.put(
            {"benchmark": "Caps-Tiny", "seed": index},
            {"weights": np.full((4, 4), float(index))},
            {"origin": 0.9, "index": float(index)},
        )
        assert ok

    _run_threads([lambda i=i: write(i) for i in range(writers)])

    fresh = TrainedModelCache(tmp_path)
    for index in range(writers):
        artifact = fresh.get({"benchmark": "Caps-Tiny", "seed": index})
        assert artifact is not None
        np.testing.assert_array_equal(
            artifact.state["weights"], np.full((4, 4), float(index))
        )
        assert artifact.accuracies["index"] == float(index)


def test_threaded_model_cache_same_key_stays_consistent(tmp_path):
    # Racing writers on ONE key: the atomic rename must publish exactly one
    # writer's artifact intact (state and accuracies from the same put).
    cache = TrainedModelCache(tmp_path)
    key = {"benchmark": "Caps-Tiny", "seed": 0}
    writers = 6
    barrier = threading.Barrier(writers, timeout=60)

    def write(index):
        barrier.wait()
        cache.put(
            key,
            {"weights": np.full((3, 3), float(index))},
            {"index": float(index)},
        )

    _run_threads([lambda i=i: write(i) for i in range(writers)])

    artifact = TrainedModelCache(tmp_path).get(key)
    assert artifact is not None
    winner = artifact.accuracies["index"]
    assert winner in {float(index) for index in range(writers)}
    np.testing.assert_array_equal(
        artifact.state["weights"], np.full((3, 3), winner)
    )
