"""Tests for :mod:`repro.sweep.queue` (shards, leases, resume)."""

import json
import os
import socket
import subprocess
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.sweep import (
    SweepRunner,
    SweepSpec,
    run_queued_sweep,
    run_worker,
    shard_ranges,
)
from repro.sweep.queue import _atomic_write_json, _build_manifest, load_manifest


@pytest.fixture
def spec():
    return SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [156.25, 312.5, 625.0, 1250.0]},
        benchmarks=("Caps-MN1", "Caps-SV1"),
    )


def _make_workdir(tmp_path, spec, shard_size=1, use_cache=True):
    """A queue workdir with a written manifest (no workers run yet)."""
    runner = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "cache")
    manifest = _build_manifest(
        runner.spec,
        runner.base,
        runner.benchmarks,
        shard_size=shard_size,
        cache_dir=runner.cache_dir,
        use_cache=use_cache,
    )
    workdir = tmp_path / "wd"
    _atomic_write_json(workdir / "manifest.json", manifest)
    return workdir


def test_shard_ranges_partition_the_grid_exactly():
    assert shard_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert shard_ranges(4, 100) == [(0, 4)]
    assert shard_ranges(0, 4) == []


def test_queued_sweep_matches_the_in_process_runner(tmp_path, spec):
    queued = run_queued_sweep(
        spec, workers=2, shard_size=1, cache_dir=tmp_path / "queue-cache"
    )
    direct = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "direct-cache").run()
    assert queued.format_report() == direct.format_report()
    assert queued.to_dict() == direct.to_dict()
    assert queued.jobs == 2
    assert queued.executor_used.startswith("queue-")


def test_resumed_complete_sweep_executes_nothing(tmp_path, spec):
    cold = run_queued_sweep(spec, workers=2, shard_size=1, cache_dir=tmp_path)
    warm = run_queued_sweep(
        spec, workers=2, shard_size=1, cache_dir=tmp_path, resume=True
    )
    assert cold.simulations_executed > 0
    assert warm.simulations_executed == 0
    assert warm.cache.misses == 0
    assert warm.format_report() == cold.format_report()
    assert warm.to_dict() == cold.to_dict()


def test_killed_sweep_resumes_without_redoing_completed_shards(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec, shard_size=1)
    # A worker that dies after two of the four shards (mid-flight kill).
    report = run_worker(workdir, "doomed", max_shards=2)
    assert report["shards_executed"] == 2
    done = sorted(path.name for path in (workdir / "done").iterdir())
    assert done == ["shard-00000.json", "shard-00001.json"]

    resumed = run_queued_sweep(
        spec,
        workers=1,
        shard_size=1,
        cache_dir=tmp_path / "cache",
        workdir=workdir,
        resume=True,
    )
    # Only the two missing shards executed: completed shards contribute zero
    # new simulations (their results come straight from the done-files).
    assert len(resumed.points) == 4
    assert resumed.cache.misses == report["disk_misses"]  # same 2-shard volume
    reference = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "ref").run()
    assert resumed.format_report() == reference.format_report()

    # Resuming again is entirely free.
    again = run_queued_sweep(
        spec,
        workers=1,
        shard_size=1,
        cache_dir=tmp_path / "cache",
        workdir=workdir,
        resume=True,
    )
    assert again.simulations_executed == 0


def test_resume_reads_a_workdir_in_its_json_form(tmp_path, spec):
    # A workdir as earlier versions wrote it: a manifest without the backend
    # and verify keys, and a done-file storing each cell as a field-name
    # mapping.  Its worker evaluates with the default backend, and the merge
    # takes the stored cells as they are.
    workdir = _make_workdir(tmp_path, spec, shard_size=2)
    manifest = load_manifest(workdir)
    del manifest["backend"], manifest["verify"]
    _atomic_write_json(workdir / "manifest.json", manifest)
    stored = [
        {
            "benchmark": name,
            "design": "pim-capsnet",
            "time_seconds": 1.0,
            "energy_joules": 2.0,
            "baseline_time_seconds": 4.0,
            "baseline_energy_joules": 8.0,
        }
        for name in ("Caps-MN1", "Caps-SV1")
    ]
    outcome = {"cells": stored, "simulations": 4, "disk_hits": 0, "disk_misses": 4}
    _atomic_write_json(
        workdir / "done" / "shard-00000.json",
        {"schema": 1, "shard": 0, "start": 0, "stop": 2, "worker": "old", "outcomes": [outcome] * 2},
    )
    assert run_worker(workdir, "w0")["shards_executed"] == 1

    resumed = run_queued_sweep(
        spec, workers=1, shard_size=2, cache_dir=tmp_path / "cache", workdir=workdir, resume=True
    )
    assert resumed.simulations_executed == 0
    assert [cell._asdict() for cell in resumed.points[0].cells] == stored
    assert resumed.points[1].cells[1].speedup == 4.0
    reference = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "ref").run().to_dict()["points"]
    points = resumed.to_dict()["points"]
    assert [point["scenario"] for point in points] == [point["scenario"] for point in reference]
    assert points[2:] == reference[2:]
    with open(workdir / "done" / "shard-00001.json") as stream:
        written = json.load(stream)["outcomes"]
    assert [outcome["cells"] for outcome in written] == [
        [cell._asdict() for cell in point.cells] for point in resumed.points[2:]
    ]


def test_concurrent_workers_never_double_execute_a_shard(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec, shard_size=1)
    with ThreadPoolExecutor(max_workers=2) as pool:
        reports = list(
            pool.map(lambda wid: run_worker(workdir, wid), ["w0", "w1"])
        )
    executed = sum(report["shards_executed"] for report in reports)
    assert executed == 4  # every shard exactly once across both workers
    for shard in range(4):
        with open(workdir / "done" / f"shard-{shard:05d}.json") as stream:
            payload = json.load(stream)
        assert payload["worker"] in {"w0", "w1"}
        assert payload["shard"] == shard


def test_live_lease_is_honored(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec, shard_size=1)
    leases = workdir / "leases"
    leases.mkdir(parents=True)
    # A lease held by *this* (alive) process must never be stolen.
    with open(leases / "shard-00000.lock", "w") as stream:
        json.dump(
            {"worker": "other", "pid": os.getpid(), "host": socket.gethostname()},
            stream,
        )
    report = run_worker(workdir, "w0")
    assert report["shards_executed"] == 3
    assert not (workdir / "done" / "shard-00000.json").exists()


def test_stale_lease_of_dead_process_is_reclaimed(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec, shard_size=1)
    leases = workdir / "leases"
    leases.mkdir(parents=True)
    proc = subprocess.Popen(["true"])
    proc.wait()  # reaped: the pid no longer names a live process
    with open(leases / "shard-00000.lock", "w") as stream:
        json.dump(
            {"worker": "dead", "pid": proc.pid, "host": socket.gethostname()},
            stream,
        )
    report = run_worker(workdir, "w0")
    assert report["shards_executed"] == 4  # the orphaned shard was reclaimed
    assert (workdir / "done" / "shard-00000.json").exists()


def test_resume_refuses_a_mismatched_workdir(tmp_path, spec):
    workdir = tmp_path / "wd"
    run_queued_sweep(
        spec, workers=1, shard_size=2, cache_dir=tmp_path, workdir=workdir
    )
    other = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5]}, benchmarks=("Caps-MN1",)
    )
    with pytest.raises(ValueError, match="different sweep"):
        run_queued_sweep(
            other,
            workers=1,
            shard_size=2,
            cache_dir=tmp_path,
            workdir=workdir,
            resume=True,
        )


def test_fresh_run_clears_stale_queue_state(tmp_path, spec):
    workdir = tmp_path / "wd"
    first = run_queued_sweep(
        spec,
        workers=1,
        shard_size=1,
        cache_dir=tmp_path,
        workdir=workdir,
        use_cache=False,
    )
    # Without --resume the done-files are dropped and every shard re-runs.
    second = run_queued_sweep(
        spec,
        workers=1,
        shard_size=1,
        cache_dir=tmp_path,
        workdir=workdir,
        use_cache=False,
    )
    assert first.simulations_executed > 0
    assert second.simulations_executed == first.simulations_executed
    assert second.format_report() == first.format_report()


def test_worker_without_manifest_fails_clearly(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest"):
        run_worker(tmp_path / "nowhere")


def test_manifest_roundtrip_and_digest_stability(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec, shard_size=2)
    manifest = load_manifest(workdir)
    assert manifest["grid_size"] == 4
    assert manifest["num_shards"] == 2
    assert manifest["benchmarks"] == ["Caps-MN1", "Caps-SV1"]
    runner = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "cache")
    rebuilt = _build_manifest(
        runner.spec,
        runner.base,
        runner.benchmarks,
        shard_size=2,
        cache_dir=runner.cache_dir,
        use_cache=True,
    )
    assert rebuilt["digest"] == manifest["digest"]


def test_default_workdir_is_content_addressed(tmp_path, spec):
    cold = run_queued_sweep(spec, workers=1, shard_size=2, cache_dir=tmp_path)
    sweeps = sorted((tmp_path / "sweeps").iterdir())
    assert len(sweeps) == 1
    # A bare --resume (no explicit workdir) finds the same directory.
    warm = run_queued_sweep(
        spec, workers=1, shard_size=2, cache_dir=tmp_path, resume=True
    )
    assert warm.simulations_executed == 0
    assert warm.format_report() == cold.format_report()
