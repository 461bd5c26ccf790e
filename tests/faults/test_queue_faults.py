"""Fault injection against the sharded sweep queue.

Covers the queue's degradation story: claim/heartbeat faults never hang a
worker, cross-host lease reclamation is driven by heartbeat TTLs (live
leases are never stolen), poison shards retire into an explicit
partial-results report, and torn done-files are detected and re-executed.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.faults import FaultPlan, FaultRule, injected
from repro.sweep import SweepRunner, SweepSpec, run_queued_sweep, run_worker
from repro.sweep.queue import (
    _ShardQueue,
    _atomic_write_json,
    _build_manifest,
    load_manifest,
)


@pytest.fixture
def spec():
    return SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [156.25, 312.5, 625.0, 1250.0]},
        benchmarks=("Caps-MN1",),
    )


def _plan(*rules):
    return FaultPlan(rules=tuple(rules))


def _make_workdir(tmp_path, spec, shard_size=1, heartbeat_ttl=60.0):
    runner = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "cache")
    manifest = _build_manifest(
        runner.spec,
        runner.base,
        runner.benchmarks,
        shard_size=shard_size,
        cache_dir=runner.cache_dir,
        use_cache=True,
        heartbeat_ttl=heartbeat_ttl,
    )
    workdir = tmp_path / "wd"
    _atomic_write_json(workdir / "manifest.json", manifest)
    return workdir


def _queue(workdir, worker_id="tester"):
    return _ShardQueue(workdir, load_manifest(workdir), worker_id)


def _write_lease(queue, shard, *, worker, pid, host):
    queue.lease_path(shard).write_text(
        json.dumps({"worker": worker, "pid": pid, "host": host}), encoding="utf-8"
    )


# --------------------------------------------------------------- claim faults


def test_claim_fault_skips_the_shard_without_hanging(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec)
    queue = _queue(workdir)
    rule = FaultRule(point="queue.lease.claim", error="EACCES", times=None)
    with injected(_plan(rule)):
        assert not queue.try_claim(0)
        report = run_worker(workdir, "blocked")
    # Unable to claim anything, the worker returns instead of spinning.
    assert report["shards_executed"] == 0
    # With the fault cleared, the same shard claims normally.
    assert queue.try_claim(0)


def test_heartbeat_fault_is_best_effort(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec)
    queue = _queue(workdir, "mute")
    rule = FaultRule(point="queue.heartbeat.write", error="EIO", times=None)
    with injected(_plan(rule)):
        queue.beat()  # must not raise
        assert not queue.heartbeat_path("mute").exists()
        # A worker that cannot heartbeat still drains the queue.
        report = run_worker(workdir, "mute")
    assert report["shards_executed"] == 4
    assert report["shard_failures"] == 0


# ------------------------------------------------- heartbeat-TTL reclamation


def test_remote_lease_without_heartbeat_is_honored(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec, heartbeat_ttl=0.5)
    queue = _queue(workdir)
    _write_lease(queue, 0, worker="ghost", pid=12345, host="elsewhere")
    assert not queue.try_claim(0)  # conservative: no proof the holder died


def test_remote_lease_with_fresh_heartbeat_is_honored(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec, heartbeat_ttl=60.0)
    queue = _queue(workdir)
    _write_lease(queue, 0, worker="remote-1", pid=12345, host="elsewhere")
    _atomic_write_json(
        queue.heartbeat_path("remote-1"),
        {"worker": "remote-1", "pid": 12345, "host": "elsewhere"},
    )
    assert not queue.try_claim(0)  # live by heartbeat: never stolen


def test_remote_lease_with_expired_heartbeat_is_reclaimed(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec, heartbeat_ttl=0.5)
    queue = _queue(workdir)
    _write_lease(queue, 0, worker="remote-1", pid=12345, host="elsewhere")
    heartbeat = queue.heartbeat_path("remote-1")
    _atomic_write_json(
        heartbeat, {"worker": "remote-1", "pid": 12345, "host": "elsewhere"}
    )
    stale = time.time() - 10.0
    os.utime(heartbeat, (stale, stale))
    assert queue.try_claim(0)  # provably dead by TTL: reclaimed
    lease = json.loads(queue.lease_path(0).read_text(encoding="utf-8"))
    assert lease["worker"] == "tester"


def test_local_live_pid_is_never_stolen(tmp_path, spec):
    import socket

    workdir = _make_workdir(tmp_path, spec, heartbeat_ttl=0.5)
    queue = _queue(workdir)
    # pid 1 exists on any POSIX host; the holder is alive, TTL is irrelevant.
    _write_lease(queue, 0, worker="other", pid=1, host=socket.gethostname())
    assert not queue.try_claim(0)


def test_local_dead_pid_is_reclaimed(tmp_path, spec):
    import socket

    workdir = _make_workdir(tmp_path, spec)
    queue = _queue(workdir)
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    _write_lease(queue, 0, worker="dead", pid=proc.pid, host=socket.gethostname())
    assert queue.try_claim(0)


# ------------------------------------------------------------- poison shards


def test_poison_shard_yields_partial_results_then_resume_completes(
    tmp_path, spec
):
    rule = FaultRule(point="queue.shard.execute", error="EIO", times=1)
    with injected(_plan(rule)):
        partial = run_queued_sweep(
            spec,
            workers=1,
            shard_size=1,
            cache_dir=tmp_path / "cache",
            workdir=tmp_path / "wd",
            max_attempts=1,
        )
    assert len(partial.failed_shards) == 1
    assert partial.failed_shards[0]["shard"] == 0
    assert partial.failed_shards[0]["attempts"] == 1
    assert "injected at queue.shard.execute" in partial.failed_shards[0]["error"]
    assert len(partial.points) == 3  # the failed slice is absent, not faked
    report = partial.format_report()
    assert "PARTIAL RESULTS: 1 shard(s) failed permanently" in report
    assert "--resume" in report
    assert "failed_shards" in partial.to_dict()
    assert partial.describe_stats().endswith("1 failed shard(s)")

    # Fault cleared: --resume gives the shard a fresh budget and completes.
    resumed = run_queued_sweep(
        spec,
        workers=1,
        shard_size=1,
        cache_dir=tmp_path / "cache",
        workdir=tmp_path / "wd",
        resume=True,
    )
    assert resumed.failed_shards == []
    assert len(resumed.points) == 4
    reference = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "ref").run()
    assert resumed.format_report() == reference.format_report()
    assert "failed_shards" not in resumed.to_dict()
    assert resumed.to_dict() == reference.to_dict()


def test_transient_shard_failure_retries_within_the_budget(tmp_path, spec):
    rule = FaultRule(point="queue.shard.execute", error="EIO", times=1)
    with injected(_plan(rule)):
        result = run_queued_sweep(
            spec,
            workers=1,
            shard_size=1,
            cache_dir=tmp_path / "cache",
            workdir=tmp_path / "wd",
            max_attempts=3,
        )
    # One execution failed, but the retry pass completed the sweep fully.
    assert result.failed_shards == []
    assert len(result.points) == 4
    reference = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "ref").run()
    assert result.format_report() == reference.format_report()


# ------------------------------------------------------------ torn done-files


def test_torn_done_file_is_detected_and_re_executed(tmp_path, spec):
    workdir = _make_workdir(tmp_path, spec)
    rule = FaultRule(
        point="queue.done.publish", action="truncate", keep_bytes=25
    )
    with injected(_plan(rule)):
        report = run_worker(workdir, "torn")
    # The worker noticed the torn publish on its completeness pass and
    # re-executed that shard; every published done-file parses.
    assert report["shards_executed"] == 5  # 4 shards + 1 redo
    queue = _queue(workdir)
    assert all(queue.settled(shard) for shard in range(4))

    merged = run_queued_sweep(
        spec,
        workers=1,
        shard_size=1,
        cache_dir=tmp_path / "cache",
        workdir=workdir,
        resume=True,
    )
    reference = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "ref").run()
    assert merged.format_report() == reference.format_report()
