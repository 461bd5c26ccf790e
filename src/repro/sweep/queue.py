"""Sharded, resumable sweep execution over a filesystem work queue.

Huge grids need two properties the in-process sweep runner cannot give:

* **scale-out** -- N independent worker *processes* (same host or many, on a
  shared filesystem) chew through one grid without any shared runtime, and
* **resume** -- a killed sweep restarts and completes without redoing work.

Both come from one layout: a *workdir* holding a manifest plus two
directories of tiny files, with the filesystem as the only coordination
channel (the batch-job pattern of condor/slurm runners):

``workdir/``
    ``manifest.json``          the full job description: sweep spec, base
                               scenario, resolved benchmarks, shard size,
                               cache settings, backend, verify mode and a
                               content digest.  Workers read *only* this
                               file (once), rebuild the
                               :class:`~repro.sweep.runner.SweepRunner` it
                               describes and never need the merger process.
    ``leases/shard-NNNNN.lock``  an **atomic claim** (``O_CREAT | O_EXCL``)
                               naming the worker (pid + host).  At most one
                               worker can ever hold a shard; leases of dead
                               local processes are reclaimed, and leases of
                               *remote* workers whose heartbeat expired are
                               reclaimed too.
    ``done/shard-NNNNN.json``  the shard's published outcomes.
    ``heartbeats/<worker>.json``  touched periodically by every live worker;
                               a lease whose holder's heartbeat is older
                               than the TTL is provably abandoned even
                               across hosts (a worker with *no* heartbeat
                               file is honored -- never steal on silence).
    ``attempts/shard-NNNNN.json``  per-shard failure count, updated under
                               the shard's exclusive lease.
    ``failed/shard-NNNNN.json``  the poison-shard marker: a shard that
                               failed ``max_attempts`` times is retired so
                               the sweep completes with an explicit
                               partial-results report instead of hanging.

Every file but a lease is published through the disk caches' one publish,
:func:`~repro.engine.diskcache.publish_file` (a temp file ``os.replace``-d
over the target, retried on transient errors), so readers only ever see
complete files.

Shards are deterministic, contiguous slices of the row-major grid
(``spec.assignments()``), so any worker can recompute the whole partition
from the manifest alone.  The runner evaluates each slice and assembles the
merged result; this module only adds what a queue alone needs: manifest,
leases, heartbeats, attempt records, done-files and merge order.  Results
additionally flow into the shared
:class:`~repro.engine.diskcache.SimulationCache`, which means a *resumed*
sweep finishes from done-files and cache hits with zero re-executed
simulations -- and an unrelated ``repro compare`` benefits from a sweep that
already visited its scenario.

The manifest digest covers the cache schema version, so after a schema bump
(v3 -> v4) a bare ``--resume`` of an older sweep starts clean in a new
default workdir, and resuming an older explicit ``--workdir`` is refused.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Set, Union

from repro.api.scenario import Scenario
from repro.engine.diskcache import (
    CACHE_SCHEMA_VERSION,
    canonical_digest,
    default_cache_dir,
    publish_file,
)
from repro.faults import point as fault_point
from repro.sweep.runner import SweepCell, SweepResult, SweepRunner, map_in_processes
from repro.sweep.spec import SweepSpec

#: Version of the workdir layout; bumping it orphans old workdirs.
QUEUE_SCHEMA_VERSION = 1

#: Default grid points per shard -- small enough that a killed worker loses
#: little work, large enough that the vectorized backend sees whole batches.
DEFAULT_SHARD_SIZE = 256

#: Default executions a shard gets before it is retired as poisoned.
DEFAULT_MAX_ATTEMPTS = 3

#: Default age (seconds) after which a worker's heartbeat counts as expired
#: and its leases become reclaimable by other hosts.
DEFAULT_HEARTBEAT_TTL = 60.0


def _atomic_write_json(path: Path, payload: dict, faults: Sequence[str] = ()) -> None:
    """Publish ``payload`` as JSON at ``path`` through
    :func:`~repro.engine.diskcache.publish_file` (retried, never torn)."""
    text = json.dumps(payload, sort_keys=True).encode("utf-8")
    publish_file(path, lambda handle: handle.write(text), faults)


def shard_ranges(grid_size: int, shard_size: int) -> List[tuple]:
    """Deterministic ``(start, stop)`` partition of the row-major grid."""
    shard_size = max(1, int(shard_size))
    return [
        (start, min(start + shard_size, grid_size))
        for start in range(0, grid_size, shard_size)
    ]


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}"


def _queue_digest(manifest: dict) -> str:
    """Content digest identifying one queue job (spec + base + settings)."""
    return canonical_digest(
        {
            "schema": manifest["schema"],
            "sweep": manifest["sweep"],
            "base_scenario": manifest["base_scenario"],
            "benchmarks": manifest["benchmarks"],
            "shard_size": manifest["shard_size"],
            "kind_cache": [
                manifest["cache_dir"],
                manifest["use_cache"],
                manifest["cache_version"],
            ],
        }
    )


def load_manifest(workdir: Union[str, Path]) -> dict:
    """Read and validate a queue manifest."""
    path = Path(workdir) / "manifest.json"
    try:
        with open(path) as stream:
            manifest = json.load(stream)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no sweep manifest at {path}; run the sweep without --resume first"
        ) from None
    if manifest.get("schema") != QUEUE_SCHEMA_VERSION:
        raise ValueError(
            f"sweep workdir {workdir} uses queue schema "
            f"{manifest.get('schema')!r}, expected {QUEUE_SCHEMA_VERSION}"
        )
    return manifest


# ------------------------------------------------------------------- workers


class _ShardQueue:
    """One worker's view of the queue: claim, execute, publish."""

    def __init__(self, workdir: Path, manifest: dict, worker_id: str) -> None:
        self.workdir = workdir
        self.worker_id = worker_id
        self.leases = workdir / "leases"
        self.done = workdir / "done"
        self.heartbeats = workdir / "heartbeats"
        self.failed = workdir / "failed"
        self.attempts = workdir / "attempts"
        for directory in (
            self.leases, self.done, self.heartbeats, self.failed, self.attempts
        ):
            directory.mkdir(parents=True, exist_ok=True)
        self.heartbeat_ttl = float(
            manifest.get("heartbeat_ttl", DEFAULT_HEARTBEAT_TTL)
        )
        # Manifests written before backend and verify were recorded there
        # evaluate with the defaults, as their workers did.
        self.runner = SweepRunner(
            SweepSpec.from_dict(manifest["sweep"]),
            Scenario.from_dict(manifest["base_scenario"]),
            jobs=1,
            cache_dir=manifest["cache_dir"],
            use_cache=manifest["use_cache"],
            backend=manifest.get("backend", "auto"),
            verify=manifest.get("verify", "sample"),
        )
        self.assignments = self.runner.spec.assignments()
        self.ranges = shard_ranges(len(self.assignments), manifest["shard_size"])
        #: shards whose done-file this worker already validated.
        self._done_valid: Set[int] = set()

    # ----------------------------------------------------------- lease files

    def done_path(self, shard: int) -> Path:
        return self.done / f"{_shard_name(shard)}.json"

    def lease_path(self, shard: int) -> Path:
        return self.leases / f"{_shard_name(shard)}.lock"

    def failed_path(self, shard: int) -> Path:
        return self.failed / f"{_shard_name(shard)}.json"

    def attempts_path(self, shard: int) -> Path:
        return self.attempts / f"{_shard_name(shard)}.json"

    def heartbeat_path(self, worker: str) -> Path:
        return self.heartbeats / f"{worker}.json"

    def beat(self) -> None:
        """Refresh this worker's heartbeat (best-effort: a worker that
        cannot heartbeat keeps working, it merely becomes reclaimable)."""
        path = self.heartbeat_path(self.worker_id)
        try:
            fault_point("queue.heartbeat.write", path=path)
            if path.exists():
                os.utime(path, None)
            else:
                _atomic_write_json(
                    path,
                    {
                        "worker": self.worker_id,
                        "pid": os.getpid(),
                        "host": socket.gethostname(),
                    },
                )
        except OSError:
            pass

    def clear_heartbeat(self) -> None:
        """Drop this worker's heartbeat on clean exit."""
        try:
            os.unlink(str(self.heartbeat_path(self.worker_id)))
        except OSError:
            pass

    def try_claim(self, shard: int) -> bool:
        """Atomically claim one shard; reclaim provably abandoned leases."""
        for attempt in range(2):
            try:
                fault_point("queue.lease.claim", path=self.lease_path(shard))
                handle = os.open(
                    str(self.lease_path(shard)),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                if attempt == 0 and self._lease_is_stale(shard):
                    try:
                        os.unlink(str(self.lease_path(shard)))
                    except OSError:
                        return False
                    continue  # retry the claim once; another worker may race us
                return False
            except OSError:
                # Transient claim failure (permissions, I/O): skip the
                # shard; a later pass or another worker picks it up.
                return False
            try:
                with os.fdopen(handle, "w") as stream:
                    json.dump(
                        {
                            "worker": self.worker_id,
                            "pid": os.getpid(),
                            "host": socket.gethostname(),
                        },
                        stream,
                    )
            except OSError:
                # A lease we cannot fill would read as corrupt (honored
                # forever until the heartbeat TTL); drop it instead.
                self.release(shard)
                return False
            return True
        return False

    def _lease_is_stale(self, shard: int) -> bool:
        """True when a lease's holder is provably gone.

        Two proofs are accepted: a *local* pid that no longer exists, or a
        holder (any host) whose heartbeat file is older than the TTL.
        Unreadable leases and holders without a heartbeat are honored --
        wrongly stealing a live worker's shard would double-execute it,
        while honoring a truly dead lease merely leaves one shard for
        ``--resume`` or the TTL to expire.
        """
        try:
            with open(self.lease_path(shard)) as stream:
                lease = json.load(stream)
            pid = int(lease["pid"])
            host = lease["host"]
            holder = str(lease.get("worker", ""))
        except (OSError, ValueError, KeyError, TypeError):
            return False  # mid-write or corrupt: treat as live
        if pid == os.getpid() and host == socket.gethostname():
            return False
        if host == socket.gethostname():
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except PermissionError:
                pass  # pid exists but is not ours; fall back to the heartbeat
            else:
                return False  # provably alive locally: never steal
        return self._heartbeat_expired(holder)

    def _heartbeat_expired(self, worker: str) -> bool:
        """True when ``worker``'s heartbeat exists and is older than the TTL."""
        if not worker:
            return False
        try:
            mtime = os.stat(self.heartbeat_path(worker)).st_mtime
        except OSError:
            return False  # no heartbeat: stay conservative, honor the lease
        age = time.time() - mtime  # repro: allow(RPR-D001) -- lease-liveness ages are coordination metadata, never report data
        return age > self.heartbeat_ttl

    def release(self, shard: int) -> None:
        try:
            os.unlink(str(self.lease_path(shard)))
        except OSError:
            pass

    # -------------------------------------------------- poison-shard records

    def attempt_count(self, shard: int) -> int:
        """Failed executions recorded so far for one shard."""
        try:
            with open(self.attempts_path(shard)) as stream:
                return int(json.load(stream).get("attempts", 0))
        except (OSError, ValueError, TypeError, AttributeError):
            return 0

    def record_attempt(self, shard: int, error: BaseException) -> int:
        """Persist one failed execution (caller holds the lease); new total."""
        attempts = self.attempt_count(shard) + 1
        _atomic_write_json(
            self.attempts_path(shard),
            {
                "shard": shard,
                "attempts": attempts,
                "error": _describe_error(error),
                "worker": self.worker_id,
            },
        )
        return attempts

    def mark_failed(self, shard: int, error: BaseException, attempts: int) -> None:
        """Retire a poison shard so the sweep completes without it."""
        start, stop = self.ranges[shard]
        _atomic_write_json(
            self.failed_path(shard),
            {
                "schema": QUEUE_SCHEMA_VERSION,
                "shard": shard,
                "start": start,
                "stop": stop,
                "worker": self.worker_id,
                "attempts": attempts,
                "error": _describe_error(error),
            },
        )

    def settled(self, shard: int) -> bool:
        """True when a shard needs no more work (valid done-file, or failed).

        A done-file that exists but does not parse (real corruption -- the
        publish itself is atomic) is dropped so the shard re-executes.
        """
        if shard in self._done_valid:
            return True
        if self.failed_path(shard).exists():
            return True
        payload = _load_done(self.done_path(shard))
        if payload is None:
            return False
        self._done_valid.add(shard)
        return True

    # ------------------------------------------------------------- execution

    def execute(self, shard: int) -> List[dict]:
        """Evaluate one shard's grid slice and publish its done-file."""
        fault_point("queue.shard.execute")
        start, stop = self.ranges[shard]
        outcomes, _ = self.runner.evaluate(self.assignments[start:stop])
        payload = {
            "schema": QUEUE_SCHEMA_VERSION,
            "shard": shard,
            "start": start,
            "stop": stop,
            "worker": self.worker_id,
            # A done-file stores each cell as a field-name mapping.
            "outcomes": [
                {**outcome, "cells": [cell._asdict() for cell in outcome["cells"]]}
                for outcome in outcomes
            ],
        }
        _atomic_write_json(self.done_path(shard), payload, ("queue.done.publish",))
        return outcomes


def _describe_error(error: BaseException) -> str:
    """One-line, JSON-safe description of a shard failure."""
    return f"{type(error).__name__}: {error}"


def _load_done(path: Path) -> Optional[dict]:
    """A published done-file's payload, or ``None`` (missing or corrupt).

    Done-files are published atomically, so a file that exists but does not
    parse -- or parses to the wrong shape -- is genuine corruption (or an
    injected torn write).  It is unlinked so the shard simply re-executes;
    shard results are re-creatable and the simulation cache makes the redo
    nearly free.
    """
    try:
        with open(path) as stream:
            payload = json.load(stream)
        if not isinstance(payload, dict) or not isinstance(
            payload.get("outcomes"), list
        ):
            raise ValueError("done-file payload shape mismatch")
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        try:
            os.unlink(str(path))
        except OSError:
            pass
        return None
    return payload


def run_worker(
    workdir: Union[str, Path],
    worker_id: Optional[str] = None,
    *,
    max_shards: Optional[int] = None,
    max_attempts: Optional[int] = None,
) -> dict:
    """Drain the queue at ``workdir``: claim shards until none remain.

    Workers need nothing but the workdir path: the manifest names the
    sweep, its cache, backend and verify mode.  Launch any number of
    ``repro sweep --workers``/:func:`run_worker` processes against the same
    directory (including from other hosts sharing the filesystem) and they
    partition the grid among themselves through lease files alone.

    While draining, a background thread refreshes the worker's heartbeat
    file so that, should this process die (any host, any signal), its
    leases become reclaimable once the heartbeat TTL expires.  A shard
    whose execution raises is released and retried; after ``max_attempts``
    recorded failures it is retired as *failed* (poison-shard accounting)
    so the queue always drains.

    Args:
        workdir: queue directory holding ``manifest.json``.
        worker_id: label recorded in leases/done-files (host-pid by default).
        max_shards: stop after executing this many shards (simulates a
            mid-flight kill in tests; ``None`` drains the queue).
        max_attempts: executions a shard gets before it is retired
            (``None``: the manifest's value, or :data:`DEFAULT_MAX_ATTEMPTS`).

    Returns:
        A report dict: ``worker_id``, ``shards_executed``, ``simulations``,
        ``disk_hits``, ``disk_misses``, ``shard_failures``.
    """
    workdir = Path(workdir)
    manifest = load_manifest(workdir)
    if worker_id is None:
        worker_id = f"{socket.gethostname()}-{os.getpid()}"
    if max_attempts is None:
        max_attempts = int(manifest.get("max_attempts", DEFAULT_MAX_ATTEMPTS))
    max_attempts = max(1, int(max_attempts))
    queue = _ShardQueue(workdir, manifest, worker_id)
    report = {
        "worker_id": worker_id,
        "shards_executed": 0,
        "simulations": 0,
        "disk_hits": 0,
        "disk_misses": 0,
        "shard_failures": 0,
    }
    queue.beat()
    stop_beating = threading.Event()
    interval = max(0.05, queue.heartbeat_ttl / 5.0)
    beater = threading.Thread(
        target=_heartbeat_loop,
        args=(queue, stop_beating, interval),
        name=f"repro-heartbeat-{worker_id}",
        daemon=True,
    )
    beater.start()
    try:
        while True:
            claimed_this_pass = 0
            for shard in range(len(queue.ranges)):
                if max_shards is not None and report["shards_executed"] >= max_shards:
                    return report
                if queue.settled(shard):
                    continue
                if not queue.try_claim(shard):
                    continue  # done or leased by a live worker
                claimed_this_pass += 1
                try:
                    # Re-check under the lease: another worker may have
                    # settled the shard between our check and the claim.
                    if queue.settled(shard):
                        continue
                    try:
                        outcomes = queue.execute(shard)
                    except Exception as error:  # repro: allow(RPR-H001) -- a poison shard must not kill the worker; the failure is recorded, bounded by max_attempts, and surfaced in the partial-results report
                        report["shard_failures"] += 1
                        attempts = queue.record_attempt(shard, error)
                        if attempts >= max_attempts:
                            queue.mark_failed(shard, error, attempts)
                        continue
                    report["shards_executed"] += 1
                    for outcome in outcomes:
                        report["simulations"] += outcome["simulations"]
                        report["disk_hits"] += outcome["disk_hits"]
                        report["disk_misses"] += outcome["disk_misses"]
                finally:
                    queue.release(shard)
            pending = [
                shard
                for shard in range(len(queue.ranges))
                if not queue.settled(shard)
            ]
            if not pending:
                return report
            if claimed_this_pass == 0:
                # Everything left is leased by live workers; let them finish.
                # The merger re-checks completeness (and reclaims stale leases).
                return report
            time.sleep(0)  # yield between passes when sharing a host
    finally:
        stop_beating.set()
        beater.join(timeout=1.0)
        queue.clear_heartbeat()


def _heartbeat_loop(
    queue: _ShardQueue, stop: threading.Event, interval: float
) -> None:
    """Refresh the worker heartbeat until told to stop."""
    while not stop.wait(interval):
        queue.beat()


# -------------------------------------------------------------------- merger


def queue_workdir(
    spec: SweepSpec,
    base: Scenario,
    benchmarks: Optional[List[str]],
    *,
    shard_size: int,
    cache_dir: Optional[str],
    use_cache: bool,
) -> Path:
    """The default content-addressed workdir of one queue job.

    Same spec + base + settings → same directory, which is what makes a bare
    ``repro sweep --resume`` (no explicit workdir) find its predecessor.
    """
    manifest = _build_manifest(
        spec,
        base,
        benchmarks,
        shard_size=shard_size,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
    root = Path(cache_dir) if cache_dir is not None else Path(default_cache_dir())
    return root / "sweeps" / manifest["digest"][:16]


def _build_manifest(
    spec: SweepSpec,
    base: Scenario,
    benchmarks: Optional[List[str]],
    *,
    shard_size: int,
    cache_dir: Optional[str],
    use_cache: bool,
    backend: str = "auto",
    verify: str = "sample",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    heartbeat_ttl: float = DEFAULT_HEARTBEAT_TTL,
) -> dict:
    manifest = {
        "schema": QUEUE_SCHEMA_VERSION,
        "sweep": spec.to_dict(),
        "base_scenario": base.to_dict(),
        "benchmarks": benchmarks,
        "shard_size": max(1, int(shard_size)),
        "grid_size": spec.grid_size(),
        "cache_dir": cache_dir,
        "use_cache": bool(use_cache),
        "cache_version": CACHE_SCHEMA_VERSION,
        # Evaluation and robustness knobs: deliberately excluded from the
        # digest (every backend computes the same cells), so the same sweep
        # resumes into the same workdir whatever they are set to.
        "backend": backend,
        "verify": verify,
        "max_attempts": max(1, int(max_attempts)),
        "heartbeat_ttl": float(heartbeat_ttl),
    }
    manifest["num_shards"] = len(shard_ranges(manifest["grid_size"], shard_size))
    manifest["digest"] = _queue_digest(manifest)
    return manifest


def run_queued_sweep(
    spec: Union[SweepSpec, str],
    base: Optional[Scenario] = None,
    *,
    workers: int = 1,
    resume: bool = False,
    shard_size: Optional[int] = None,
    workdir: Optional[Union[str, Path]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    use_cache: bool = True,
    backend: str = "auto",
    verify: str = "sample",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> SweepResult:
    """Execute a sweep through the sharded work queue and merge the result.

    Creates (or, with ``resume=True``, re-opens) the workdir, drives
    ``workers`` worker processes against it (running them one after another
    in this process where the platform lacks process pools), runs one final
    in-process drain to pick up shards orphaned by killed workers, then
    merges every done-file into a :class:`~repro.sweep.runner.SweepResult`.

    A shard that keeps raising is retired after ``max_attempts`` recorded
    failures and reported in the result's ``failed_shards`` (an explicit
    partial-results section) instead of hanging the sweep; ``resume=True``
    clears previous failed/attempt records so cleared faults get a fresh
    budget.

    The result's statistics count **this run only**: a resumed sweep whose
    shards were all published before reports zero executed simulations.
    """
    start_time = time.perf_counter()
    shard_size = DEFAULT_SHARD_SIZE if shard_size is None else max(1, int(shard_size))
    workers = max(1, int(workers))
    # SweepRunner owns the option checks, spec loading and benchmark
    # canonicalization; the workers rebuild it from the manifest.
    runner = SweepRunner(
        spec,
        base,
        jobs=1,
        cache_dir=cache_dir,
        use_cache=use_cache,
        backend=backend,
        verify=verify,
    )
    spec, base = runner.spec, runner.base
    manifest = _build_manifest(
        spec,
        base,
        runner.benchmarks,
        shard_size=shard_size,
        cache_dir=runner.cache_dir,
        use_cache=runner.use_cache,
        backend=runner.backend,
        verify=runner.verify,
        max_attempts=max_attempts,
    )
    if workdir is None:
        workdir = queue_workdir(
            spec,
            base,
            runner.benchmarks,
            shard_size=shard_size,
            cache_dir=runner.cache_dir,
            use_cache=runner.use_cache,
        )
    workdir = Path(workdir)
    manifest_path = workdir / "manifest.json"
    if manifest_path.exists():
        existing = load_manifest(workdir)
        if existing["digest"] != manifest["digest"]:
            if resume:
                raise ValueError(
                    f"cannot resume: workdir {workdir} belongs to a different "
                    f"sweep (digest {existing['digest'][:16]} != "
                    f"{manifest['digest'][:16]})"
                )
            _clear_queue_state(workdir)
        elif not resume:
            _clear_queue_state(workdir)
        else:
            # Resume: keep done-files, but give previously failed shards a
            # fresh attempt budget -- the operator presumably cleared the
            # fault before retrying.
            _clear_queue_state(workdir, only=("failed", "attempts"))
    # (Re)publish the manifest: same digest, but the knobs outside it
    # (backend, verify, max_attempts, heartbeat_ttl) track the latest
    # invocation.
    _atomic_write_json(manifest_path, manifest)
    (workdir / "leases").mkdir(parents=True, exist_ok=True)
    (workdir / "done").mkdir(parents=True, exist_ok=True)

    reports, mode = map_in_processes(
        partial(run_worker, workdir),
        [f"worker-{index}" for index in range(workers)],
        workers,
    )
    # Final in-process drain: reclaims stale leases of killed workers and
    # executes anything still missing, so the merge below cannot starve.
    reports.append(run_worker(workdir, "merger"))
    result = _merge(workdir, runner, manifest, reports, f"queue-{mode}", workers)
    result.elapsed_seconds = time.perf_counter() - start_time
    return result


def _clear_queue_state(
    workdir: Path,
    only: Optional[tuple] = None,
) -> None:
    """Drop queue coordination files (fresh run), or just the ``only`` dirs."""
    for child in ("leases", "done", "heartbeats", "failed", "attempts"):
        if only is not None and child not in only:
            continue
        directory = workdir / child
        if not directory.is_dir():
            continue
        for entry in directory.iterdir():
            try:
                entry.unlink()
            except OSError:
                pass


def _merge(
    workdir: Path,
    runner: SweepRunner,
    manifest: dict,
    reports: List[dict],
    executor_used: str,
    jobs: int,
) -> SweepResult:
    """Assemble every done-file, in grid order, into a :class:`SweepResult`.

    The statistics sum this run's worker ``reports``, not the outcomes the
    done-files store.  Shards retired as *failed* (poison shards)
    contribute no points; they are collected into the result's
    ``failed_shards`` so the report states exactly which grid slices are
    missing and why.  A shard that is neither done nor failed still raises
    -- that sweep genuinely did not finish and ``--resume`` will.
    """
    assignments = runner.spec.assignments()
    cells: List[Optional[List[SweepCell]]] = [None] * len(assignments)
    failed: List[dict] = []
    for shard, (start, stop) in enumerate(shard_ranges(len(assignments), manifest["shard_size"])):
        payload = _load_done(workdir / "done" / f"{_shard_name(shard)}.json")
        if payload is None:
            failure = _load_failed(workdir / "failed" / f"{_shard_name(shard)}.json")
            if failure is not None:
                failed.append(failure)
                continue
            raise RuntimeError(
                f"sweep incomplete: shard {shard} ({start}:{stop}) has no "
                f"published result in {workdir}; re-run with --resume"
            )
        for offset, outcome in enumerate(payload["outcomes"]):
            cells[start + offset] = [SweepCell(**cell) for cell in outcome["cells"]]
    return runner.assemble(
        assignments, cells, reports, executor_used=executor_used, jobs=jobs, failed_shards=failed
    )


def _load_failed(path: Path) -> Optional[dict]:
    """A failed-shard marker's payload, or ``None`` (missing/unreadable)."""
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "shard" not in payload:
        return None
    return payload
