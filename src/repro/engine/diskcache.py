"""Persistent, scenario-sharded on-disk cache for simulation results.

The in-memory caches (:class:`~repro.engine.context.SimulationContext`,
:class:`~repro.core.accelerator.PIMCapsNet`) only live for one process; a
design-space sweep re-running the same ``(scenario, benchmark, design)``
points across invocations -- or fanning points out over a process pool --
pays for every simulation again.  :class:`SimulationCache` memoizes those
results on disk instead:

* **Scenario-sharded, versioned layout.**  All entries of one scenario live
  in a single shard file, ``<dir>/v<schema>/<aa>/<scenario-hash>.json``
  (``~/.cache/repro`` by default; override with ``directory=`` /
  ``--cache-dir`` / ``$REPRO_CACHE_DIR``), named by the scenario's hardware
  hash (:meth:`~repro.api.scenario.Scenario.hardware_hash`), so scenarios
  differing only in *name* share entries.  A whole grid costs one small
  file per point instead of one per simulation.  Bumping
  :data:`CACHE_SCHEMA_VERSION` orphans old trees instead of misreading them
  (every entry is re-creatable, so stale trees can simply be deleted).
* **Entries keyed by their fields.**  A shard's ``entries`` are rows
  ``[workload_hash, kind, design_key, pe_frequency_mhz, force_dimension,
  result]``, loaded into a dict keyed by the tuple of the first five: a
  lookup is one tuple build and one dict probe, with no per-entry digest,
  and each key is stored once.  Shards that are not JSON, or whose rows are
  malformed, are quarantined.
* **Buffered writes, atomic publish.**  ``put`` buffers in memory;
  :meth:`SimulationCache.flush` merges each dirty shard with whatever
  reached disk meanwhile (buffered entries win on conflict) and publishes it
  through a temporary file and an atomic :func:`os.replace`.  Concurrent
  workers therefore never observe half-written shards, and writers sharing a
  shard keep each other's entries.  The engine flushes automatically at the
  end of a runner/sweep-point execution.
* **Exact round-trips.**  Results are stored with full float precision
  (``repr`` round-trip through JSON is exact for IEEE doubles), so a report
  rendered from a warm cache is byte-identical to a cold run's.

Only the two engine result types (:class:`~repro.core.accelerator.
RoutingComparison`, :class:`~repro.core.accelerator.EndToEndComparison`) are
persisted; custom strategy result types are silently skipped (they still hit
the in-memory caches).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile
import threading
import zipfile
from contextlib import contextmanager
from pathlib import Path

try:  # POSIX-only; shard flushes degrade to best-effort elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.accelerator import EndToEndComparison, RoutingComparison
from repro.core.pipeline import PipelineTiming
from repro.engine.strategies import DesignLike, design_key, resolve_design
from repro.faults import point as fault_point
from repro.faults.retry import is_fatal_io, with_retries
from repro.workloads.benchmarks import BenchmarkConfig
from repro.workloads.parallelism import Dimension

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario
    from repro.engine.context import CacheStats

#: Version of the on-disk shard format (2: field-keyed rows).  Bump whenever
#: the rows or the result encoding change shape; old shards are then ignored.
CACHE_SCHEMA_VERSION = 2

#: Version of the trained-model artifact format (:class:`TrainedModelCache`).
#: Bump whenever the key payload, the training pipeline's arithmetic, or the
#: artifact encoding changes; old model trees are then never consulted.
MODEL_CACHE_SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: One-shot warning registry: each degradation condition warns exactly once
#: per process (a sweep hitting ENOSPC must not print one line per shard).
_WARN_LOCK = threading.Lock()
_WARNED: set = set()


def _warn_once(key: str, message: str) -> None:
    """Print ``message`` to stderr the first time ``key`` degrades."""
    with _WARN_LOCK:
        if key in _WARNED:
            return
        _WARNED.add(key)
    print(f"repro cache warning: {message}", file=sys.stderr)


def _reset_warnings() -> None:
    """Forget which degradations already warned (test isolation hook)."""
    with _WARN_LOCK:
        _WARNED.clear()


def _quarantine(path: Path, root: Path) -> Optional[Path]:
    """Move a corrupt artifact to ``<root>/corrupt/`` so it is never re-read.

    Returns the quarantine destination, or ``None`` when the move failed
    (the artifact is then unlinked as a fallback -- every cache entry is
    re-creatable, so dropping a corrupt one is always safe).
    """
    target = root / "corrupt" / path.name
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with_retries(lambda: os.replace(path, target))
        return target
    except OSError:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None


def default_cache_dir() -> Path:
    """The default persistent cache root (``$REPRO_CACHE_DIR`` wins).

    Falls back to ``$XDG_CACHE_HOME/repro`` and finally ``~/.cache/repro``.
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


def canonical_digest(payload: object) -> str:
    """SHA-256 hex digest of a JSON-serializable payload (sorted keys)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=256)
def benchmark_hash(config: BenchmarkConfig) -> str:
    """Content hash of one resolved benchmark/workload configuration.

    Memoized (configs are frozen and hashable) so per-lookup keying stays
    cheap even for sweeps with thousands of cache accesses.
    """
    return canonical_digest(dataclasses.asdict(config))


def _parse_rows(rows: list) -> Dict[tuple, dict]:
    """Shard rows as ``{entry key: result payload}``; raises on a malformed row."""
    entries: Dict[tuple, dict] = {}
    for row in rows:
        # Unpacking rejects non-6-sequences; the type checks reject the rest.
        workload, kind, design, frequency, dimension, payload = row
        if not (
            isinstance(workload, str)
            and isinstance(kind, str)
            and isinstance(design, str)
            and (frequency is None or type(frequency) in (int, float))
            and (dimension is None or isinstance(dimension, str))
            and isinstance(payload, dict)
        ):
            raise ValueError("malformed cache shard row")
        entries[(workload, kind, design, frequency, dimension)] = payload
    return entries


class SimulationCache:
    """On-disk memo of ``(scenario, benchmark, design)`` simulation results.

    Args:
        directory: cache root (:func:`default_cache_dir` when ``None``);
            shards live in a version subdirectory below it.
        version: shard schema version (:data:`CACHE_SCHEMA_VERSION`; tests
            override it to exercise invalidation).

    Attributes:
        stats: hit/miss counters of this cache instance
            (:class:`~repro.engine.context.CacheStats`).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        version: int = CACHE_SCHEMA_VERSION,
    ) -> None:
        # Imported here: context imports this module at load time.
        from repro.engine.context import CacheStats

        self.root = Path(directory) if directory is not None else default_cache_dir()
        self.version = int(version)
        self.directory = self.root / f"v{self.version}"
        self.stats: "CacheStats" = CacheStats()
        #: True once a fatal disk error (ENOSPC/EACCES/...) degraded this
        #: cache to read-only: gets still work, flushes become no-ops.
        self.read_only = False
        self._lock = threading.RLock()
        #: scenario hash -> {entry key: result payload}
        self._shards: Dict[str, Dict[tuple, dict]] = {}
        self._dirty: Dict[str, bool] = {}

    # ----------------------------------------------------------------- keying

    @staticmethod
    def _key(
        scenario: Union["Scenario", str],
        benchmark: BenchmarkConfig,
        kind: str,
        design: DesignLike,
        pe_frequency_mhz: Optional[float] = None,
        force_dimension: Optional[Dimension] = None,
    ) -> Tuple[str, tuple]:
        """The shard (scenario hardware hash) and entry key of one simulation.

        ``scenario`` may be a :class:`~repro.api.scenario.Scenario` or its
        hardware hash string (bulk callers key thousands of grid points
        without a scenario object per point).  Both hashes are memoized, so
        keying an entry computes no digest.
        """
        return (
            scenario if isinstance(scenario, str) else scenario.hardware_hash(),
            (
                benchmark_hash(benchmark),
                str(kind),
                design_key(design),
                pe_frequency_mhz,
                force_dimension.value if force_dimension is not None else None,
            ),
        )

    def _shard_path(self, scenario_hash: str) -> Path:
        return self.directory / scenario_hash[:2] / f"{scenario_hash}.json"

    @contextmanager
    def _shard_write_lock(self, path: Path):
        """Exclusive advisory lock serializing read-merge-publish on a shard.

        Without it two writers sharing a shard (process-parallel sweep
        points, e.g. over a ``benchmarks`` axis that keeps the hardware hash
        constant, or serve's handler threads) can interleave ``_read_disk``
        and ``os.replace`` so that the slower writer publishes a merge that
        never saw the faster writer's entries -- a classic lost update,
        observed as a warm sweep re-running simulations.  On platforms
        without :mod:`fcntl` the flush stays best-effort (the cache remains
        correct, merely lossy under concurrency).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = path.with_suffix(".lock")
        with open(lock_path, "a+", encoding="utf-8") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _read_disk(self, scenario_hash: str) -> Dict[tuple, dict]:
        """One scenario's entries as currently on disk (fresh read).

        Missing or unreadable shards count as empty.  A shard that exists
        but does not parse -- invalid JSON (a torn write from a non-atomic
        producer, or real disk corruption) or malformed rows -- is
        quarantined to ``<root>/corrupt/`` and counted, so it is warned
        about once instead of silently re-missed on every lookup forever.
        """
        path = self._shard_path(scenario_hash)
        try:
            fault_point("diskcache.shard.read", path=path)
            text = path.read_text(encoding="utf-8")
        except OSError:
            return {}
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("shard payload is not a JSON object")
            rows = data.get("entries")
            if (
                data.get("schema") != self.version
                or data.get("scenario") != scenario_hash
                or not isinstance(rows, list)
            ):
                # Valid JSON of another shape or version (a v1 entry map, say)
                # is a foreign file, not corruption: the next flush rewrites it.
                return {}
            return _parse_rows(rows)
        except (ValueError, TypeError):
            self.stats.corrupt_artifacts += 1
            quarantined = _quarantine(path, self.root)
            where = f"quarantined to {quarantined}" if quarantined else "dropped"
            _warn_once(
                f"corrupt-shard:{path}",
                f"corrupt cache shard {path} ({where}); "
                f"its entries will be recomputed",
            )
            return {}

    def _shard(self, scenario_hash: str) -> Dict[tuple, dict]:
        """The (memoized) entry map of one scenario, loaded from disk once."""
        with self._lock:
            shard = self._shards.get(scenario_hash)
            if shard is None:
                shard = self._read_disk(scenario_hash)
                self._shards[scenario_hash] = shard
            return shard

    # ---------------------------------------------------------------- get/put

    def _decode(self, payload: Optional[dict]) -> Optional[object]:
        """Decode one looked-up payload; missing or undecodable ones miss."""
        if payload is not None:
            try:
                result = decode_result(payload)
            except (ValueError, KeyError, TypeError):
                pass
            else:
                self.stats.hits += 1
                return result
        self.stats.misses += 1
        return None

    def get(
        self,
        scenario: "Scenario",
        benchmark: BenchmarkConfig,
        kind: str,
        design: DesignLike,
        pe_frequency_mhz: Optional[float] = None,
        force_dimension: Optional[Dimension] = None,
    ) -> Optional[object]:
        """The cached result for one simulation, or ``None`` on a miss.

        Unreadable, corrupt or schema-mismatched entries count as misses.
        """
        scenario_hash, key = self._key(
            scenario, benchmark, kind, design, pe_frequency_mhz, force_dimension
        )
        return self._decode(self._shard(scenario_hash).get(key))

    def _store(self, scenario_hash: str, key: tuple, result: object) -> bool:
        """Buffer one result under its key; ``False`` if its type is uncacheable."""
        payload = encode_result(result)
        if payload is None:
            return False
        with self._lock:
            self._shard(scenario_hash)[key] = payload
            self._dirty[scenario_hash] = True
        return True

    def put(
        self,
        scenario: "Scenario",
        benchmark: BenchmarkConfig,
        kind: str,
        design: DesignLike,
        result: object,
        pe_frequency_mhz: Optional[float] = None,
        force_dimension: Optional[Dimension] = None,
    ) -> bool:
        """Buffer one simulation result; ``False`` if its type is uncacheable.

        Buffered entries are immediately visible to :meth:`get` on this
        instance and reach disk on the next :meth:`flush`.
        """
        scenario_hash, key = self._key(
            scenario, benchmark, kind, design, pe_frequency_mhz, force_dimension
        )
        return self._store(scenario_hash, key, result)

    # -------------------------------------------------------------- bulk I/O

    def get_many(self, requests: Iterable[Sequence[object]]) -> List[Optional[object]]:
        """Bulk :meth:`get`: one result (or ``None``) per request, in order.

        Each request is a ``(scenario, benchmark, kind, design)`` tuple,
        optionally extended with ``pe_frequency_mhz`` and ``force_dimension``;
        ``scenario`` may be a hardware-hash string.  Each shard is loaded once
        per cache instance; hit/miss accounting is identical to issuing the
        gets one by one.
        """
        results = []
        for request in requests:
            scenario_hash, key = self._key(*request)
            results.append(self._decode(self._shard(scenario_hash).get(key)))
        return results

    def put_many(self, entries: Iterable[Sequence[object]]) -> int:
        """Bulk :meth:`put` under one lock acquisition; returns entries stored.

        Each entry is a ``(scenario, benchmark, kind, design, result)`` tuple
        (optionally extended like :meth:`get_many` requests); ``scenario`` may
        be a hardware-hash string.  Uncacheable result types are skipped, like
        :meth:`put` returning ``False``.
        """
        with self._lock:
            return sum(
                self._store(*self._key(*entry[:4], *entry[5:]), entry[4])
                for entry in entries
            )

    def flush(self) -> int:
        """Publish every dirty shard atomically; returns shards written.

        Transient write errors are retried with deterministic backoff; a
        fatal disk error (full, read-only, permission denied) degrades the
        cache to read-only with a one-shot warning and a ``write_errors``
        count instead of aborting the run -- entries stay buffered in
        memory, so in-process gets keep working.
        """
        written = 0
        with self._lock:
            if self.read_only:
                return 0
            dirty = [hash_ for hash_, flag in self._dirty.items() if flag]
            for scenario_hash in dirty:
                path = self._shard_path(scenario_hash)

                def _publish() -> None:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    # The read-merge-publish below must be one critical
                    # section: without the shard lock, two writers sharing a
                    # shard can both read, then both publish, and the second
                    # replace silently drops the first writer's entries.
                    with self._shard_write_lock(path):
                        # Merge what reached disk since we loaded (another
                        # worker may share this shard -- e.g. sweep axes over
                        # selections keep the hardware hash constant); our
                        # buffered entries win on conflict, and nothing
                        # another writer published is lost.
                        on_disk = self._read_disk(scenario_hash)
                        shard = self._shards[scenario_hash]
                        if on_disk:
                            shard = self._shards[scenario_hash] = {**on_disk, **shard}
                        data = {
                            "schema": self.version,
                            "scenario": scenario_hash,
                            "entries": [[*key, result] for key, result in shard.items()],
                        }
                        # Atomic publish: readers (which take no lock) never
                        # see partial files.
                        fd, tmp = tempfile.mkstemp(
                            prefix=path.stem, suffix=".tmp", dir=str(path.parent)
                        )
                        try:
                            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                                handle.write(json.dumps(data))
                            fault_point("diskcache.flush.write", path=tmp)
                            fault_point("diskcache.flush.replace")
                            os.replace(tmp, path)
                        except BaseException:
                            try:
                                os.unlink(tmp)
                            except OSError:
                                pass
                            raise

                try:
                    with_retries(_publish)
                except OSError as error:
                    self.stats.write_errors += 1
                    if is_fatal_io(error):
                        self._degrade(error)
                        break
                    continue
                self._dirty[scenario_hash] = False
                written += 1
        return written

    def _degrade(self, error: OSError) -> None:
        """Flip to read-only after a fatal disk error (one-shot warning)."""
        self.read_only = True
        _warn_once(
            f"read-only:{self.directory}",
            f"simulation cache {self.directory} degraded to read-only after "
            f"{type(error).__name__}: {error}; results stay in memory for "
            f"this run but will not persist",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulationCache({str(self.directory)!r})"


# ------------------------------------------------------------- result codecs


def encode_result(result: object) -> Optional[dict]:
    """Lower an engine result to its JSON entry payload (``None`` = uncacheable)."""
    if type(result) is RoutingComparison:
        return {
            "type": "routing",
            "design": design_key(result.design),
            "benchmark": result.benchmark,
            "time_seconds": result.time_seconds,
            "energy_joules": result.energy_joules,
            "time_components": dict(result.time_components),
            "energy_components": dict(result.energy_components),
            "dimension": result.dimension.value if result.dimension is not None else None,
        }
    if type(result) is EndToEndComparison:
        return {
            "type": "end_to_end",
            "design": design_key(result.design),
            "benchmark": result.benchmark,
            "timing": {
                "host_stage_time": result.timing.host_stage_time,
                "routing_stage_time": result.timing.routing_stage_time,
                "num_batches": result.timing.num_batches,
                "pipelined": result.timing.pipelined,
            },
            "energy_joules": result.energy_joules,
            "host_stage_seconds": result.host_stage_seconds,
            "routing_stage_seconds": result.routing_stage_seconds,
        }
    return None


def decode_result(payload: dict) -> object:
    """Rebuild the typed engine result from its JSON entry payload."""
    kind = payload["type"]
    if kind == "routing":
        dimension = payload["dimension"]
        return RoutingComparison(
            design=resolve_design(payload["design"]),
            benchmark=payload["benchmark"],
            time_seconds=float(payload["time_seconds"]),
            energy_joules=float(payload["energy_joules"]),
            time_components={
                str(key): float(value)
                for key, value in payload["time_components"].items()
            },
            energy_components={
                str(key): float(value)
                for key, value in payload["energy_components"].items()
            },
            dimension=Dimension(dimension) if dimension is not None else None,
        )
    if kind == "end_to_end":
        timing = payload["timing"]
        return EndToEndComparison(
            design=resolve_design(payload["design"]),
            benchmark=payload["benchmark"],
            timing=PipelineTiming(
                host_stage_time=float(timing["host_stage_time"]),
                routing_stage_time=float(timing["routing_stage_time"]),
                num_batches=int(timing["num_batches"]),
                pipelined=bool(timing["pipelined"]),
            ),
            energy_joules=float(payload["energy_joules"]),
            host_stage_seconds=float(payload["host_stage_seconds"]),
            routing_stage_seconds=float(payload["routing_stage_seconds"]),
        )
    raise ValueError(f"unknown cache entry type {kind!r}")


# ---------------------------------------------------------- trained models


@dataclasses.dataclass
class TrainedModelArtifact:
    """One cached Table-5 training run.

    Attributes:
        state: the trained network's parameters
            (:meth:`~repro.capsnet.model.CapsNet.state_dict` layout).
        accuracies: per-arithmetic-context test accuracies (e.g. ``origin`` /
            ``approx`` / ``recovered``), stored with exact float round-trips
            so reports rendered from a warm cache stay byte-identical.
    """

    state: Dict[str, "np.ndarray"]
    accuracies: Dict[str, float]


class TrainedModelCache:
    """Persistent, content-addressed cache of trained CapsNet models.

    The second artifact kind of the on-disk cache: where
    :class:`SimulationCache` memoizes analytic simulation results,
    this memoizes the *expensive* part of a reproduction -- the functional
    CapsNet training behind Table 5 (~99.9% of a cold ``repro reproduce``).

    * **Content-addressed keys.**  The caller provides a canonical JSON key
      payload covering everything that determines the trained weights and
      the measured accuracies: the dataset spec's content hash and split
      sizes, the :class:`~repro.capsnet.model.CapsNetConfig`, the trainer
      hyper-parameters (optimizer, learning rate, epochs, batch size,
      seed), and a schema describing the arithmetic contexts evaluated.
      The cache prepends its own schema version; any change misses.
    * **One ``.npz`` per model**, under ``<root>/models-v<schema>/<aa>/``,
      holding the full ``state_dict`` plus JSON metadata (the key, for
      collision detection, and the per-context accuracies).  Artifacts are
      published atomically (temp file + :func:`os.replace`), and corrupt or
      mismatched files count as misses -- the caller simply retrains and
      rewrites them.

    Args:
        directory: cache root (:func:`default_cache_dir` when ``None``);
            model artifacts live in a ``models-v<schema>`` subdirectory.
        version: artifact schema version (tests override to exercise
            invalidation).

    Attributes:
        stats: hit/miss counters (:class:`~repro.engine.context.CacheStats`).
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        version: int = MODEL_CACHE_SCHEMA_VERSION,
    ) -> None:
        from repro.engine.context import CacheStats

        self.root = Path(directory) if directory is not None else default_cache_dir()
        self.version = int(version)
        self.directory = self.root / f"models-v{self.version}"
        self.stats: "CacheStats" = CacheStats()
        #: True once a fatal disk error degraded this cache to read-only.
        self.read_only = False
        self._lock = threading.RLock()

    @staticmethod
    def _normalize(key: dict) -> dict:
        # JSON round-trip so callers may use tuples etc.; the stored key (and
        # the mismatch check in get) always sees the canonical JSON shape.
        return json.loads(json.dumps(key, sort_keys=True))

    def _digest(self, key: dict) -> str:
        return canonical_digest({"schema": self.version, "key": key})

    def _path(self, digest: str) -> Path:
        return self.directory / digest[:2] / f"{digest}.npz"

    def get(self, key: dict) -> Optional[TrainedModelArtifact]:
        """The cached artifact for one training key, or ``None`` on a miss.

        Missing, unreadable, corrupt, truncated or key-mismatched artifacts
        all count as misses (the caller falls back to training).
        """
        import numpy as np

        key = self._normalize(key)
        digest = self._digest(key)
        path = self._path(digest)
        try:
            fault_point("modelcache.read", path=path)
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["__meta__"][()]))
                if meta.get("schema") != self.version or meta.get("key") != key:
                    raise ValueError("cache key mismatch")
                accuracies = {
                    str(label): float(value)
                    for label, value in meta["accuracies"].items()
                }
                state = {
                    name[len("param/"):]: data[name]
                    for name in data.files
                    if name.startswith("param/")
                }
        except OSError:
            # Missing or unreadable: a plain miss (the caller retrains).
            self.stats.misses += 1
            return None
        except (ValueError, KeyError, TypeError, zipfile.BadZipFile):
            # The file exists but its content is torn/corrupt/mismatched:
            # quarantine it so the broken artifact is never consulted again.
            self.stats.misses += 1
            self.stats.corrupt_artifacts += 1
            quarantined = _quarantine(path, self.root)
            where = f"quarantined to {quarantined}" if quarantined else "dropped"
            _warn_once(
                f"corrupt-model:{path}",
                f"corrupt trained-model artifact {path} ({where}); "
                f"the model will be retrained",
            )
            return None
        self.stats.hits += 1
        return TrainedModelArtifact(state=state, accuracies=accuracies)

    def put(
        self,
        key: dict,
        state: Dict[str, "np.ndarray"],
        accuracies: Dict[str, float],
    ) -> bool:
        """Persist one trained model atomically; ``False`` if the disk refuses.

        Transient write errors are retried with deterministic backoff; a
        fatal disk error (full, read-only, permission denied) degrades the
        cache to read-only with a one-shot warning and a ``write_errors``
        count, after which puts are no-ops.
        """
        import numpy as np

        key = self._normalize(key)
        digest = self._digest(key)
        path = self._path(digest)
        meta = {
            "schema": self.version,
            "key": key,
            "accuracies": {str(label): float(value) for label, value in accuracies.items()},
        }
        arrays = {f"param/{name}": value for name, value in state.items()}
        arrays["__meta__"] = np.array(json.dumps(meta, sort_keys=True))
        with self._lock:
            if self.read_only:
                return False

            def _publish() -> None:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    prefix=path.stem, suffix=".npz.tmp", dir=str(path.parent)
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        np.savez(handle, **arrays)
                    fault_point("modelcache.write", path=tmp)
                    fault_point("modelcache.replace")
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise

            try:
                with_retries(_publish)
            except OSError as error:
                self.stats.write_errors += 1
                if is_fatal_io(error):
                    self.read_only = True
                    _warn_once(
                        f"read-only:{self.directory}",
                        f"trained-model cache {self.directory} degraded to "
                        f"read-only after {type(error).__name__}: {error}; "
                        f"models will be retrained instead of persisted",
                    )
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrainedModelCache({str(self.directory)!r})"
