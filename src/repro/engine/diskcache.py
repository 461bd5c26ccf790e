"""Persistent, plane-sharded on-disk cache for simulation results.

The in-memory caches (:class:`~repro.engine.context.SimulationContext`,
:class:`~repro.core.accelerator.PIMCapsNet`) only live for one process; a
design-space sweep re-running the same ``(scenario, benchmark, design)``
points across invocations -- or fanning points out over a process pool --
pays for every simulation again.  :class:`SimulationCache` memoizes those
results on disk instead:

* **Plane-sharded, versioned layout.**  A *plane* is a set of scenarios that
  differ at most in ``hmc.pe_frequency_mhz`` -- the paper's Fig. 18 is one.
  All entries of a plane live in a single shard file,
  ``<dir>/v<schema>/<aa>/<plane-hash>.json`` (``~/.cache/repro`` by default;
  override with ``directory=`` / ``--cache-dir`` / ``$REPRO_CACHE_DIR``),
  named by :meth:`~repro.api.scenario.Scenario.plane_hash`, so scenarios
  differing only in *name* share entries and a frequency sweep costs one
  file per plane instead of one per point.  Bumping
  :data:`CACHE_SCHEMA_VERSION` orphans old trees instead of misreading them
  (every entry is re-creatable, so stale trees can simply be deleted).
* **Blocks of float64 columns.**  A shard holds one :class:`Block` per
  ``(workload, kind, design, force_dimension)``.  Its rows are keyed by the
  effective PE frequency -- Fig. 18's override when given, else the
  scenario's own -- and share one result shape (type, design, benchmark,
  component names, batch structure).  A row's frequency, distribution
  dimension and float fields are little-endian float64 values, and a
  block's rows pack into one base64 string, so a block encodes and decodes
  in one call with exact bits.  A vectorized sweep reads and writes whole
  blocks as arrays; a scalar lookup decodes one row.  Shards that are not
  JSON, or whose blocks are malformed, are quarantined.
* **Buffered writes, atomic publish.**  ``put`` buffers in memory;
  :meth:`SimulationCache.flush` merges each dirty shard with whatever
  reached disk meanwhile, block by block (buffered rows win on conflict),
  and publishes it through :func:`publish_file`: a temporary file and an
  atomic :func:`os.replace`, retried on transient errors.  Concurrent
  workers therefore never observe half-written shards, and writers sharing
  a shard keep each other's rows.  The engine flushes automatically at the
  end of a runner/sweep-point execution.

:func:`publish_file` is the one file publish of the package: the
trained-model cache and the sweep work queue (:mod:`repro.sweep.queue`)
write every file through it too.

Only the two engine result types (:class:`~repro.core.accelerator.
RoutingComparison`, :class:`~repro.core.accelerator.EndToEndComparison`) are
persisted; custom strategy result types are silently skipped (they still hit
the in-memory caches).
"""

from __future__ import annotations

import base64
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
from typing import (
    TYPE_CHECKING, BinaryIO, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

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

#: Version of the on-disk shard format (3: one shard per frequency plane,
#: float64 column blocks).  Bump whenever the blocks or the result encoding
#: change shape; old shards are then ignored.
CACHE_SCHEMA_VERSION = 3

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


def publish_file(
    path: Path, write: Callable[[BinaryIO], object], faults: Sequence[str] = ()
) -> None:
    """Publish a file at ``path`` so readers see the old file or the new one,
    never a torn one.

    Each attempt, under :func:`~repro.faults.retry.with_retries`, creates
    the parent directory, writes a fresh temporary file beside ``path``
    through ``write(handle)`` (a binary file), fires the fault points
    ``faults`` in order -- the first with ``path=`` the temporary file --
    and :func:`os.replace`-s it over ``path``.  A failed attempt unlinks its
    temporary file, so no retry can publish a torn predecessor; the last
    attempt's error propagates.
    """

    def attempt() -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=str(path.parent))
        try:
            with os.fdopen(fd, "wb") as handle:
                write(handle)
            for index, fault in enumerate(faults):
                fault_point(fault, path=None if index else tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    with_retries(attempt)


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


def _parse_blocks(rows: list) -> Dict[tuple, "Block"]:
    """Shard blocks as ``{block key: Block}``; raises on a malformed block."""
    blocks: Dict[tuple, Block] = {}
    for row in rows:
        # Unpacking rejects non-6-sequences; the checks reject the rest.
        workload, kind, design, dimension, shape, packed = row
        if not (
            isinstance(workload, str)
            and isinstance(kind, str)
            and isinstance(design, str)
            and (dimension is None or isinstance(dimension, str))
        ):
            raise ValueError("malformed cache shard block")
        blocks[(workload, kind, design, dimension)] = Block.from_json(shape, packed)
    return blocks


def _shard_text(version: int, plane_hash: str, blocks: Dict[tuple, "Block"]) -> str:
    """A shard's JSON text: ``{"schema", "plane", "blocks": [[*key, shape,
    packed], ...]}``.

    Base64 needs no JSON escaping, so each block's packed matrix is spliced
    into the text rather than scanned by the encoder -- most of a shard's
    bytes, and most of the time ``json.dumps`` would spend on it.
    """
    rows = ",".join(
        f'{json.dumps([*key, block.shape])[:-1]},"{block.packed()}"]'
        for key, block in blocks.items()
    )
    return f'{{"schema":{json.dumps(version)},"plane":{json.dumps(plane_hash)},"blocks":[{rows}]}}'


class _DiskCache:
    """What both disk caches share: a versioned directory below one root
    (``<root>/<prefix><version>``), hit/miss counters, and one write-failure
    path.

    Attributes:
        stats: hit/miss counters of this cache instance
            (:class:`~repro.engine.context.CacheStats`).
        read_only: True once a fatal disk error (ENOSPC/EACCES/...) degraded
            the cache: reads still work, writes become no-ops.
    """

    #: The cache's name in its read-only warning, and what degrading costs.
    _NAME = ""
    _LOSS = ""

    def __init__(
        self, directory: Optional[Union[str, Path]], prefix: str, version: int
    ) -> None:
        # Imported here: context imports this module at load time.
        from repro.engine.context import CacheStats

        self.root = Path(directory) if directory is not None else default_cache_dir()
        self.version = int(version)
        self.directory = self.root / f"{prefix}{self.version}"
        self.stats: "CacheStats" = CacheStats()
        self.read_only = False
        self._lock = threading.RLock()

    def _write_failed(self, error: OSError) -> None:
        """Count a failed write; a fatal errno also degrades the cache to
        read-only, with a one-shot warning instead of aborting the run."""
        self.stats.write_errors += 1
        if is_fatal_io(error):
            self.read_only = True
            _warn_once(
                f"read-only:{self.directory}",
                f"{self._NAME} {self.directory} degraded to read-only after "
                f"{type(error).__name__}: {error}; {self._LOSS}",
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({str(self.directory)!r})"


class SimulationCache(_DiskCache):
    """On-disk memo of ``(scenario, benchmark, design)`` simulation results.

    Args:
        directory: cache root (:func:`default_cache_dir` when ``None``);
            shards live in a version subdirectory below it.
        version: shard schema version (:data:`CACHE_SCHEMA_VERSION`; tests
            override it to exercise invalidation).

    Attributes:
        stats: hit/miss counters of this cache instance, one count per
            entry (:class:`~repro.engine.context.CacheStats`).
    """

    _NAME = "simulation cache"
    _LOSS = "results stay in memory for this run but will not persist"

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        version: int = CACHE_SCHEMA_VERSION,
    ) -> None:
        super().__init__(directory, "v", version)
        #: plane hash -> {block key: Block}
        self._shards: Dict[str, Dict[tuple, Block]] = {}
        self._dirty: Dict[str, bool] = {}
        #: plane hash -> identity of the shard file this instance last read
        #: or published (``None``: there was none); unchanged, a flush need
        #: not merge it again.
        self._seen: Dict[str, Optional[tuple]] = {}

    # ----------------------------------------------------------------- keying

    @staticmethod
    def _key(
        scenario: Union["Scenario", str],
        benchmark: BenchmarkConfig,
        kind: str,
        design: DesignLike,
        pe_frequency_mhz: object = None,
        force_dimension: Optional[Dimension] = None,
    ) -> Tuple[str, tuple, object]:
        """The shard (plane hash), block key and row frequency of one request.

        The row is the effective PE frequency: ``pe_frequency_mhz`` (Fig.
        18's override) when given, else the scenario's own; a float64 array
        names one row per element.  ``scenario`` may be a
        :class:`~repro.api.scenario.Scenario` or its plane hash string (bulk
        callers key a whole plane without a scenario per point), which then
        needs ``pe_frequency_mhz``.  Both hashes are memoized, so keying an
        entry computes no digest.
        """
        if isinstance(scenario, str):
            if pe_frequency_mhz is None:
                raise ValueError("a plane-hash request needs its pe_frequency_mhz")
            plane = scenario
        else:
            plane = scenario.plane_hash()
            if pe_frequency_mhz is None:
                pe_frequency_mhz = scenario.hmc.pe_frequency_mhz
        return (
            plane,
            (
                benchmark_hash(benchmark),
                str(kind),
                design_key(design),
                force_dimension.value if force_dimension is not None else None,
            ),
            pe_frequency_mhz,
        )

    def _shard_path(self, plane_hash: str) -> Path:
        return self.directory / plane_hash[:2] / f"{plane_hash}.json"

    @staticmethod
    def _identity(path: Path) -> Optional[tuple]:
        """Which file is at ``path`` now (``None`` if none): every publish
        replaces the shard by a new file, so this changes with each one."""
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    @contextmanager
    def _shard_write_lock(self, path: Path):
        """Exclusive advisory lock serializing read-merge-publish on a shard.

        Without it two writers sharing a shard (process-parallel sweep
        points of one frequency plane, queue workers, or serve's handler
        threads) can interleave ``_read_disk`` and ``os.replace`` so that the
        slower writer publishes a merge that never saw the faster writer's
        rows -- a classic lost update, observed as a warm sweep re-running
        simulations.  On platforms without :mod:`fcntl` the flush stays
        best-effort (the cache remains correct, merely lossy under
        concurrency).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".lock"), "a+", encoding="utf-8") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _read_disk(self, plane_hash: str) -> Dict[tuple, "Block"]:
        """One plane's blocks as currently on disk (fresh read).

        Missing or unreadable shards count as empty.  A shard that exists
        but does not parse -- invalid JSON (a torn write from a non-atomic
        producer, or real disk corruption) or malformed blocks -- is
        quarantined to ``<root>/corrupt/`` and counted, so it is warned
        about once instead of silently re-missed on every lookup forever.
        """
        path = self._shard_path(plane_hash)
        # Identify the file before reading it: if another writer replaces it
        # in between, the next flush sees a changed identity and merges again.
        identity = self._identity(path)
        try:
            fault_point("diskcache.shard.read", path=path)
            text = path.read_text(encoding="utf-8")
        except OSError:
            if identity is None:  # no shard yet: nothing to merge on flush
                self._seen[plane_hash] = None
            return {}
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("shard payload is not a JSON object")
            blocks = data.get("blocks")
            self._seen[plane_hash] = identity
            if (
                data.get("schema") != self.version
                or data.get("plane") != plane_hash
                or not isinstance(blocks, list)
            ):
                # Valid JSON of another shape or version (a v2 row shard, say)
                # is a foreign file, not corruption: the next flush rewrites it.
                return {}
            return _parse_blocks(blocks)
        except (ValueError, TypeError):
            self._seen.pop(plane_hash, None)
            self.stats.corrupt_artifacts += 1
            quarantined = _quarantine(path, self.root)
            where = f"quarantined to {quarantined}" if quarantined else "dropped"
            _warn_once(
                f"corrupt-shard:{path}",
                f"corrupt cache shard {path} ({where}); "
                f"its entries will be recomputed",
            )
            return {}

    def _shard(self, plane_hash: str) -> Dict[tuple, "Block"]:
        """The (memoized) block map of one plane, loaded from disk once."""
        with self._lock:
            shard = self._shards.get(plane_hash)
            if shard is None:
                shard = self._read_disk(plane_hash)
                self._shards[plane_hash] = shard
            return shard

    # ---------------------------------------------------------------- get/put

    def _lookup(self, block: Optional["Block"], frequency: object) -> Optional[object]:
        """One request's result, counting a hit or miss per entry.

        A scalar frequency decodes one row (``None`` when missing or
        undecodable).  A frequency array returns the block of the rows found,
        in request order (``None`` when none is).
        """
        if isinstance(frequency, np.ndarray):
            found = block.select(frequency) if block is not None else None
            hits = len(found) if found is not None else 0
            self.stats.hits += hits
            self.stats.misses += len(frequency) - hits
            return found
        if block is not None:
            row = block.row_of(frequency)
            if row is not None:
                try:
                    result = block.row(row)
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
        plane, key, frequency = self._key(
            scenario, benchmark, kind, design, pe_frequency_mhz, force_dimension
        )
        return self._lookup(self._shard(plane).get(key), frequency)

    def _store(self, plane_hash: str, key: tuple, frequency: object, result: object) -> bool:
        """Buffer result rows under their key; ``False`` if the type is uncacheable."""
        block = Block.of(result, frequency)
        if block is None:
            return False
        with self._lock:
            shard = self._shard(plane_hash)
            mine = shard.get(key)
            shard[key] = block if mine is None else mine.merged(block)
            self._dirty[plane_hash] = True
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
        return self._store(
            *self._key(scenario, benchmark, kind, design, pe_frequency_mhz, force_dimension),
            result,
        )

    # -------------------------------------------------------------- bulk I/O

    def get_many(self, requests: Iterable[Sequence[object]]) -> List[Optional[object]]:
        """Bulk :meth:`get`: one result (or ``None``) per request, in order.

        Each request is a ``(scenario, benchmark, kind, design)`` tuple,
        optionally extended with ``pe_frequency_mhz`` and ``force_dimension``;
        ``scenario`` may be a plane-hash string.  A float64 array as
        ``pe_frequency_mhz`` asks for a whole block: its slot holds the
        :class:`Block` of the rows found, in request order.  Each shard is
        loaded once per cache instance; hit/miss accounting is per entry,
        identical to issuing the gets one by one.
        """
        results = []
        for request in requests:
            plane, key, frequency = self._key(*request)
            results.append(self._lookup(self._shard(plane).get(key), frequency))
        return results

    def put_many(self, entries: Iterable[Sequence[object]]) -> int:
        """Bulk :meth:`put` under one lock acquisition; returns results stored.

        Each entry is a ``(scenario, benchmark, kind, design, result)`` tuple
        (optionally extended like :meth:`get_many` requests); ``scenario`` may
        be a plane-hash string.  A strategy's result over a float64 frequency
        array stores one row per frequency.  Uncacheable result types are
        skipped, like :meth:`put` returning ``False``.
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
            for plane_hash in dirty:
                try:
                    self._publish_shard(plane_hash)
                except OSError as error:
                    self._write_failed(error)
                    if self.read_only:
                        break
                    continue
                self._dirty[plane_hash] = False
                written += 1
        return written

    def _publish_shard(self, plane_hash: str) -> None:
        """Merge one plane with its shard on disk and publish the result."""
        path = self._shard_path(plane_hash)
        # The read-merge-publish below must be one critical section: without
        # the shard lock, two writers sharing a shard can both read, then
        # both publish, and the second replace silently drops the first
        # writer's rows.
        with self._shard_write_lock(path):
            # Merge what reached disk since we loaded (another worker may
            # share this plane -- every point of a frequency sweep does); our
            # buffered rows win on conflict, and nothing another writer
            # published is lost.  A shard file no one replaced since this
            # instance read or wrote it holds nothing new.
            shard = self._shards[plane_hash]
            if plane_hash not in self._seen or self._identity(path) != self._seen[plane_hash]:
                for key, block in self._read_disk(plane_hash).items():
                    mine = shard.get(key)
                    shard[key] = block if mine is None else block.merged(mine)
            text = _shard_text(self.version, plane_hash, shard).encode("utf-8")
            publish_file(
                path,
                lambda handle: handle.write(text),
                ("diskcache.flush.write", "diskcache.flush.replace"),
            )
            self._seen[plane_hash] = self._identity(path)


# ------------------------------------------------------------- result codecs


def encode_result(result: object) -> Optional[Tuple[tuple, list, Optional[str]]]:
    """An engine result as ``(shape, values, dimension)``; ``None`` if uncacheable.

    ``shape`` is what every row of a :class:`Block` shares: the result type,
    design, benchmark, component names and batch structure.  ``values`` are
    the float fields in a fixed order, and ``dimension`` is the distribution
    dimension's value.  A strategy's result over a frequency array encodes
    the same way; its values are then float64 arrays.
    """
    if type(result) is RoutingComparison:
        shape = (
            "routing",
            design_key(result.design),
            result.benchmark,
            tuple(result.time_components),
            tuple(result.energy_components),
        )
        values = [
            result.time_seconds,
            result.energy_joules,
            *result.time_components.values(),
            *result.energy_components.values(),
        ]
        dimension = result.dimension.value if result.dimension is not None else None
        return shape, values, dimension
    if type(result) is EndToEndComparison:
        timing = result.timing
        shape = (
            "end_to_end",
            design_key(result.design),
            result.benchmark,
            int(timing.num_batches),
            bool(timing.pipelined),
        )
        values = [
            timing.host_stage_time,
            timing.routing_stage_time,
            result.energy_joules,
            result.host_stage_seconds,
            result.routing_stage_seconds,
        ]
        return shape, values, None
    return None


def decode_result(
    shape: Sequence[object], values: Sequence[object], dimension: Optional[str] = None
) -> object:
    """The engine result of one block row: the inverse of :func:`encode_result`.

    Given float64 arrays as ``values`` it builds the array-valued result of
    a whole block instead, as a strategy returns it over a frequency array.
    """
    kind = shape[0]
    if kind == "routing":
        _, design, benchmark, time_keys, energy_keys = shape
        split = 2 + len(time_keys)
        return RoutingComparison(
            design=resolve_design(design),
            benchmark=benchmark,
            time_seconds=values[0],
            energy_joules=values[1],
            time_components=dict(zip(time_keys, values[2:split])),
            energy_components=dict(zip(energy_keys, values[split:])),
            dimension=Dimension(dimension) if dimension is not None else None,
        )
    if kind == "end_to_end":
        _, design, benchmark, num_batches, pipelined = shape
        host_time, routing_time, energy, host_seconds, routing_seconds = values
        return EndToEndComparison(
            design=resolve_design(design),
            benchmark=benchmark,
            timing=PipelineTiming(
                host_stage_time=host_time,
                routing_stage_time=routing_time,
                num_batches=num_batches,
                pipelined=pipelined,
            ),
            energy_joules=energy,
            host_stage_seconds=host_seconds,
            routing_stage_seconds=routing_seconds,
        )
    raise ValueError(f"unknown cache entry type {kind!r}")


#: Distribution dimensions by code: a block row stores its dimension as the
#: index into this tuple, or NaN when it has none.
_DIMENSION_VALUES = tuple(dimension.value for dimension in Dimension)


def _field_count(shape: tuple) -> int:
    """Float fields per row of a result ``shape``; raises on a malformed one."""
    kind = shape[0]
    if kind == "routing":
        _, design, benchmark, time_keys, energy_keys = shape
        names = (
            time_keys + energy_keys
            if isinstance(time_keys, tuple) and isinstance(energy_keys, tuple)
            else None
        )
        valid = names is not None and all(isinstance(name, str) for name in names)
        fields = 2 + len(names or ())
    elif kind == "end_to_end":
        _, design, benchmark, num_batches, pipelined = shape
        valid = type(num_batches) is int and type(pipelined) is bool
        fields = 5
    else:
        raise ValueError(f"unknown cache entry type {kind!r}")
    if not (valid and isinstance(design, str) and isinstance(benchmark, str)):
        raise ValueError("malformed result shape")
    return fields


class Block:
    """The cached rows of one ``(workload, kind, design, force_dimension)`` in a plane.

    Every row has the result ``shape``.  ``matrix`` holds one float64 column
    per row: its PE frequency, its distribution dimension's code (the index
    into the ``Dimension`` values, NaN for none), then its float fields.
    Blocks are never modified in place; :meth:`merged` builds a new one.
    """

    __slots__ = ("shape", "matrix", "_rows")

    def __init__(self, shape: tuple, matrix: np.ndarray) -> None:
        self.shape = shape
        self.matrix = matrix
        self._rows: Optional[Dict[float, int]] = None

    def __len__(self) -> int:
        return self.matrix.shape[1]

    @property
    def frequencies(self) -> np.ndarray:
        return self.matrix[0]

    @classmethod
    def of(cls, result: object, frequency: object) -> Optional["Block"]:
        """The rows of a result at one frequency, or of a strategy's result
        over a frequency array (``None`` if the result type is uncacheable)."""
        encoded = encode_result(result)
        if encoded is None:
            return None
        shape, values, dimension = encoded
        code = np.nan if dimension is None else _DIMENSION_VALUES.index(dimension)
        if not isinstance(frequency, np.ndarray):
            return cls(shape, np.array([frequency, code, *values], dtype=np.float64)[:, None])
        # Frequency-independent fields of an array result are plain floats.
        matrix = np.empty((2 + len(values), len(frequency)))
        matrix[0] = frequency
        matrix[1] = code
        for field, value in enumerate(values, start=2):
            matrix[field] = value
        return cls(shape, matrix)

    def row(self, j: int) -> object:
        """Row ``j`` as an engine result."""
        _, code, *values = self.matrix[:, j].tolist()
        return decode_result(
            self.shape, values, None if code != code else _DIMENSION_VALUES[int(code)]
        )

    def arrays(self) -> object:
        """Every row as one array-valued engine result (without dimensions)."""
        return decode_result(self.shape, list(self.matrix[2:]))

    def row_of(self, frequency: float) -> Optional[int]:
        """The row at one frequency, or ``None``."""
        if self._rows is None:
            self._rows = dict(zip(self.frequencies.tolist(), range(len(self))))
        return self._rows.get(frequency)

    def select(self, frequencies: np.ndarray) -> Optional["Block"]:
        """The rows at these frequencies, in their order; ``None`` if none is here."""
        own = self.frequencies
        if len(own) == len(frequencies) and np.array_equal(own, frequencies):
            return self
        order = np.argsort(own, kind="stable")
        ordered = own[order]
        at = np.minimum(np.searchsorted(ordered, frequencies), len(own) - 1)
        rows = order[at][ordered[at] == frequencies]
        return Block(self.shape, self.matrix[:, rows]) if len(rows) else None

    def merged(self, newer: "Block") -> "Block":
        """These rows updated with ``newer``'s: its rows win, and a changed
        result shape replaces the whole block."""
        if newer.shape != self.shape:
            return newer
        stale = [
            row
            for row in map(self.row_of, newer.frequencies.tolist())
            if row is not None
        ]
        if len(stale) == len(self):
            return newer
        kept = np.delete(self.matrix, stale, axis=1) if stale else self.matrix
        block = Block(self.shape, np.concatenate([kept, newer.matrix], axis=1))
        if not stale:  # rows only appended: extend the row index
            block._rows = dict(self._rows)  # type: ignore[arg-type]
            block._rows.update(zip(newer.frequencies.tolist(), range(len(self), len(block))))
        return block

    def packed(self) -> str:
        """The matrix as base64 text of little-endian float64."""
        return base64.b64encode(self.matrix.astype("<f8").tobytes()).decode("ascii")

    @classmethod
    def from_json(cls, shape: object, packed: object) -> "Block":
        """A block from its shard form: the JSON ``shape`` list and the
        :meth:`packed` matrix; raises ``ValueError`` on malformed input."""
        if not isinstance(shape, list) or not isinstance(packed, str):
            raise ValueError("malformed cache block")
        shape = tuple(tuple(part) if isinstance(part, list) else part for part in shape)
        height = 2 + _field_count(shape)
        matrix = np.frombuffer(base64.b64decode(packed), dtype="<f8")
        if not matrix.size or matrix.size % height:
            raise ValueError("malformed cache block")
        matrix = matrix.reshape(height, -1)
        codes = matrix[1]
        if not np.all(np.isnan(codes) | np.isin(codes, range(len(_DIMENSION_VALUES)))):
            raise ValueError("malformed cache block")
        return cls(shape, matrix)


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


class TrainedModelCache(_DiskCache):
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
      published atomically (:func:`publish_file`), and corrupt or
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

    _NAME = "trained-model cache"
    _LOSS = "models will be retrained instead of persisted"

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        *,
        version: int = MODEL_CACHE_SCHEMA_VERSION,
    ) -> None:
        super().__init__(directory, "models-v", version)

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
            try:
                publish_file(
                    path,
                    lambda handle: np.savez(handle, **arrays),
                    ("modelcache.write", "modelcache.replace"),
                )
            except OSError as error:
                self._write_failed(error)
                return False
        return True
