"""Persistent, plane-sharded on-disk cache for simulation results.

The in-memory caches (:class:`~repro.engine.context.SimulationContext`,
:class:`~repro.core.accelerator.PIMCapsNet`) only live for one process; a
design-space sweep re-running the same ``(scenario, benchmark, design)``
points across invocations -- or fanning points out over a process pool --
pays for every simulation again.  :class:`SimulationCache` memoizes those
results on disk instead:

* **Plane-sharded, versioned layout.**  A *plane* is a set of scenarios that
  differ at most in ``hmc.pe_frequency_mhz`` -- the paper's Fig. 18 is one.
  All entries of a plane live in one directory,
  ``<dir>/v<schema>/<aa>/<plane-hash>/`` (``~/.cache/repro`` by default;
  override with ``directory=`` / ``--cache-dir`` / ``$REPRO_CACHE_DIR``),
  named by :meth:`~repro.api.scenario.Scenario.plane_hash`, so scenarios
  differing only in *name* share entries and a frequency sweep costs one
  plane instead of one per point.  Bumping :data:`CACHE_SCHEMA_VERSION`
  orphans old trees instead of misreading them (every entry is
  re-creatable, so stale trees can simply be deleted).
* **Blocks of float64 columns.**  A shard file holds one :class:`Block` per
  ``(workload, kind, design, force_dimension)``.  Its rows are keyed by the
  effective PE frequency -- Fig. 18's override when given, else the
  scenario's own -- and share one result shape (type, design, benchmark,
  component names, batch structure).  A row's frequency, distribution
  dimension and float fields are little-endian float64 values, and a
  block's rows pack into one base64 string, so a block encodes and decodes
  in one call with exact bits.  A vectorized sweep reads and writes whole
  blocks as arrays; a scalar lookup decodes one row.  Files that are not
  JSON, or whose blocks are malformed, are quarantined one by one.
* **A base generation plus deltas.**  A plane directory holds at most one
  live *base* (``base-<seq>.json``, rows sorted by frequency) and the
  *deltas* published since (``delta-<seq>-<pid>-<n>.json``).  ``put``
  buffers in memory; :meth:`SimulationCache.flush` publishes only the rows
  buffered since the last flush, as one delta per plane under a name no
  file has had, through :func:`publish_file` (a temporary file and an
  atomic :func:`os.replace`, retried on transient errors) and outside the
  cache's lock.  A reader merges the newest base with the deltas, in
  publish order, later rows winning.  Writers never read, merge or replace
  a live file, so concurrent workers neither observe half-written files
  nor lose each other's rows.  Once a plane holds more than
  :data:`MAX_DELTAS` deltas, the flush that added the last one compacts it
  under the plane's ``flock``: it merges the base and the deltas -- reading
  only the files whose rows it does not already hold -- into a new base
  generation, publishes it under a new name, then unlinks the files it
  merged.  Until it has, a reader may merge a delta twice, which changes
  nothing: one key and frequency always hold one result.  The engine
  flushes automatically at the end of a runner/sweep-point execution.

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
import itertools
import json
import os
import re
import sys
import tempfile
import threading
import zipfile
from contextlib import contextmanager
from pathlib import Path

try:  # POSIX-only; compactions degrade to best-effort elsewhere.
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

#: Version of the on-disk shard format (4: one directory per frequency
#: plane holding a base generation and deltas of float64 column blocks).
#: Bump whenever the layout, the blocks or the result encoding change
#: shape; old trees are then ignored.
CACHE_SCHEMA_VERSION = 4

#: Deltas a plane may hold: the flush that publishes one more compacts the
#: plane into a new base generation.  A reader merges at most this many
#: deltas beside the base; a compaction rewrites the whole plane, once per
#: this many flushes.
MAX_DELTAS = 8

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

    Each attempt, under :func:`~repro.faults.retry.with_retries`, writes a
    fresh temporary file beside ``path`` (creating the parent directory if
    it is missing) through ``write(handle)`` (a binary file), fires the
    fault points ``faults`` in order -- the first with ``path=`` the
    temporary file -- and :func:`os.replace`-s it over ``path``.  A failed
    attempt unlinks its
    temporary file, so no retry can publish a torn predecessor; the last
    attempt's error propagates.
    """

    def attempt() -> None:
        try:
            fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=str(path.parent))
        except FileNotFoundError:
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


def _write_shard(
    handle: BinaryIO,
    version: int,
    plane_hash: str,
    blocks: Dict[tuple, "Block"],
    by_frequency: bool = False,
) -> None:
    """Write a shard file's JSON, ``{"schema", "plane", "blocks": [[*key,
    shape, packed], ...]}``; ``by_frequency`` writes each block's rows in
    ascending frequency order.

    Base64 needs no JSON escaping, so each block's packed matrix is spliced
    into the text rather than scanned by the encoder -- most of a shard's
    bytes, and most of the time ``json.dumps`` would spend on it.  The text
    goes out in writes of about :data:`_WRITE_CHUNK` bytes: few enough that
    a delta is one write, small enough that a compacted base is never held
    whole.
    """
    chunk = [f'{{"schema":{json.dumps(version)},"plane":{json.dumps(plane_hash)},"blocks":[']
    size = 0
    for index, (key, block) in enumerate(blocks.items()):
        if by_frequency:
            block = block.by_frequency()
        chunk.append(f'{"," if index else ""}{_block_head(key, block.shape)},"{block.packed()}"]')
        size += len(chunk[-1])
        if size > _WRITE_CHUNK:
            handle.write("".join(chunk).encode())
            chunk, size = [], 0
    chunk.append("]}")
    handle.write("".join(chunk).encode())


@functools.lru_cache(maxsize=4096)
def _block_head(key: tuple, shape: tuple) -> str:
    """A block's JSON up to its packed matrix, the same in every file of it."""
    return json.dumps([*key, shape])[:-1]


def _key_order(key: tuple) -> list:
    """A block key's sort key (its forced dimension may be ``None``)."""
    return [part or "" for part in key]


#: The shard files of a plane directory: base generations, and deltas
#: named by sequence number, publishing process and that process's count.
_BASE_NAME = re.compile(r"base-(\d+)\.json")
_DELTA_NAME = re.compile(r"delta-(\d+)-(\d+)-(\d+)\.json")

#: This process's delta count: with the pid it makes a delta's name unique.
_DELTAS_PUBLISHED = itertools.count()

#: Bytes of shard text gathered per write.  Each write releases the GIL, and
#: in a busy server a thread can wait a whole switch interval to take it
#: back, so a flush makes as few blocking calls as it can.
_WRITE_CHUNK = 1 << 20

#: The fault points of every shard publish, delta or base.
_FLUSH_FAULTS = ("diskcache.flush.write", "diskcache.flush.replace")


@dataclasses.dataclass(frozen=True)
class _Listing:
    """A plane directory's shard files, as one listing saw them.

    Attributes:
        bases: base generations, oldest first.
        deltas: deltas in publish order (sequence number, then pid and count).
        next_seq: a sequence number above every listed file's.
    """

    bases: Tuple[str, ...]
    deltas: Tuple[str, ...]
    next_seq: int


def _list_plane(directory: Path) -> _Listing:
    """List one plane directory (a missing one is empty); other names, such
    as temporary files and the compaction lock, are not shard files."""
    try:
        names = os.listdir(directory)
    except OSError:
        names = []
    bases, deltas = [], []
    for name in names:
        match = _BASE_NAME.fullmatch(name)
        if match is not None:
            bases.append(((int(match[1]),), name))
            continue
        match = _DELTA_NAME.fullmatch(name)
        if match is not None:
            deltas.append((tuple(map(int, match.groups())), name))
    bases.sort()
    deltas.sort()
    last = max((order[0] for order, _ in bases + deltas), default=0)
    return _Listing(
        tuple(name for _, name in bases), tuple(name for _, name in deltas), last + 1
    )


class _Vanished(Exception):
    """A listed shard file left its directory before it was read: a
    compaction merged and unlinked it, so the plane must be listed again."""


@contextmanager
def _plane_lock(directory: Path):
    """Exclusive advisory lock on one plane directory, held by compactions.

    A compaction reads the plane, publishes a new base and unlinks what it
    merged; two at once could each unlink deltas the other's base lacks.
    Delta publishes need no lock: each is a new file.  On platforms
    without :mod:`fcntl` compaction stays best-effort (a race can drop rows
    from disk, which are then recomputed; it never corrupts one).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    descriptor = os.open(directory / "compact.lock", os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        yield
    finally:
        os.close(descriptor)  # releases the lock


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
        #: plane hash -> {block key: Block}: what this instance read or stored
        self._shards: Dict[str, Dict[tuple, Block]] = {}
        #: plane hash -> names of the shard files whose rows ``_shards``
        #: holds (read, or published by this instance): a compaction need
        #: not read them again
        self._held: Dict[str, set] = {}
        #: plane hash -> ``(block key, Block)`` stored since the last flush,
        #: in order: what the next flush publishes
        self._pending: Dict[str, List[Tuple[tuple, Block]]] = {}

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

    def _plane_dir(self, plane_hash: str) -> Path:
        return self.directory / plane_hash[:2] / plane_hash

    def _read_file(self, plane_hash: str, path: Path) -> Optional[Dict[tuple, "Block"]]:
        """One shard file's blocks; ``None`` when the file cannot be read.

        A file that does not parse -- invalid JSON (a torn write from a
        non-atomic producer, or real disk corruption) or malformed blocks --
        holds no rows: it is quarantined to ``<root>/corrupt/`` and counted,
        so it is warned about once instead of silently re-missed on every
        lookup forever.  Raises :class:`_Vanished` when the file has left
        its directory.
        """
        try:
            fault_point("diskcache.shard.read", path=path)
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            if isinstance(error, FileNotFoundError) and not os.path.lexists(path):
                raise _Vanished(path.name) from None
            return None
        try:
            data = json.loads(text)
            del text  # a base's text is as large as its blocks: free it first
            if not isinstance(data, dict):
                raise ValueError("shard payload is not a JSON object")
            blocks = data.get("blocks")
            if (
                data.get("schema") != self.version
                or data.get("plane") != plane_hash
                or not isinstance(blocks, list)
            ):
                # Valid JSON of another shape or version is a foreign file,
                # not corruption: it holds no rows, and a compaction drops it.
                return {}
            return _parse_blocks(blocks)
        except (ValueError, TypeError):
            with self._lock:  # compactions read outside it
                self.stats.corrupt_artifacts += 1
            quarantined = _quarantine(path, self.root)
            where = f"quarantined to {quarantined}" if quarantined else "dropped"
            _warn_once(
                f"corrupt-shard:{path}",
                f"corrupt cache shard {path} ({where}); "
                f"its entries will be recomputed",
            )
            return {}

    def _merge_files(
        self, plane_hash: str, names: Iterable[str], rows: Iterable[Tuple[tuple, "Block"]] = ()
    ) -> Tuple[Dict[tuple, "Block"], List[str]]:
        """``rows``, then the blocks of the plane's files ``names`` in order,
        merged with later rows winning; and the names of the files read.

        A file that cannot be read is left out of both.
        """
        directory = self._plane_dir(plane_hash)
        parts: Dict[tuple, List[Block]] = {}
        for key, block in rows:
            parts.setdefault(key, []).append(block)
        merged = []
        for name in names:
            loaded = self._read_file(plane_hash, directory / name)
            if loaded is None:
                continue
            for key, block in loaded.items():
                parts.setdefault(key, []).append(block)
            merged.append(name)
        return {key: Block.joined(blocks) for key, blocks in parts.items()}, merged

    def _read_disk(self, plane_hash: str) -> Tuple[Dict[tuple, "Block"], List[str]]:
        """One plane's blocks as currently on disk -- its newest base, then
        its deltas in publish order -- and the names of the files read.

        Missing or unreadable files count as empty.  A file a concurrent
        compaction unlinks between the listing and the read is in the new
        base, so the plane is listed again.
        """
        while True:
            listing = _list_plane(self._plane_dir(plane_hash))
            try:
                return self._merge_files(plane_hash, (*listing.bases[-1:], *listing.deltas))
            except _Vanished:
                continue

    def _shard(self, plane_hash: str) -> Dict[tuple, "Block"]:
        """The (memoized) block map of one plane, loaded from disk once."""
        with self._lock:
            shard = self._shards.get(plane_hash)
            if shard is None:
                shard, read = self._read_disk(plane_hash)
                self._shards[plane_hash] = shard
                self._held[plane_hash] = set(read)
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
        with self._lock:
            return self._lookup(self._shard(plane).get(key), frequency)

    def _store(self, plane_hash: str, key: tuple, frequency: object, result: object) -> bool:
        """Buffer result rows under their key; ``False`` if the type is uncacheable.

        The rows are appended to the plane's block, without copying it, and
        queued for the next flush.
        """
        block = Block.of(result, frequency)
        if block is None:
            return False
        with self._lock:
            shard = self._shard(plane_hash)
            mine = shard.get(key)
            if mine is None:
                shard[key] = Block(block.shape, block.matrix)
            else:
                mine.append(block)
            if not self.read_only:
                self._pending.setdefault(plane_hash, []).append((key, block))
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
            with self._lock:
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
        """Publish the rows stored since the last flush; returns planes published.

        Each plane's new rows go out as one delta file, outside the cache's
        lock: gets and puts from other threads never wait on the disk.  A
        plane that then holds more than :data:`MAX_DELTAS` deltas is
        compacted.  Transient write errors are retried with deterministic
        backoff; rows whose publish still fails go back to pending, so the
        next flush retries them.  A fatal disk error (full, read-only,
        permission denied) degrades the cache to read-only with a one-shot
        warning and a ``write_errors`` count instead of aborting the run --
        the rows stay in memory, so in-process gets keep working.
        """
        with self._lock:
            if self.read_only:
                return 0
            pending, self._pending = self._pending, {}
        written = 0
        for plane_hash, rows in pending.items():
            try:
                self._publish(plane_hash, rows)
            except OSError as error:
                with self._lock:
                    self._write_failed(error)
                    if self.read_only:
                        break
                    # Older than anything stored since, which stays later.
                    self._pending[plane_hash] = rows + self._pending.get(plane_hash, [])
                continue
            written += 1
        return written

    def _publish(self, plane_hash: str, rows: List[Tuple[tuple, "Block"]]) -> None:
        """Publish one plane's new rows as a delta under a fresh name, then
        compact the plane if it holds more than :data:`MAX_DELTAS` deltas."""
        blocks, _ = self._merge_files(plane_hash, (), rows)
        directory = self._plane_dir(plane_hash)
        listing = _list_plane(directory)
        name = f"delta-{listing.next_seq:08d}-{os.getpid()}-{next(_DELTAS_PUBLISHED)}.json"
        publish_file(
            directory / name,
            lambda handle: _write_shard(handle, self.version, plane_hash, blocks),
            _FLUSH_FAULTS,
        )
        with self._lock:
            self._held[plane_hash].add(name)
        if len(listing.deltas) >= MAX_DELTAS:
            try:
                self._compact(plane_hash)
            except OSError as error:  # the delta is out: only the compaction failed
                with self._lock:
                    self._write_failed(error)

    def _compact(self, plane_hash: str) -> None:
        """Merge a plane's base and deltas into a new base generation.

        Under the plane's lock: list the plane and merge what this instance
        holds of it with the listed files it does not hold (the newest base
        and the deltas, read in publish order); publish the merge -- blocks
        by key, rows by frequency, so the same rows give the same bytes --
        as ``base-<seq>.json``, with a sequence number above every listed
        file's; then unlink the listed bases and the deltas merged.  Deltas
        published meanwhile stay for readers to merge.  A plane whose newest
        base cannot be read is left as it is.
        """
        directory = self._plane_dir(plane_hash)
        with _plane_lock(directory):
            while True:
                listing = _list_plane(directory)
                if len(listing.deltas) <= MAX_DELTAS:
                    return  # another writer compacted it meanwhile
                with self._lock:
                    held = set(self._held[plane_hash])
                    mine = [
                        (key, Block(block.shape, block.matrix))
                        for key, block in self._shards[plane_hash].items()
                    ]
                names = (*listing.bases[-1:], *listing.deltas)
                try:
                    blocks, read = self._merge_files(
                        plane_hash, [name for name in names if name not in held], mine
                    )
                except _Vanished:
                    continue
                break
            merged = [name for name in names if name in held or name in read]
            if listing.bases and listing.bases[-1] not in merged:
                return
            ordered = {key: blocks[key] for key in sorted(blocks, key=_key_order)}
            base = f"base-{listing.next_seq:08d}.json"
            publish_file(
                directory / base,
                lambda handle: _write_shard(handle, self.version, plane_hash, ordered, True),
                _FLUSH_FAULTS,
            )
            gone = dict.fromkeys((*listing.bases, *merged))
            for name in gone:
                try:
                    os.unlink(directory / name)
                except OSError:
                    pass  # gone already (quarantined), or left for the next compaction
            with self._lock:
                held = self._held[plane_hash]
                held.difference_update(gone)
                if not read:  # the base holds nothing this instance lacks
                    held.add(base)


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
_DIMENSION_CODES = frozenset(range(len(_DIMENSION_VALUES)))


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
    A cache grows its own blocks in place with :meth:`append`, serialized
    by its lock; a ``matrix`` array never changes once handed out, and
    every block a cache hands out is a snapshot that it never appends to.
    """

    __slots__ = ("shape", "matrix", "_buffer", "_rows")

    def __init__(self, shape: tuple, matrix: np.ndarray) -> None:
        self.shape = shape
        self.matrix = matrix
        #: ``matrix`` is the first columns of this buffer; appends fill the
        #: spare ones, which no matrix handed out covers.
        self._buffer = matrix
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

    def _index(self) -> Dict[float, int]:
        if self._rows is None:
            self._rows = dict(zip(self.frequencies.tolist(), range(len(self))))
        return self._rows

    def row_of(self, frequency: float) -> Optional[int]:
        """The row at one frequency, or ``None``."""
        return self._index().get(frequency)

    def select(self, frequencies: np.ndarray) -> Optional["Block"]:
        """The rows at these frequencies, in their order; ``None`` if none is here."""
        own = self.frequencies
        if len(own) == len(frequencies) and np.array_equal(own, frequencies):
            return Block(self.shape, self.matrix)
        order = np.argsort(own, kind="stable")
        ordered = own[order]
        at = np.minimum(np.searchsorted(ordered, frequencies), len(own) - 1)
        rows = order[at][ordered[at] == frequencies]
        return Block(self.shape, self.matrix[:, rows]) if len(rows) else None

    def append(self, newer: "Block") -> None:
        """Add ``newer``'s rows in place: its rows win, and a changed result
        shape replaces the whole block.

        The rows held are not copied unless ``newer`` replaces some of them
        or the buffer is full; the buffer then grows by half, so appending
        costs amortized O(new rows).
        """
        if newer.shape != self.shape:
            self.shape, self.matrix, self._buffer, self._rows = (
                newer.shape, newer.matrix, newer.matrix, None,
            )
            return
        rows = self._index()
        added = newer.frequencies.tolist()
        stale = [row for row in map(rows.get, added) if row is not None]
        held = np.delete(self.matrix, stale, axis=1) if stale else self.matrix
        width, count = held.shape[1], len(added)
        buffer = self._buffer
        if stale or width + count > buffer.shape[1]:
            buffer = np.empty((len(held), 3 * (width + count) // 2 + 1))
            buffer[:, :width] = held
        buffer[:, width : width + count] = newer.matrix
        self._buffer, self.matrix = buffer, buffer[:, : width + count]
        if stale:
            self._rows = None
        else:
            rows.update(zip(added, range(width, width + count)))

    @staticmethod
    def joined(blocks: Sequence["Block"]) -> "Block":
        """One block of these blocks' rows, later rows winning as in
        :meth:`append`, in one matrix of exactly their size."""
        # A changed result shape replaces every row before it.
        start = max(
            (i for i in range(1, len(blocks)) if blocks[i].shape != blocks[i - 1].shape),
            default=0,
        )
        blocks = blocks[start:]
        if len(blocks) == 1:
            return blocks[0]
        matrix = np.concatenate([block.matrix for block in blocks], axis=1)
        last = dict(zip(matrix[0].tolist(), range(matrix.shape[1])))
        if len(last) < matrix.shape[1]:  # superseded rows
            matrix = matrix[:, sorted(last.values())]
        return Block(blocks[0].shape, matrix)

    def by_frequency(self) -> "Block":
        """These rows in ascending frequency order."""
        return Block(self.shape, self.matrix[:, np.argsort(self.frequencies, kind="stable")])

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
        if not set(codes[codes == codes].tolist()) <= _DIMENSION_CODES:  # NaN: no dimension
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
