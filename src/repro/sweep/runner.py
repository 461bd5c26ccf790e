"""Sweep execution: option checks, point evaluation and result assembly.

:class:`SweepRunner` is the one sweep executor.  It turns a
:class:`~repro.sweep.spec.SweepSpec` plus a base
:class:`~repro.api.scenario.Scenario` into results, and is the only place
that

* checks the sweep options (backend, verify mode, benchmark restriction),
* picks the backend: eligible grids evaluate whole frequency x PE-count
  batches at once through :mod:`repro.sweep.vectorized`; every other grid
  evaluates point by point, in the calling process with ``jobs=1`` or over
  a ``ProcessPoolExecutor`` of ``jobs`` workers.  The point scenarios are
  frozen :class:`~repro.api.scenario.Scenario` objects and cross the
  process boundary as they are (pickled); workers send back their cells.  The
  simulations are pure-Python analytical models (GIL-bound), which is why
  the points fan out over processes and never threads.  Where the platform
  cannot provide a process pool the points run in-process instead.  (The
  process path relies on the ``fork`` start method to inherit custom
  strategy/experiment registrations; on spawn-only platforms use
  ``jobs=1`` for custom designs.)
* evaluates any slice of grid points (:meth:`SweepRunner.evaluate`):
  :meth:`SweepRunner.run` passes the whole grid, and each shard of the work
  queue (:mod:`repro.sweep.queue`) passes its own slice, and
* assembles a :class:`SweepResult` (:meth:`SweepRunner.assemble`).

Every simulation is memoized in the persistent
:class:`~repro.engine.diskcache.SimulationCache`, so a repeated or
overlapping sweep re-runs only the points it has never seen.  A fully warm
sweep executes **zero** simulations -- :attr:`SweepResult.simulations_executed`
and :attr:`SweepResult.cache` prove it.

:meth:`SweepResult.format_report` and :meth:`SweepResult.to_dict` contain
only grid data (no timings, no cache counters), so reports are byte-identical
between cold and warm runs; execution statistics live in
:meth:`SweepResult.describe_stats`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.analysis.tables import format_columns
from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint
from repro.engine.context import CacheStats, SimulationContext
from repro.engine.diskcache import SimulationCache
from repro.faults import point as fault_point
from repro.sweep.spec import SweepSpec, _format_value
from repro.sweep.vectorized import VERIFY_MODES, evaluate_grid, vectorization_blocker

#: Evaluation backends: ``"auto"`` batches frequency x PE-count grids through
#: :mod:`repro.sweep.vectorized` whenever the sweep is eligible,
#: ``"vectorized"`` demands the batched path (erroring with the blocker
#: reason when ineligible) and ``"scalar"`` always evaluates point by point.
BACKENDS = ("auto", "vectorized", "scalar")

#: Upper bound on the default worker-process count of scalar sweeps.
MAX_DEFAULT_WORKERS = 8


def default_worker_count() -> int:
    """Default worker-process count of scalar sweeps (bounded CPU count)."""
    return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


def speedup_of(baseline_seconds, seconds):
    """Speedup of a design over the GPU baseline: ``baseline_seconds / seconds``.

    A time ``<= 0`` gives ``inf``; a NaN time gives NaN.  Takes Python floats
    or float64 arrays (then elementwise, with the same bits per element).
    """
    if isinstance(seconds, np.ndarray):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(seconds <= 0, np.inf, baseline_seconds / seconds)
    if seconds <= 0:
        return float("inf")
    return baseline_seconds / seconds


def energy_saving_of(joules, baseline_joules):
    """Fractional energy saving over the GPU baseline: ``1 - joules / baseline_joules``.

    A baseline energy ``<= 0`` gives ``0.0``.  Takes Python floats or float64
    arrays, like :func:`speedup_of`.
    """
    if isinstance(baseline_joules, np.ndarray):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(baseline_joules <= 0, 0.0, 1.0 - joules / baseline_joules)
    if baseline_joules <= 0:
        return 0.0
    return 1.0 - joules / baseline_joules


class SweepCell(NamedTuple):
    """One ``(grid point, benchmark, design)`` measurement.

    An immutable named tuple (grids build 100k+ of them, and a tuple builds
    in about half the time of a frozen dataclass), so a cell compares equal
    to a plain tuple of its fields.
    """

    benchmark: str
    design: str
    time_seconds: float
    energy_joules: float
    baseline_time_seconds: float
    baseline_energy_joules: float

    @property
    def speedup(self) -> float:
        """Speedup of the design over the GPU baseline (:func:`speedup_of`)."""
        return speedup_of(self.baseline_time_seconds, self.time_seconds)

    @property
    def energy_saving(self) -> float:
        """Fractional energy saving over the GPU baseline (:func:`energy_saving_of`)."""
        return energy_saving_of(self.energy_joules, self.baseline_energy_joules)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form: the fields, then the speedup and energy saving."""
        return {
            **self._asdict(),
            "speedup": self.speedup,
            "energy_saving": self.energy_saving,
        }


@dataclass
class SweepPoint:
    """One executed grid point: the axis assignment and its cells."""

    index: int
    assignment: Dict[str, object]
    scenario_name: str
    cells: List[SweepCell] = field(default_factory=list)


@dataclass
class SweepResult:
    """The whole executed grid plus execution statistics.

    The statistics fields (:attr:`cache`, :attr:`simulations_executed`,
    :attr:`elapsed_seconds`, :attr:`executor_used`, :attr:`jobs`) are
    intentionally excluded from :meth:`format_report` and :meth:`to_dict`,
    keeping rendered output byte-identical between cold and warm runs.
    :attr:`jobs` counts the processes that evaluated the grid: 1 for
    in-process and vectorized runs.
    """

    spec: SweepSpec
    base: Scenario
    points: List[SweepPoint]
    cache: CacheStats = field(default_factory=CacheStats)
    simulations_executed: int = 0
    elapsed_seconds: float = 0.0
    executor_used: str = "serial"
    jobs: int = 1
    #: Poison shards the queue retired (``{shard, start, stop, attempts,
    #: error, ...}`` records); empty for complete sweeps, in which case the
    #: report and dict renderings are byte-identical to pre-fault builds.
    failed_shards: List[dict] = field(default_factory=list)

    def format_report(self) -> str:
        """Render the sweep as plain-text tables (grid data only).

        The tables are built from whole columns: the cells' float fields are
        read into float64 arrays once, and the speedup, energy-saving and
        per-point average columns are computed on those arrays.
        """
        metric = "RP speedup" if self.spec.kind == "routing" else "end-to-end speedup"
        axis_headers = list(self.spec.axis_keys)
        # Axis values render in their grid-label form (312.5, 625), so one
        # axis column stays uniform when its values mix int and float.
        labels = [
            [_format_value(point.assignment[key]) for point in self.points]
            for key in axis_headers
        ]
        counts = [len(point.cells) for point in self.points]
        cells = list(chain.from_iterable(point.cells for point in self.points))
        seconds, joules, baseline_seconds, baseline_joules = (
            np.fromiter(map(itemgetter(index), cells), float, len(cells))
            for index in range(2, 6)
        )
        speedups = speedup_of(baseline_seconds, seconds)
        # Each point's axis labels repeat on every one of its cells.
        table = format_columns(
            axis_headers + ["Benchmark", "Design", "Speedup", "Energy saving"],
            [list(chain.from_iterable(map(repeat, column, counts))) for column in labels]
            + [
                list(map(itemgetter(0), cells)),
                list(map(itemgetter(1), cells)),
                speedups.tolist(),
                energy_saving_of(joules, baseline_joules).tolist(),
            ],
            title=f"Sweep {self.spec.name!r} -- {metric} over the GPU baseline",
        )
        averages = _average_speedups(cells, speedups, counts, self.spec.designs)
        summary = format_columns(
            axis_headers + [f"avg {design}" for design in self.spec.designs],
            labels + [averages[design] for design in self.spec.designs],
            title=f"Per-point average {metric} ({_benchmark_count(self.points)} benchmarks)",
        )
        lines = [
            f"Base scenario: {self.base.describe()}",
            f"Grid: {self.spec.describe()}",
            "",
            table,
            "",
            summary,
        ]
        if self.failed_shards:
            lines.extend(["", self._format_failed_shards()])
        return "\n".join(lines)

    def _format_failed_shards(self) -> str:
        """The partial-results section (only rendered when shards failed)."""
        count = len(self.failed_shards)
        section = [
            f"PARTIAL RESULTS: {count} shard(s) failed permanently and were "
            f"excluded from the tables above:"
        ]
        for info in self.failed_shards:
            section.append(
                f"  shard {info.get('shard')} "
                f"(grid points {info.get('start')}:{info.get('stop')}): "
                f"{info.get('error')} after {info.get('attempts')} attempt(s)"
            )
        section.append(
            "Fix the cause and re-run with --resume to fill in the missing "
            "points (completed shards are never re-executed)."
        )
        return "\n".join(section)

    def to_dict(self) -> dict:
        """Structured (JSON-ready) grid output -- stable across warm re-runs."""
        payload = {
            "spec": self.spec.to_dict(),
            "base_scenario": self.base.to_dict(),
            "points": [
                {
                    "assignment": dict(point.assignment),
                    "scenario": point.scenario_name,
                    "cells": [cell.to_dict() for cell in point.cells],
                }
                for point in self.points
            ],
        }
        if self.failed_shards:
            # Only present for partial sweeps: complete sweeps keep the
            # exact pre-fault dict shape (byte-identical golden artifacts).
            payload["failed_shards"] = [dict(info) for info in self.failed_shards]
        return payload

    def describe_stats(self) -> str:
        """One-line execution summary (cache hits prove warm runs are free)."""
        cells = sum(len(point.cells) for point in self.points)
        failed = (
            f", {len(self.failed_shards)} failed shard(s)"
            if self.failed_shards
            else ""
        )
        return (
            f"sweep {self.spec.name!r}: {len(self.points)} points, {cells} cells, "
            f"{self.simulations_executed} simulations executed, "
            f"disk cache: {self.cache.hits} hits, {self.cache.misses} misses, "
            f"{self.elapsed_seconds:.2f}s ({self.executor_used}, jobs={self.jobs})"
            f"{failed}"
        )


def _benchmark_count(points: Sequence[SweepPoint]) -> str:
    """How many benchmarks each point averages: one count, or ``low-high``.

    A ``benchmarks`` axis can give points different selections, so the
    per-point average table's title names the range when they differ.
    """
    counts = [len(set(map(itemgetter(0), point.cells))) for point in points]
    low, high = min(counts, default=0), max(counts, default=0)
    return str(low) if low == high else f"{low}-{high}"


def _average_speedups(
    cells: Sequence[SweepCell],
    speedups: np.ndarray,
    counts: Sequence[int],
    designs: Sequence[str],
) -> Dict[str, List[float]]:
    """Each design's mean speedup at every point, over that point's cells.

    ``cells`` are the points' cells in order (``counts[p]`` of point ``p``)
    and ``speedups`` their speedups.  A point's cells of one design are
    summed left to right from ``0.0`` in cell order on every Python version,
    then divided by their count.  That is what ``sum()`` does through Python
    3.11; from 3.12 ``sum()`` compensates its float additions, so there an
    average can differ in its last bits from ``sum(speedups) / n``.  A point
    without a cell of some design raises ``KeyError``.
    """
    distinct = list(dict.fromkeys(designs))
    code = {design: index for index, design in enumerate(distinct)}
    codes = np.fromiter(map(code.get, map(itemgetter(1), cells), repeat(-1)), np.intp, len(cells))
    used = codes >= 0
    slots = codes[used] * len(counts) + np.repeat(np.arange(len(counts)), counts)[used]
    totals = np.zeros(len(distinct) * len(counts))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(totals, slots, speedups[used])  # in index order: cell order
    members = np.bincount(slots, minlength=totals.size).reshape(len(distinct), -1)
    for design, row in zip(distinct, members):
        if not row.all():
            raise KeyError(design)
    averages = totals.reshape(len(distinct), -1) / members
    return {design: row.tolist() for design, row in zip(distinct, averages)}


class SweepRunner:
    """Expand, evaluate and assemble one sweep over a base scenario.

    Args:
        spec: the sweep (a :class:`~repro.sweep.spec.SweepSpec`, a preset
            name, or a JSON spec file path).
        base: base scenario every grid point overrides (paper default when
            ``None``).
        jobs: worker processes for point-by-point grids (``None`` picks a
            bounded CPU count; ``1`` runs every point in the calling
            process).  Vectorized grids ignore it.
        cache_dir: persistent cache root
            (:func:`~repro.engine.diskcache.default_cache_dir` when ``None``).
        use_cache: disable the persistent cache entirely with ``False``.
        backend: evaluation backend (:data:`BACKENDS`); ``"vectorized"``
            raises the blocker reason here when the sweep is ineligible.
        verify: vectorized equivalence-gate mode
            (:data:`~repro.sweep.vectorized.VERIFY_MODES`; ignored by the
            scalar path).
    """

    def __init__(
        self,
        spec: Union[SweepSpec, str],
        base: Optional[Scenario] = None,
        *,
        jobs: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
        backend: str = "auto",
        verify: str = "sample",
    ) -> None:
        self.spec = spec if isinstance(spec, SweepSpec) else SweepSpec.load(str(spec))
        self.base = base if base is not None else Scenario.default()
        self.jobs = default_worker_count() if jobs is None else max(1, int(jobs))
        backend = str(backend).strip().lower()
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {list(BACKENDS)}")
        self.backend = backend
        verify = str(verify).strip().lower()
        if verify not in VERIFY_MODES:
            raise ValueError(
                f"unknown verify mode {verify!r}; choose from {list(VERIFY_MODES)}"
            )
        self.verify = verify
        self.use_cache = bool(use_cache)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        # Resolve (and canonicalize) the benchmark restriction up front so a
        # typo fails before any worker is spawned.
        self.benchmarks: Optional[List[str]] = (
            None
            if self.spec.benchmarks is None
            else self.base.catalog.resolve(self.spec.benchmarks)
        )
        blocker = None if backend == "scalar" else vectorization_blocker(self.spec)
        if backend == "vectorized" and blocker is not None:
            # A config error would fail every point (or queue shard)
            # identically; fail before any of them runs.
            raise ValueError(f"sweep cannot be vectorized: {blocker}")
        #: Whether points evaluate through the batched evaluator.
        self.vectorized = backend != "scalar" and blocker is None

    # ------------------------------------------------------------------ running

    def run(self) -> SweepResult:
        """Evaluate the whole grid and assemble cells + execution statistics."""
        start = time.perf_counter()
        assignments = self.spec.assignments()
        outcomes, executor = self.evaluate(assignments)
        result = self.assemble(
            assignments,
            [outcome["cells"] for outcome in outcomes],
            outcomes,
            executor_used=executor,
            jobs=min(self.jobs, len(assignments)) if executor == "process" else 1,
        )
        result.elapsed_seconds = time.perf_counter() - start
        return result

    def evaluate(self, assignments: List[Dict[str, object]]) -> Tuple[List[dict], str]:
        """Evaluate grid points (the whole grid or any slice of it), in order.

        Returns one outcome per assignment -- ``{"cells": [SweepCell, ...],
        "simulations", "disk_hits", "disk_misses"}`` -- and the executor that
        ran them: ``"vectorized"``, ``"process"`` or ``"serial"``.
        """
        if self.vectorized:
            outcomes = evaluate_grid(
                self.spec,
                self.base,
                self.benchmarks,
                assignments=assignments,
                cache=SimulationCache(self.cache_dir) if self.use_cache else None,
                verify=self.verify,
            )
            return outcomes, "vectorized"
        scenarios = [self.spec.scenario_for(self.base, assignment) for assignment in assignments]
        workers = min(self.jobs, len(scenarios))
        chunks = [scenarios]
        if workers > 1:
            size = -(-len(scenarios) // (workers * CHUNKS_PER_WORKER))
            chunks = [scenarios[start : start + size] for start in range(0, len(scenarios), size)]
        results, mode = map_in_processes(self._evaluate_points, chunks, workers)
        return [outcome for chunk in results for outcome in chunk], mode

    def assemble(
        self,
        assignments: List[Dict[str, object]],
        cells: Sequence[Optional[List[SweepCell]]],
        counted: Iterable[Mapping[str, int]],
        *,
        executor_used: str,
        jobs: int,
        failed_shards: Sequence[dict] = (),
    ) -> SweepResult:
        """The :class:`SweepResult` of the grid ``assignments``.

        ``cells`` holds each grid point's cells (``None`` for a point a
        failed queue shard left out).  The statistics sum ``simulations``,
        ``disk_hits`` and ``disk_misses`` over ``counted``: this run's
        outcomes, or its queue workers' reports.  Points are named from the
        axis labels -- what :meth:`SweepSpec.scenario_for` names each
        variant -- so no per-point ``Scenario`` is built; on 100k-point grids
        the scenario objects alone would dwarf the model arithmetic.
        """
        # One formatted string per distinct axis value, not per grid point.
        formatted = {
            axis.key: {value: _format_value(value) for value in axis.values}
            for axis in self.spec.axes
        }
        prefix = f"{self.base.name}+"
        result = SweepResult(
            spec=self.spec,
            base=self.base,
            points=[],
            executor_used=executor_used,
            jobs=jobs,
            failed_shards=list(failed_shards),
        )
        for index, (assignment, point) in enumerate(zip(assignments, cells)):
            if point is None:
                continue
            label = ",".join(
                f"{key}={formatted[key][value]}" for key, value in assignment.items()
            )
            result.points.append(SweepPoint(index, assignment, prefix + label, point))
        for item in counted:
            result.simulations_executed += item["simulations"]
            result.cache.hits += item["disk_hits"]
            result.cache.misses += item["disk_misses"]
        return result

    # ---------------------------------------------------------- point by point

    def _evaluate_points(self, scenarios: List[Scenario]) -> List[dict]:
        """Evaluate grid points one by one, in order (a pool task when ``jobs > 1``).

        The points share one cache instance, published once at the end (also
        when a point fails): the points of a frequency plane share one shard,
        which a publish per point would rewrite once per point.
        """
        cache = SimulationCache(self.cache_dir) if self.use_cache else None
        try:
            return [self._evaluate_point(scenario, cache) for scenario in scenarios]
        finally:
            if cache is not None:
                cache.flush()

    def _evaluate_point(self, scenario: Scenario, cache: Optional[SimulationCache]) -> dict:
        """Evaluate one grid point against a shared (unflushed) cache."""
        fault_point("sweep.point.execute")
        hits, misses = (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
        context = SimulationContext(scenario=scenario, disk_cache=cache)
        return {
            "cells": point_cells(context, self.spec.kind, self.spec.designs, self.benchmarks),
            "simulations": context.simulations_executed,
            "disk_hits": context.disk_stats.hits - hits,
            "disk_misses": context.disk_stats.misses - misses,
        }


#: Chunks of grid points per worker process: enough to balance the load,
#: few enough that each chunk's cache publish covers many points.
CHUNKS_PER_WORKER = 4


def map_in_processes(function: Callable, items: Sequence, workers: int) -> Tuple[list, str]:
    """``function`` over ``items`` in order, over ``workers`` processes when
    there are more than one; returns ``(results, mode)``.

    ``mode`` is ``"process"``, or ``"serial"`` when the items ran in this
    process: with one worker, or where the platform cannot provide a process
    pool (sandboxes without semaphores, missing ``/dev/shm``).  Results are
    identical either way, only wall-clock differs.  Scalar sweep chunks
    (``jobs``) and work-queue workers (``workers``) both run through here.
    """
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(function, items)), "process"
        except (OSError, NotImplementedError):
            pass
    return [function(item) for item in items], "serial"


def point_cells(
    context: SimulationContext,
    kind: str,
    designs: Sequence[object],
    benchmarks: Optional[Sequence[str]],
) -> List[SweepCell]:
    """One grid point's cells: each benchmark x design against the GPU baseline.

    ``benchmarks`` are canonical names (``None`` = the context's selection);
    every path that evaluates a point cell by cell runs this loop.
    """
    simulate = context.routing if kind == "routing" else context.end_to_end
    cells: List[SweepCell] = []
    for name in context.select_benchmarks(benchmarks):  # type: ignore[arg-type]
        baseline = simulate(name, DesignPoint.BASELINE_GPU)
        for design in designs:
            result = simulate(name, design)
            cells.append(
                SweepCell(
                    name,
                    str(design),
                    result.time_seconds,
                    result.energy_joules,
                    baseline.time_seconds,
                    baseline.energy_joules,
                )
            )
    return cells
