"""Sweep execution: grid expansion, parallel point runs, persistent caching.

:class:`SweepRunner` turns a :class:`~repro.sweep.spec.SweepSpec` plus a base
:class:`~repro.api.scenario.Scenario` into results:

* the grid is expanded to one variant scenario per point
  (:meth:`SweepSpec.scenario_for`),
* eligible grids evaluate whole planes at once through
  :mod:`repro.sweep.vectorized`; every other grid evaluates point by point,
  in the calling process with ``jobs=1`` or over a ``ProcessPoolExecutor``
  of ``jobs`` workers -- scenarios cross the process boundary as plain JSON
  dictionaries and workers send back plain metric dictionaries, so the
  process path needs no custom pickling.  The simulations are pure-Python
  analytical models (GIL-bound), which is why the points fan out over
  processes and never threads.  Where the platform cannot provide a process
  pool the points run in-process instead.  (The process path relies on the
  ``fork`` start method to inherit custom strategy/experiment registrations;
  on spawn-only platforms use ``jobs=1`` for custom designs.)
* every simulation is memoized in the persistent
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
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Union

from repro.analysis.tables import format_columns
from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint
from repro.engine.context import CacheStats, SimulationContext
from repro.engine.diskcache import CACHE_SCHEMA_VERSION, SimulationCache
from repro.faults import point as fault_point
from repro.sweep.spec import SweepSpec, _format_value
from repro.sweep.vectorized import VERIFY_MODES, evaluate_grid, vectorization_blocker

#: Evaluation backends: ``"auto"`` batches whole grid planes through
#: :mod:`repro.sweep.vectorized` whenever the sweep is eligible,
#: ``"vectorized"`` demands the batched path (erroring with the blocker
#: reason when ineligible) and ``"scalar"`` always evaluates point by point.
BACKENDS = ("auto", "vectorized", "scalar")

#: Upper bound on the default worker-process count of scalar sweeps.
MAX_DEFAULT_WORKERS = 8


def default_worker_count() -> int:
    """Default worker-process count of scalar sweeps (bounded CPU count)."""
    return max(1, min(MAX_DEFAULT_WORKERS, os.cpu_count() or 1))


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
        """Speedup of the design over the GPU baseline."""
        if self.time_seconds <= 0:
            return float("inf")
        return self.baseline_time_seconds / self.time_seconds

    @property
    def energy_saving(self) -> float:
        """Fractional energy saving of the design over the GPU baseline."""
        if self.baseline_energy_joules <= 0:
            return 0.0
        return 1.0 - self.energy_joules / self.baseline_energy_joules

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

    def cell(self, benchmark: str, design: str) -> SweepCell:
        """Look up one cell of this point."""
        for cell in self.cells:
            if cell.benchmark == benchmark and cell.design == design:
                return cell
        raise KeyError((benchmark, design))

    def average_speedup(self, design: Optional[str] = None) -> float:
        """Mean speedup across this point's benchmarks (one design)."""
        design = design if design is not None else self.cells[0].design
        speedups = [cell.speedup for cell in self.cells if cell.design == design]
        if not speedups:
            raise KeyError(design)
        return sum(speedups) / len(speedups)


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

    @property
    def benchmarks(self) -> List[str]:
        """Benchmarks evaluated at every point (grid order of the first)."""
        if not self.points:
            return []
        seen: Dict[str, None] = {}
        for cell in self.points[0].cells:
            seen.setdefault(cell.benchmark, None)
        return list(seen)

    def format_report(self) -> str:
        """Render the sweep as plain-text tables (grid data only)."""
        metric = "RP speedup" if self.spec.kind == "routing" else "end-to-end speedup"
        axis_headers = list(self.spec.axis_keys)
        labels = [
            [_axis_cell(point.assignment[key]) for key in axis_headers]
            for point in self.points
        ]
        cells = [cell for point in self.points for cell in point.cells]
        # One column per axis, then per cell field: each point's axis labels
        # repeat on every one of its cells.
        axis_columns = [
            [
                label[axis]
                for label, point in zip(labels, self.points)
                for _ in point.cells
            ]
            for axis in range(len(axis_headers))
        ]
        table = format_columns(
            axis_headers + ["Benchmark", "Design", "Speedup", "Energy saving"],
            axis_columns
            + [
                [cell.benchmark for cell in cells],
                [cell.design for cell in cells],
                [cell.speedup for cell in cells],
                [cell.energy_saving for cell in cells],
            ],
            title=f"Sweep {self.spec.name!r} -- {metric} over the GPU baseline",
        )
        summary = format_columns(
            axis_headers + [f"avg {design}" for design in self.spec.designs],
            [[label[axis] for label in labels] for axis in range(len(axis_headers))]
            + [
                [point.average_speedup(design) for point in self.points]
                for design in self.spec.designs
            ],
            title=f"Per-point average {metric} ({len(self.benchmarks)} benchmarks)",
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


class SweepRunner:
    """Expand and execute one sweep over a base scenario.

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
        cache_version: entry schema version (tests exercise invalidation).
        backend: evaluation backend (:data:`BACKENDS`).
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
        cache_version: int = CACHE_SCHEMA_VERSION,
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
        self.cache_version = int(cache_version)
        # Resolve (and canonicalize) the benchmark restriction up front so a
        # typo fails before any worker is spawned.
        self.benchmarks: Optional[List[str]] = (
            None
            if self.spec.benchmarks is None
            else self.base.catalog.resolve(self.spec.benchmarks)
        )

    # ------------------------------------------------------------------ running

    def run(self) -> SweepResult:
        """Execute the grid and aggregate cells + execution statistics."""
        start = time.perf_counter()
        assignments = self.spec.assignments()
        if self._use_vectorized():
            result = self._run_vectorized(assignments)
            result.elapsed_seconds = time.perf_counter() - start
            return result
        variants = [
            self.spec.scenario_for(self.base, assignment) for assignment in assignments
        ]
        points = [
            SweepPoint(index=index, assignment=assignment, scenario_name=variant.name)
            for index, (assignment, variant) in enumerate(zip(assignments, variants))
        ]
        payloads = [
            {
                "scenario": variant.to_dict(),
                "benchmarks": self.benchmarks,
                "designs": list(self.spec.designs),
                "kind": self.spec.kind,
                "cache_dir": self.cache_dir if self.use_cache else _NO_CACHE,
                "cache_version": self.cache_version,
            }
            for variant in variants
        ]
        outcomes, mode = _execute(payloads, self.jobs)
        result = SweepResult(
            spec=self.spec,
            base=self.base,
            points=points,
            executor_used=mode,
            jobs=min(self.jobs, len(payloads)) if mode == "process" else 1,
        )
        for point, outcome in zip(points, outcomes):
            point.cells = [SweepCell(**cell) for cell in outcome["cells"]]
            result.simulations_executed += outcome["simulations"]
            result.cache.hits += outcome["disk_hits"]
            result.cache.misses += outcome["disk_misses"]
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # ------------------------------------------------------------- vectorized

    def _use_vectorized(self) -> bool:
        """Whether this run takes the batched plane evaluator.

        ``backend="vectorized"`` forces it (:func:`evaluate_grid` raises the
        blocker reason when the sweep is ineligible), ``"scalar"`` forbids
        it and ``"auto"`` takes it for eligible sweeps.
        """
        if self.backend == "vectorized":
            return True
        if self.backend == "scalar":
            return False
        return vectorization_blocker(self.spec, self.base) is None

    def _run_vectorized(self, assignments: List[Dict[str, object]]) -> SweepResult:
        """Evaluate the whole grid through :func:`evaluate_grid`.

        Point names are composed directly from the assignment labels --
        provably what :meth:`SweepSpec.scenario_for` names each variant --
        so no per-point ``Scenario`` is ever built; on 100k-point grids the
        scenario objects alone would dwarf the model arithmetic.
        """
        # One formatted string per distinct axis value, not per grid point.
        formatted = {
            axis.key: {value: _format_value(value) for value in axis.values}
            for axis in self.spec.axes
        }
        prefix = f"{self.base.name}+"
        points = []
        for index, assignment in enumerate(assignments):
            label = ",".join(
                f"{key}={formatted[key][value]}" for key, value in assignment.items()
            )
            points.append(
                SweepPoint(
                    index=index,
                    assignment=assignment,
                    scenario_name=prefix + label,
                )
            )
        cache = (
            SimulationCache(self.cache_dir, version=self.cache_version)
            if self.use_cache
            else None
        )
        outcomes = evaluate_grid(
            self.spec,
            self.base,
            self.benchmarks,
            assignments=assignments,
            cache=cache,
            verify=self.verify,
        )
        result = SweepResult(
            spec=self.spec,
            base=self.base,
            points=points,
            executor_used="vectorized",
        )
        for point, outcome in zip(points, outcomes):
            point.cells = [SweepCell(**cell) for cell in outcome["cells"]]
            result.simulations_executed += outcome["simulations"]
            result.cache.hits += outcome["disk_hits"]
            result.cache.misses += outcome["disk_misses"]
        return result


def run_sweep(
    spec: Union[SweepSpec, str],
    base: Optional[Scenario] = None,
    **kwargs,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(spec, base, **kwargs).run()


# ------------------------------------------------------------- point execution

#: Sentinel distinguishing "cache disabled" from "default cache directory".
_NO_CACHE = "__no_cache__"


#: Chunks of grid points per worker process: enough to balance the load,
#: few enough that each chunk's cache publish covers many points.
CHUNKS_PER_WORKER = 4


def _execute(payloads: List[dict], jobs: int):
    """Run every payload, over ``jobs`` worker processes when there are more
    than one of each, preserving order; returns ``(outcomes, mode)``.

    The pool runs contiguous chunks of points, a few per worker.  Where the
    platform cannot provide a process pool (sandboxes without semaphores,
    missing ``/dev/shm``) the points run in this process; results are
    identical either way, only wall-clock differs.
    """
    workers = min(jobs, len(payloads))
    if workers > 1:
        size = -(-len(payloads) // (workers * CHUNKS_PER_WORKER))
        chunks = [payloads[start : start + size] for start in range(0, len(payloads), size)]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = [
                    outcome
                    for chunk in pool.map(_execute_points, chunks)
                    for outcome in chunk
                ]
            return outcomes, "process"
        except (OSError, NotImplementedError):
            pass
    return _execute_points(payloads), "serial"


def _execute_points(payloads: List[Mapping[str, object]]) -> List[dict]:
    """Execute grid points of one sweep in order; plain dicts in and out (picklable).

    The points share one cache instance, published once at the end (also
    when a point fails): the points of a frequency plane share one shard,
    which a publish per point would rewrite once per point.
    """
    cache_dir = payloads[0]["cache_dir"] if payloads else _NO_CACHE
    cache = (
        None
        if cache_dir == _NO_CACHE
        else SimulationCache(cache_dir, version=int(payloads[0]["cache_version"]))  # type: ignore[arg-type]
    )
    try:
        return [_execute_point(payload, cache) for payload in payloads]
    finally:
        if cache is not None:
            cache.flush()


def _execute_point(
    payload: Mapping[str, object], cache: Optional[SimulationCache]
) -> dict:
    """Execute one grid point against a shared (unflushed) cache."""
    fault_point("sweep.point.execute")
    scenario = Scenario.from_dict(payload["scenario"])  # type: ignore[arg-type]
    hits, misses = (cache.stats.hits, cache.stats.misses) if cache is not None else (0, 0)
    context = SimulationContext(scenario=scenario, disk_cache=cache)
    cells = point_cells(
        context, payload["kind"], payload["designs"], payload["benchmarks"]  # type: ignore[arg-type]
    )
    return {
        "cells": [cell._asdict() for cell in cells],
        "simulations": context.simulations_executed,
        "disk_hits": context.disk_stats.hits - hits,
        "disk_misses": context.disk_stats.misses - misses,
    }


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


def _axis_cell(value: object) -> str:
    """Axis values render in their compact label form (``312.5``, ``625``).

    Reusing the grid-label formatting keeps one axis column uniform even
    when its values mix int and float spellings.
    """
    return _format_value(value)
