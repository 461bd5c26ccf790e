"""Exact multi-objective Pareto-frontier extraction over sweep data.

The frontier machinery is deliberately decoupled from *how* the points were
produced: :func:`pareto_indices` works on plain value rows,
:func:`sweep_frontier` accepts a live :class:`~repro.sweep.runner.SweepResult`
**or** its ``to_dict()`` form (so a frontier can be recomputed offline from a
``repro sweep --format json`` dump), and :func:`cache_frontier` reads the
persistent :class:`~repro.engine.diskcache.SimulationCache` directly -- a
frontier over any previously swept grid costs **zero** new simulations.

Dominance is exact (pairwise, ``O(n^2)``), ties keep every co-optimal point,
and output order always follows input order, so repeated extractions are
byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.optimize.objective import Objective, ObjectiveSpec, extract_metric

#: Metric names aggregated per design for every sweep point (benchmark means).
_CELL_METRICS = ("speedup", "energy_saving", "time_seconds", "energy_joules")


def dominates(
    a: Sequence[float], b: Sequence[float], senses: Sequence[str]
) -> bool:
    """Whether value row ``a`` Pareto-dominates row ``b``.

    ``a`` dominates ``b`` when it is at least as good in every objective and
    strictly better in at least one (``senses`` gives the direction per
    column).
    """
    if len(a) != len(b) or len(a) != len(senses):
        raise ValueError(
            f"value rows and senses must align, got {len(a)}/{len(b)} values "
            f"and {len(senses)} senses"
        )
    strict = False
    for va, vb, sense in zip(a, b, senses):
        sa = va if sense == "maximize" else -va
        sb = vb if sense == "maximize" else -vb
        if sa < sb:
            return False
        if sa > sb:
            strict = True
    return strict


def pareto_indices(
    rows: Sequence[Sequence[float]], senses: Sequence[str]
) -> List[int]:
    """Indices of the non-dominated rows, in input order.

    Exact pairwise dominance; rows with identical values are all kept (they
    are co-optimal, and dropping one arbitrarily would make the frontier
    depend on input order).
    """
    frontier = []
    for i, row in enumerate(rows):
        if not any(
            dominates(other, row, senses) for j, other in enumerate(rows) if j != i
        ):
            frontier.append(i)
    return frontier


# ------------------------------------------------------- sweep-point metrics


def point_metrics(
    point: Union["SweepPoint", Mapping[str, object]],
) -> Dict[str, object]:
    """Nested metric mapping of one sweep point, addressable by dotted paths.

    Accepts a live :class:`~repro.sweep.runner.SweepPoint` or its
    ``to_dict()`` entry.  Per design, every :data:`cell metric
    <_CELL_METRICS>` is averaged across the point's benchmarks
    (``pim-capsnet.speedup``); the first design's aggregates are mirrored at
    the top level (plain ``speedup``) so single-design sweeps -- the common
    case -- read naturally.
    """
    cells = point["cells"] if isinstance(point, Mapping) else point.cells
    sums: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}
    for cell in cells:
        if isinstance(cell, Mapping):
            design = str(cell["design"])
            values = {metric: float(cell[metric]) for metric in _CELL_METRICS}  # type: ignore[arg-type]
        else:
            design = cell.design
            values = {metric: float(getattr(cell, metric)) for metric in _CELL_METRICS}
        bucket = sums.setdefault(design, {metric: 0.0 for metric in _CELL_METRICS})
        for metric, value in values.items():
            bucket[metric] += value
        counts[design] = counts.get(design, 0) + 1
    metrics: Dict[str, object] = {}
    for design, bucket in sums.items():
        metrics[design] = {
            metric: total / counts[design] for metric, total in bucket.items()
        }
    if sums:
        first = next(iter(sums))
        metrics.update(metrics[first])  # type: ignore[arg-type]
    return metrics


def _frontier_over_points(
    entries: List[Dict[str, object]],
    objectives: Tuple[Objective, ...],
) -> List[int]:
    rows = [
        [entry["values"][obj.metric] for obj in objectives]  # type: ignore[index]
        for entry in entries
    ]
    senses = [obj.sense for obj in objectives]
    return pareto_indices(rows, senses)


def sweep_frontier(
    result: Union["SweepResult", Mapping[str, object]],
    objective: object,
) -> Dict[str, object]:
    """The Pareto frontier of a completed sweep.

    Args:
        result: a :class:`~repro.sweep.runner.SweepResult` or its
            ``to_dict()`` form (e.g. loaded back from a
            ``repro sweep --format json`` dump).
        objective: anything :meth:`ObjectiveSpec.coerce` accepts; metric
            paths resolve against :func:`point_metrics` (``speedup``,
            ``energy_saving``, ``<design>.time_seconds``, ...).

    Returns:
        ``{"objectives", "points", "frontier"}`` where ``points`` carries one
        ``{"index", "assignment", "scenario", "values"}`` entry per grid
        point and ``frontier`` lists the non-dominated point indices.
    """
    spec = ObjectiveSpec.coerce(objective)
    raw_points = (
        result["points"] if isinstance(result, Mapping) else result.points
    )
    entries: List[Dict[str, object]] = []
    for index, point in enumerate(raw_points):
        metrics = point_metrics(point)  # type: ignore[arg-type]
        if isinstance(point, Mapping):
            assignment = dict(point["assignment"])  # type: ignore[arg-type]
            scenario = str(point["scenario"])
        else:
            assignment = dict(point.assignment)
            scenario = point.scenario_name
        entries.append(
            {
                "index": index,
                "assignment": assignment,
                "scenario": scenario,
                "values": {
                    path: extract_metric(metrics, path)
                    for path in spec.metric_paths()
                },
            }
        )
    return {
        "objectives": [obj.describe() for obj in spec.objectives],
        "points": entries,
        "frontier": _frontier_over_points(entries, spec.objectives),
    }


# ------------------------------------------------------- cache-only frontier


def cache_frontier(
    spec: Union["SweepSpec", str],
    objective: object,
    base: Optional["Scenario"] = None,
    *,
    cache: Optional["SimulationCache"] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The Pareto frontier of a grid, read purely from the persistent cache.

    Every ``(point, benchmark, design)`` cell is looked up with one bulk
    :meth:`~repro.engine.diskcache.SimulationCache.get_many`; points with any
    missing cell are skipped (counted in ``"uncovered"``) rather than
    simulated, so this never executes a simulation -- it answers "what does
    everything I have already swept say?".

    Args:
        spec: the grid (a :class:`~repro.sweep.spec.SweepSpec`, preset name
            or spec-file path).
        objective: anything :meth:`ObjectiveSpec.coerce` accepts.
        base: base scenario (paper default when ``None``).
        cache: an open cache instance; built from ``cache_dir`` when ``None``.
        cache_dir: persistent cache root (default cache dir when ``None``).
        benchmarks: restrict cells to these workloads (``None`` = the spec's
            own restriction, then the base scenario's selection chain).
    """
    from repro.api.scenario import Scenario
    from repro.core.accelerator import DesignPoint
    from repro.engine.diskcache import SimulationCache
    from repro.sweep.runner import SweepCell
    from repro.sweep.spec import SweepSpec

    spec = spec if isinstance(spec, SweepSpec) else SweepSpec.load(str(spec))
    base = base if base is not None else Scenario.default()
    objective_spec = ObjectiveSpec.coerce(objective)
    if cache is None:
        cache = SimulationCache(cache_dir)
    catalog = base.catalog
    if benchmarks is None:
        benchmarks = spec.benchmarks
    if benchmarks is not None:
        names = catalog.resolve(benchmarks)
    else:
        selection = base.benchmark_selection()
        names = selection if selection else catalog.names()
    configs = {name: catalog.benchmark(name) for name in names}
    kind = "routing" if spec.kind == "routing" else "end_to_end"
    designs: List[object] = [DesignPoint.BASELINE_GPU]
    designs.extend(spec.designs)

    assignments = spec.assignments()
    variants = [spec.scenario_for(base, assignment) for assignment in assignments]
    requests = [
        (variant, configs[name], kind, design)
        for variant in variants
        for name in names
        for design in designs
    ]
    found = cache.get_many(requests)

    entries: List[Dict[str, object]] = []
    uncovered = 0
    cursor = 0
    per_point = len(names) * len(designs)
    for index, (assignment, variant) in enumerate(zip(assignments, variants)):
        results = found[cursor : cursor + per_point]
        cursor += per_point
        if any(result is None for result in results):
            uncovered += 1
            continue
        cells: List[SweepCell] = []
        slot = 0
        for name in names:
            baseline = results[slot]
            slot += 1
            for design in spec.designs:
                result = results[slot]
                slot += 1
                cells.append(
                    SweepCell(
                        name,
                        str(design),
                        float(result.time_seconds),  # type: ignore[union-attr]
                        float(result.energy_joules),  # type: ignore[union-attr]
                        float(baseline.time_seconds),  # type: ignore[union-attr]
                        float(baseline.energy_joules),  # type: ignore[union-attr]
                    )
                )
        metrics = point_metrics({"cells": cells})
        entries.append(
            {
                "index": index,
                "assignment": dict(assignment),
                "scenario": variant.name,
                "values": {
                    path: extract_metric(metrics, path)
                    for path in objective_spec.metric_paths()
                },
            }
        )
    # Frontier entries are reported by *grid* index (stable even when some
    # points are uncovered and skipped).
    frontier = [
        int(entries[position]["index"])  # type: ignore[call-overload]
        for position in _frontier_over_points(entries, objective_spec.objectives)
    ]
    return {
        "objectives": [obj.describe() for obj in objective_spec.objectives],
        "points": entries,
        "frontier": frontier,
        "grid_size": spec.grid_size(),
        "covered": len(entries),
        "uncovered": uncovered,
        "simulations_executed": 0,
    }
