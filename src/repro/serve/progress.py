"""Streaming sweep/optimize execution: one NDJSON event per milestone.

``POST /v1/sweep`` cannot buffer a whole grid before answering -- a sweep
may run for minutes -- so the serve layer executes points one at a time and
streams progress as newline-delimited JSON over a chunked response:

* ``sweep_started``  -- grid shape, axes, designs, point count;
* ``point_started``  -- one per grid point, with its axis assignment;
* ``point_completed`` -- the point's cells (speedup / energy saving per
  benchmark x design), whether it was served entirely from the persistent
  cache (``cache_hit``), and how many simulations it executed;
* ``summary``        -- totals (points, cells, simulations, cache hits) and
  per-design average speedups; always the final event of a successful
  stream.

``POST /v1/optimize`` streams the same way (``optimize_started`` /
``probe_completed`` / ``summary``), but the probe sequence is decided by an
adaptive :class:`~repro.optimize.drivers.OptimizeDriver` rather than a fixed
grid, so :func:`optimize_events` runs the search on a worker thread and
relays its ``on_probe`` callbacks; a closed consumer (disconnected client)
stops the search through its ``should_stop`` hook.

Every point runs over its own
:class:`~repro.engine.context.SimulationContext` sharing the server's
process-wide :class:`~repro.engine.diskcache.SimulationCache`, so streamed
sweeps warm the same cache ``/v1/run`` and the CLI use.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence

from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint
from repro.engine.context import SimulationContext
from repro.serve.errors import BadRequest
from repro.sweep.spec import SweepSpec


def sweep_events(
    spec: SweepSpec,
    base: Scenario,
    *,
    benchmarks: Optional[Sequence[str]] = None,
    disk_cache=None,
) -> Iterator[dict]:
    """Execute one sweep point-by-point, yielding NDJSON-ready event dicts."""
    if benchmarks is None and spec.benchmarks is not None:
        benchmarks = list(spec.benchmarks)
    if benchmarks:
        catalog = base.catalog
        try:
            benchmarks = [catalog.canonical_name(name) for name in benchmarks]
        except KeyError as error:
            raise BadRequest(str(error.args[0]), code="unknown_benchmark") from None
    started = time.perf_counter()
    assignments = spec.assignments()
    yield {
        "event": "sweep_started",
        "sweep": spec.name,
        "kind": spec.kind,
        "axes": spec.axis_keys,
        "designs": [str(design) for design in spec.designs],
        "points": len(assignments),
        "base_scenario": base.name,
    }
    total_cells = 0
    total_simulations = 0
    points_from_cache = 0
    speedup_sums: Dict[str, float] = {}
    speedup_counts: Dict[str, int] = {}
    for index, assignment in enumerate(assignments):
        variant = spec.scenario_for(base, assignment)
        yield {
            "event": "point_started",
            "index": index,
            "assignment": dict(assignment),
            "scenario": variant.name,
        }
        point_started = time.perf_counter()
        context = SimulationContext(scenario=variant, disk_cache=disk_cache)
        cells = _point_cells(context, spec.kind, spec.designs, benchmarks)
        simulations = context.simulations_executed
        total_cells += len(cells)
        total_simulations += simulations
        cache_hit = simulations == 0
        if cache_hit:
            points_from_cache += 1
        for cell in cells:
            speedup_sums[cell["design"]] = (
                speedup_sums.get(cell["design"], 0.0) + cell["speedup"]
            )
            speedup_counts[cell["design"]] = speedup_counts.get(cell["design"], 0) + 1
        yield {
            "event": "point_completed",
            "index": index,
            "assignment": dict(assignment),
            "scenario": variant.name,
            "cache_hit": cache_hit,
            "simulations": simulations,
            "elapsed_seconds": time.perf_counter() - point_started,
            "cells": cells,
        }
    if disk_cache is not None:
        disk_cache.flush()
    yield {
        "event": "summary",
        "sweep": spec.name,
        "points": len(assignments),
        "cells": total_cells,
        "simulations": total_simulations,
        "points_from_cache": points_from_cache,
        "average_speedup": {
            design: speedup_sums[design] / speedup_counts[design]
            for design in speedup_sums
        },
        "elapsed_seconds": time.perf_counter() - started,
    }


def optimize_events(
    objective: object,
    spec: SweepSpec,
    base: Scenario,
    *,
    constraints: Optional[Sequence[object]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    budget: Optional[int] = None,
    driver: str = "auto",
    refine: int = 1,
    disk_cache=None,
) -> Iterator[dict]:
    """Run one optimization, yielding NDJSON-ready probe events.

    The search runs on a worker thread; its ``on_probe`` callbacks are
    relayed through a queue so the consumer sees one ``probe_completed``
    event per evaluated probe as it happens.  The first queue item is
    awaited *before* the first event is yielded, so a bad objective (e.g. a
    mistyped metric path, which fails on the first probe) surfaces as a
    structured :class:`BadRequest` while headers can still say 4xx.  Closing
    the generator (client disconnect) flips the driver's ``should_stop``
    flag and the worker abandons the search.
    """
    from repro.optimize.drivers import OptimizeDriver

    try:
        search = OptimizeDriver(
            objective,
            spec,
            base,
            constraints=constraints,
            benchmarks=benchmarks,
            budget=budget,
            driver=driver,
            refine=refine,
            cache=disk_cache,
            use_cache=disk_cache is not None,
        )
    except ValueError as error:
        raise BadRequest(str(error), code="invalid_optimize") from None
    events: "queue.Queue" = queue.Queue()
    stop = threading.Event()
    outcome: Dict[str, object] = {}
    search.on_probe = lambda probe: events.put(("probe", probe))
    search.should_stop = stop.is_set

    def work() -> None:
        try:
            outcome["result"] = search.run()
        # Cross-thread propagation: the error is re-raised on the consumer
        # side after the event queue drains, so nothing is swallowed here.
        except BaseException as error:  # repro: allow(RPR-H001)
            outcome["error"] = error
        finally:
            events.put(("done", None))

    started = time.perf_counter()
    worker = threading.Thread(
        target=work, name="repro-serve-optimize", daemon=True
    )
    worker.start()
    kind, payload = events.get()
    if kind == "done" and outcome.get("error") is not None:
        error = outcome["error"]
        if isinstance(error, ValueError):
            raise BadRequest(str(error), code="invalid_objective") from None
        raise error  # type: ignore[misc]
    try:
        yield {
            "event": "optimize_started",
            "optimize": search.objective.name,
            "objectives": [obj.describe() for obj in search.objective.objectives],
            "constraints": [c.describe() for c in search.objective.constraints],
            "axes": search.space.axis_keys,
            "grid_size": search.space.grid_size(),
            "budget": search.budget,
            "driver": search.driver,
            "base_scenario": base.name,
        }
        while kind == "probe":
            probe = payload
            yield {
                "event": "probe_completed",
                "index": probe.index,
                "assignment": dict(probe.assignment),
                "scenario": probe.scenario_name,
                "values": dict(probe.values),
                "cache_hit": probe.cache_hit,
                "simulations": probe.simulations,
                "elapsed_seconds": probe.elapsed_seconds,
            }
            kind, payload = events.get()
        error = outcome.get("error")
        if error is not None:
            raise error  # type: ignore[misc]  # -> in-band stream error
        result = outcome["result"]
        data = result.to_dict()  # type: ignore[attr-defined]
        yield {
            "event": "summary",
            "optimize": data["objective"]["name"],
            "driver": data["driver"],
            "probes": len(data["probes"]),
            "grid_size": data["grid_size"],
            "simulations": result.simulations_executed,  # type: ignore[attr-defined]
            "probes_from_cache": sum(
                1 for probe in result.probes if probe.cache_hit  # type: ignore[attr-defined]
            ),
            "feasible": data["feasible"],
            "frontier": data["frontier"],
            "best": data["best"],
            "budget_exhausted": data["budget_exhausted"],
            "elapsed_seconds": time.perf_counter() - started,
        }
    finally:
        stop.set()


def _point_cells(
    context: SimulationContext,
    kind: str,
    designs: Sequence[object],
    benchmarks: Optional[Sequence[str]],
) -> List[dict]:
    """One grid point's cells, mirroring the scalar sweep runner's layout."""
    simulate = context.routing if kind == "routing" else context.end_to_end
    cells: List[dict] = []
    for name in context.select_benchmarks(list(benchmarks) if benchmarks else None):
        baseline = simulate(name, DesignPoint.BASELINE_GPU)
        for design in designs:
            result = simulate(name, design)
            speedup = (
                baseline.time_seconds / result.time_seconds
                if result.time_seconds > 0
                else float("inf")
            )
            saving = (
                1.0 - result.energy_joules / baseline.energy_joules
                if baseline.energy_joules > 0
                else 0.0
            )
            cells.append(
                {
                    "benchmark": name,
                    "design": str(design),
                    "time_seconds": result.time_seconds,
                    "energy_joules": result.energy_joules,
                    "baseline_time_seconds": baseline.time_seconds,
                    "baseline_energy_joules": baseline.energy_joules,
                    "speedup": speedup,
                    "energy_saving": saving,
                }
            )
    return cells
