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
from typing import Dict, Iterator

from repro.api.request import OptimizeRequest, RequestError, SweepRequest
from repro.engine.context import SimulationContext
from repro.sweep.runner import point_cells


def sweep_events(request: SweepRequest, *, disk_cache=None) -> Iterator[dict]:
    """Execute one resolved sweep point-by-point, yielding NDJSON-ready events.

    Every point's scenario is built before the first event, so axis values
    that fail (alone or in combination) raise ``invalid_axis`` while the
    response can still be a 400.
    """
    base, spec, benchmarks = request
    started = time.perf_counter()
    assignments = spec.assignments()
    variants = [spec.scenario_for(base, assignment) for assignment in assignments]
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
    for index, (assignment, variant) in enumerate(zip(assignments, variants)):
        yield {
            "event": "point_started",
            "index": index,
            "assignment": dict(assignment),
            "scenario": variant.name,
        }
        point_started = time.perf_counter()
        context = SimulationContext(scenario=variant, disk_cache=disk_cache)
        cells = point_cells(context, spec.kind, spec.designs, benchmarks)
        simulations = context.simulations_executed
        total_cells += len(cells)
        total_simulations += simulations
        cache_hit = simulations == 0
        if cache_hit:
            points_from_cache += 1
        for cell in cells:
            speedup_sums[cell.design] = speedup_sums.get(cell.design, 0.0) + cell.speedup
            speedup_counts[cell.design] = speedup_counts.get(cell.design, 0) + 1
        yield {
            "event": "point_completed",
            "index": index,
            "assignment": dict(assignment),
            "scenario": variant.name,
            "cache_hit": cache_hit,
            "simulations": simulations,
            "elapsed_seconds": time.perf_counter() - point_started,
            "cells": [cell.to_dict() for cell in cells],
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


def optimize_events(request: OptimizeRequest, *, disk_cache=None) -> Iterator[dict]:
    """Run one resolved optimization, yielding NDJSON-ready probe events.

    The search runs on a worker thread; its ``on_probe`` callbacks are
    relayed through a queue so the consumer sees one ``probe_completed``
    event per evaluated probe as it happens.  The first queue item is
    awaited *before* the first event is yielded, so a bad objective (e.g. a
    mistyped metric path, which fails on the first probe) or a probe whose
    scenario fails surfaces as a :class:`RequestError` while headers can
    still say 4xx.  Closing the generator (client disconnect) flips the
    driver's ``should_stop`` flag and the worker abandons the search.
    """
    from repro.optimize.drivers import OptimizeDriver

    base, space, objective, budget, driver, refine = request
    try:
        search = OptimizeDriver(
            objective,
            space,
            base,
            budget=budget,
            driver=driver,
            refine=refine,
            cache=disk_cache,
            use_cache=disk_cache is not None,
        )
    except ValueError as error:
        raise RequestError(str(error), "invalid_optimize") from None
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
        if isinstance(error, ValueError) and not isinstance(error, RequestError):
            raise RequestError(str(error), "invalid_objective") from None
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

