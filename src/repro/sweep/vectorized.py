"""Vectorized (plane-batched) evaluation of sweep grids, bit-exact with the scalar path.

The analytic models behind every design point are closed-form float
arithmetic, and they accept the PE frequency as a float64 array as well as a
Python float: elementwise ``+ - * /`` give the same bits in both forms, and
the few comparisons on the frequency chain go through
:mod:`repro.elementwise`.  Of all swept quantities only
``hmc.pe_frequency_mhz`` is batched this way; the evaluator therefore

1. groups the grid into **planes**: points sharing every non-frequency axis
   value.  Each plane is one frequency array.
2. builds, per ``(plane, benchmark)``, one
   :class:`~repro.core.accelerator.PIMCapsNet` whose HMC frequency is that
   array, reads the distributor's per-frequency execution scores, and picks
   each point's distribution dimension with a keep-first ``argmax`` (what
   ``best_plan``'s ``max`` picks for one frequency), and
3. runs the **registered strategies themselves** on a model per winning
   dimension, with ``force_dimension`` set, and scatters their array
   results into per-point times, energies and (lazily) result objects.

There is one copy of the model: a strategy patched or fixed is patched or
fixed for both backends.  IEEE-754 arithmetic is deterministic, so every
cell equals the scalar result **exactly** -- the same policy as the training
kernels' bit-exactness gate.  An invalid frequency anywhere in a plane fails
the model's own range check, exactly as the scalar path fails on it.

Two guard rails keep this honest:

* :func:`vectorization_blocker` refuses any sweep the batcher does not fully
  understand (no frequency axis, selection axes, custom strategies, whose
  code may not accept frequency arrays); the runner then falls back to the
  scalar path.
* the **equivalence gate**: unless disabled, freshly computed points are
  re-simulated through the plain scalar path (all of them under
  ``verify="full"``, the first and last fresh frequency of every plane under
  the default ``verify="sample"``) and compared field-by-field with exact
  float equality.  Any difference raises :class:`VectorizedMismatchError` --
  divergence is a bug, never something to silently fall back from.

Results flow through the same
:class:`~repro.engine.diskcache.SimulationCache` entries as the scalar path
(bulk ``get_many``/``put_many``), so vectorized, scalar, process-pool and
work-queue executions all share one cache, and a warm vectorized sweep
executes zero simulations.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.api.scenario import Scenario
from repro.core.accelerator import (
    DesignPoint,
    EndToEndComparison,
    PIMCapsNet,
    RoutingComparison,
)
from repro.core.pipeline import PipelineTiming
from repro.engine.diskcache import SimulationCache, canonical_digest
from repro.engine.strategies import DesignLike, design_key, get_strategy
from repro.hmc.config import HMCConfig
from repro.sweep.spec import SweepSpec
from repro.workloads.benchmarks import BenchmarkConfig

#: The axis broadcast as a numpy array; every other axis defines planes.
FREQUENCY_AXIS = "hmc.pe_frequency_mhz"

#: Equivalence-gate modes: scalar re-check of every fresh point, of the first
#: and last fresh frequency per plane, or of nothing.
VERIFY_MODES = ("full", "sample", "off")

#: Axes that change *which* cells a point evaluates rather than their inputs.
_SELECTION_AXES = ("benchmarks", "workloads")


class VectorizedMismatchError(RuntimeError):
    """A vectorized cell differed from the scalar path (always a bug)."""


# ----------------------------------------------------------------- eligibility


def _design_points_module():
    """The built-in strategy module, loaded after the registry initialized.

    ``get_strategy`` first so the registry's own deferred import populates
    the built-ins; importing :mod:`repro.engine.design_points` directly while
    it is half-executed would observe a partial registry.
    """
    get_strategy(DesignPoint.BASELINE_GPU)
    from repro.engine import design_points

    return design_points


def vectorization_blocker(spec: SweepSpec, base: Optional[Scenario] = None) -> Optional[str]:
    """Why this sweep cannot be vectorized, or ``None`` if it can.

    The ``base`` scenario is accepted for signature stability but does not
    influence eligibility today: planes anchor on whatever scenario each
    grid point produces, so any base that survives scalar execution works.
    """
    del base
    if FREQUENCY_AXIS not in spec.axis_keys:
        return (
            f"no {FREQUENCY_AXIS!r} axis to broadcast; only frequency planes "
            f"are batched today"
        )
    for key in spec.axis_keys:
        if key in _SELECTION_AXES:
            return f"axis {key!r} changes the evaluated workload selection per point"
    for axis in spec.axes:
        if axis.key != FREQUENCY_AXIS:
            continue
        for value in axis.values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return f"non-numeric {FREQUENCY_AXIS} value {value!r}"
    designs: List[DesignLike] = [DesignPoint.BASELINE_GPU]
    designs.extend(spec.designs)
    for design in designs:
        reason = _strategy_blocker(design, spec.kind)
        if reason is not None:
            return reason
    return None


def _strategy_blocker(design: DesignLike, kind: str) -> Optional[str]:
    """Why one design point's strategy cannot be vectorized (``None`` = fine)."""
    dp = _design_points_module()
    try:
        strategy = get_strategy(design)
    except KeyError:
        return f"no strategy registered for design point {design_key(design)!r}"
    if type(strategy) is dp.GPUExecutionStrategy:
        return None
    if type(strategy) not in (dp.PIMPipelinedStrategy, dp.AllInPIMStrategy):
        return (
            f"design {design_key(design)!r} uses a custom strategy "
            f"({type(strategy).__name__}); the scalar path handles it"
        )
    if kind != "routing":
        try:
            rp_strategy = get_strategy(strategy.rp_design)
        except KeyError:
            return (
                f"design {design_key(design)!r} pipelines an unregistered "
                f"routing design {design_key(strategy.rp_design)!r}"
            )
        if type(rp_strategy) not in (
            dp.GPUExecutionStrategy,
            dp.PIMPipelinedStrategy,
            dp.AllInPIMStrategy,
        ):
            return (
                f"design {design_key(design)!r} pipelines routing design "
                f"{design_key(strategy.rp_design)!r}, whose strategy "
                f"({type(rp_strategy).__name__}) is not vectorized"
            )
    return None


# ------------------------------------------------------------- value batching


def _at(value: object, j: int) -> object:
    """Element ``j`` of a float64 array as a Python float; a float stays itself."""
    return value.item(j) if isinstance(value, np.ndarray) else value


def _result_at(result: object, j: int) -> object:
    """One point's result: element ``j`` of a strategy result over an array."""
    if isinstance(result, RoutingComparison):
        return RoutingComparison(
            design=result.design,
            benchmark=result.benchmark,
            time_seconds=_at(result.time_seconds, j),
            energy_joules=_at(result.energy_joules, j),
            time_components={k: _at(v, j) for k, v in result.time_components.items()},
            energy_components={k: _at(v, j) for k, v in result.energy_components.items()},
            dimension=result.dimension,
        )
    timing = result.timing
    return EndToEndComparison(
        design=result.design,
        benchmark=result.benchmark,
        timing=PipelineTiming(
            host_stage_time=_at(timing.host_stage_time, j),
            routing_stage_time=_at(timing.routing_stage_time, j),
            num_batches=timing.num_batches,
            pipelined=timing.pipelined,
        ),
        energy_joules=_at(result.energy_joules, j),
        host_stage_seconds=_at(result.host_stage_seconds, j),
        routing_stage_seconds=_at(result.routing_stage_seconds, j),
    )


class _DesignValues(NamedTuple):
    """Per-point times/energies of one design, plus per-point results on demand.

    ``results`` holds one strategy result per dimension group; point ``i``
    is element ``j`` of ``results[g]`` where ``where[i] == (g, j)``.
    """

    times: List[float]
    energies: List[float]
    results: List[object]
    where: List[Tuple[int, int]]

    def result(self, index: int) -> object:
        group, element = self.where[index]
        return _result_at(self.results[group], element)


def _plane_values(
    config: BenchmarkConfig,
    kwargs: Dict[str, object],
    hmc: HMCConfig,
    f_mhz: np.ndarray,
    kind: str,
    designs: List[DesignLike],
) -> Dict[str, _DesignValues]:
    """Every design's per-point values for one benchmark over one plane.

    The registered strategies run on models whose PE frequency is the
    plane's frequency array.  The distribution dimension can differ per
    frequency (the Fig. 18 effect) and a model simulates one dimension at a
    time, so the points are grouped by the dimension that wins at their
    frequency, one model each.  The strategies are called directly: the
    model's memo would deep-copy every array result.
    """
    n = int(f_mhz.shape[0])
    model = PIMCapsNet(
        config, **kwargs, hmc_config=dataclasses.replace(hmc, pe_frequency_mhz=f_mhz)
    )
    scores = model.distributor.scores()
    dimensions = list(scores)
    # Keep-first argmax in Dimension order: what best_plan's max picks.
    winners = np.argmax(np.stack(list(scores.values())), axis=0)
    groups: List[Tuple[PIMCapsNet, np.ndarray]] = []
    where: List[Tuple[int, int]] = [(0, 0)] * n
    for group, winner in enumerate(np.unique(winners)):
        positions = np.flatnonzero(winners == winner)
        if positions.size < n:
            model = PIMCapsNet(
                config,
                **kwargs,
                hmc_config=dataclasses.replace(hmc, pe_frequency_mhz=f_mhz[positions]),
            )
        model.force_dimension = dimensions[winner]
        groups.append((model, positions))
        for element, index in enumerate(positions.tolist()):
            where[index] = (group, element)
    values: Dict[str, _DesignValues] = {}
    for design in designs:
        strategy = get_strategy(design)
        simulate = (
            strategy.simulate_routing if kind == "routing" else strategy.simulate_end_to_end
        )
        results = [simulate(group_model, design) for group_model, _ in groups]
        times = np.empty(n)
        energies = np.empty(n)
        for (_, positions), result in zip(groups, results):
            times[positions] = result.time_seconds
            energies[positions] = result.energy_joules
        values[design_key(design)] = _DesignValues(
            times.tolist(), energies.tolist(), results, where
        )
    return values


# ------------------------------------------------------------ grid evaluation


def _select_benchmarks(base: Scenario) -> List[str]:
    """The benchmark fallback chain, mirroring ``SimulationContext``."""
    selection = base.benchmark_selection()
    return selection if selection else base.catalog.names()


def _plane_hashes(anchor: Scenario, frequencies: List[float]) -> List[str]:
    """Per-frequency hardware hashes of one plane, without per-point scenarios.

    Within a plane the variants differ *only* in ``hmc.pe_frequency_mhz``,
    so one hardware dict is re-digested per frequency -- identical to
    ``Scenario.hardware_hash()`` of the full variant, at a fraction of the
    construction cost (a unit test pins the equivalence).
    """
    template = anchor.hardware_dict()
    hmc = template["hmc"]
    hashes = []
    for value in frequencies:
        hmc["pe_frequency_mhz"] = value
        hashes.append(canonical_digest(template))
    return hashes


def evaluate_grid(
    spec: SweepSpec,
    base: Optional[Scenario] = None,
    benchmarks: Optional[List[str]] = None,
    *,
    assignments: Optional[List[Dict[str, object]]] = None,
    cache: Optional[SimulationCache] = None,
    verify: str = "sample",
) -> List[dict]:
    """Evaluate (a slice of) a sweep grid with the vectorized backend.

    Args:
        spec: the sweep (must pass :func:`vectorization_blocker`).
        base: base scenario (paper default when ``None``).
        benchmarks: resolved benchmark names (``None`` = the base scenario's
            selection chain).
        assignments: grid-point assignments to evaluate (``None`` = the whole
            grid); work-queue shards pass their slice.
        cache: shared :class:`~repro.engine.diskcache.SimulationCache`
            (``None`` disables persistence); flushed once before returning.
        verify: equivalence-gate mode (:data:`VERIFY_MODES`).

    Returns:
        One outcome dict per assignment, shaped exactly like the scalar
        executor's: ``{"cells", "simulations", "disk_hits", "disk_misses"}``.
    """
    base = base if base is not None else Scenario.default()
    if verify not in VERIFY_MODES:
        raise ValueError(f"unknown verify mode {verify!r}; choose from {list(VERIFY_MODES)}")
    blocker = vectorization_blocker(spec, base)
    if blocker is not None:
        raise ValueError(f"sweep cannot be vectorized: {blocker}")
    if assignments is None:
        assignments = spec.assignments()
    names = list(benchmarks) if benchmarks else _select_benchmarks(base)
    kind = "routing" if spec.kind == "routing" else "end_to_end"
    outcomes: List[Optional[dict]] = [None] * len(assignments)
    plane_axes = [key for key in spec.axis_keys if key != FREQUENCY_AXIS]
    planes: Dict[tuple, List[int]] = {}
    for position, assignment in enumerate(assignments):
        plane_key = tuple(assignment[key] for key in plane_axes)
        planes.setdefault(plane_key, []).append(position)
    for positions in planes.values():
        _evaluate_plane(
            spec, base, assignments, positions, names, kind, cache, verify, outcomes
        )
    if cache is not None:
        cache.flush()
    return outcomes  # type: ignore[return-value]


def _evaluate_plane(
    spec: SweepSpec,
    base: Scenario,
    assignments: List[Dict[str, object]],
    positions: List[int],
    names: List[str],
    kind: str,
    cache: Optional[SimulationCache],
    verify: str,
    outcomes: List[Optional[dict]],
) -> None:
    """Evaluate one frequency plane into ``outcomes`` (in grid positions)."""
    count = len(positions)
    frequencies = [float(assignments[p][FREQUENCY_AXIS]) for p in positions]
    anchor = spec.scenario_for(base, assignments[positions[0]])
    catalog = anchor.catalog
    configs = {name: catalog.benchmark(name) for name in names}
    cell_designs: List[DesignLike] = [DesignPoint.BASELINE_GPU]
    cell_designs.extend(str(design) for design in spec.designs)
    baseline_key = design_key(DesignPoint.BASELINE_GPU)

    # -- disk cache: one bulk lookup for the whole plane ----------------------
    hit_results: Dict[Tuple[int, str, str], object] = {}
    hits_per_point = [0] * count
    misses_per_point = [0] * count
    hashes: Optional[List[str]] = None
    if cache is not None:
        hashes = _plane_hashes(anchor, frequencies)
        requests = [
            (hashes[i], configs[name], kind, design)
            for i in range(count)
            for name in names
            for design in cell_designs
        ]
        found = cache.get_many(requests)
        cursor = 0
        for i in range(count):
            for name in names:
                for design in cell_designs:
                    result = found[cursor]
                    cursor += 1
                    if result is None:
                        misses_per_point[i] += 1
                    else:
                        hits_per_point[i] += 1
                        hit_results[(i, name, design_key(design))] = result
        any_miss = any(misses_per_point)
    else:
        any_miss = True

    # -- vectorized evaluation (only the planes' fresh cells need it) --------
    bench_values: Dict[str, Dict[str, _DesignValues]] = {}
    if any_miss:
        f_mhz = np.asarray(frequencies, dtype=np.float64)
        kwargs = anchor.model_kwargs()
        kwargs.pop("hmc_config", None)
        for name in names:
            bench_values[name] = _plane_values(
                configs[name], kwargs, anchor.hmc, f_mhz, kind, cell_designs
            )

    # Per-(benchmark, design) value arrays, hoisted out of the point loop:
    # the loop below runs once per grid point and is the only per-point
    # Python cost of the whole backend, so it must only index lists.
    computed: Dict[Tuple[int, str, str], object] = {}
    design_meta = [(str(design), design_key(design)) for design in cell_designs[1:]]
    per_bench: Dict[str, tuple] = {}
    for name in names:
        if any_miss:
            by_design = bench_values[name]
            baseline_values = by_design[baseline_key]
            design_values = [
                (design_str, dkey, by_design[dkey]) for design_str, dkey in design_meta
            ]
        else:  # fully warm plane: every lookup hits, the arrays are unused
            baseline_values = None
            design_values = [
                (design_str, dkey, None) for design_str, dkey in design_meta
            ]
        per_bench[name] = (baseline_values, design_values)

    if cache is None:
        # Fast path (also the 100k-point benchmark path): no hit lookups,
        # every cell is fresh, simulations count the whole point.
        point_simulations = len(names) * len(cell_designs)
        for i in range(count):
            cells: List[dict] = []
            for name in names:
                baseline_values, design_values = per_bench[name]
                baseline_time = baseline_values.times[i]
                baseline_energy = baseline_values.energies[i]
                for design_str, _, values in design_values:
                    cells.append(
                        {
                            "benchmark": name,
                            "design": design_str,
                            "time_seconds": values.times[i],
                            "energy_joules": values.energies[i],
                            "baseline_time_seconds": baseline_time,
                            "baseline_energy_joules": baseline_energy,
                        }
                    )
            outcomes[positions[i]] = {
                "cells": cells,
                "simulations": point_simulations,
                "disk_hits": 0,
                "disk_misses": 0,
            }
    else:
        puts: List[tuple] = []
        for i in range(count):
            cells = []
            fresh = 0
            for name in names:
                baseline_values, design_values = per_bench[name]
                hit = hit_results.get((i, name, baseline_key))
                if hit is not None:
                    baseline_time = hit.time_seconds
                    baseline_energy = hit.energy_joules
                else:
                    baseline_time = baseline_values.times[i]
                    baseline_energy = baseline_values.energies[i]
                    fresh += 1
                    result = baseline_values.result(i)
                    computed[(i, name, baseline_key)] = result
                    puts.append(
                        (hashes[i], configs[name], kind, DesignPoint.BASELINE_GPU, result)
                    )
                for design_str, dkey, values in design_values:
                    hit = hit_results.get((i, name, dkey))
                    if hit is not None:
                        time_seconds = hit.time_seconds
                        energy_joules = hit.energy_joules
                    else:
                        time_seconds = values.times[i]
                        energy_joules = values.energies[i]
                        fresh += 1
                        result = values.result(i)
                        computed[(i, name, dkey)] = result
                        puts.append((hashes[i], configs[name], kind, design_str, result))
                    cells.append(
                        {
                            "benchmark": name,
                            "design": design_str,
                            "time_seconds": time_seconds,
                            "energy_joules": energy_joules,
                            "baseline_time_seconds": baseline_time,
                            "baseline_energy_joules": baseline_energy,
                        }
                    )
            outcomes[positions[i]] = {
                "cells": cells,
                "simulations": fresh,
                "disk_hits": hits_per_point[i],
                "disk_misses": misses_per_point[i],
            }
        if puts:
            cache.put_many(puts)

    # -- equivalence gate: scalar re-check of freshly computed points --------
    if verify == "off" or not any_miss:
        return
    if cache is None:
        fresh_points = list(range(count))
    else:
        fresh_points = sorted({i for (i, _, _) in computed})
    if not fresh_points:
        return
    if verify == "sample":
        fresh_points = sorted({fresh_points[0], fresh_points[-1]})
    for i in fresh_points:
        sims = _verify_point(
            spec,
            base,
            assignments[positions[i]],
            names,
            configs,
            kind,
            cell_designs,
            lambda name, design, i=i: (
                computed.get((i, name, design_key(design)))
                if cache is not None
                else bench_values[name][design_key(design)].result(i)
            ),
        )
        outcomes[positions[i]]["simulations"] += sims


def _verify_point(
    spec: SweepSpec,
    base: Scenario,
    assignment: Dict[str, object],
    names: List[str],
    configs: Dict[str, object],
    kind: str,
    cell_designs: List[DesignLike],
    vectorized_result: Callable[[str, DesignLike], Optional[object]],
) -> int:
    """Re-simulate one grid point through the scalar path and compare exactly."""
    variant = spec.scenario_for(base, assignment)
    kwargs = variant.model_kwargs()
    simulations = 0
    for name in names:
        model = PIMCapsNet(configs[name], **kwargs)
        for design in cell_designs:
            vectorized = vectorized_result(name, design)
            if vectorized is None:
                continue
            reference = (
                model.simulate_routing(design)
                if kind == "routing"
                else model.simulate_end_to_end(design)
            )
            _assert_results_equal(
                vectorized,
                reference,
                f"point {assignment!r}, benchmark {name!r}, "
                f"design {design_key(design)!r}",
            )
        simulations += model.simulations_executed
    return simulations


def _assert_results_equal(vectorized: object, reference: object, context: str) -> None:
    """Exact field-by-field comparison; any difference is a hard error."""
    problems: List[str] = []

    def check(label: str, got: object, want: object) -> None:
        if got != want:
            problems.append(f"{label}: vectorized {got!r} != scalar {want!r}")

    check("design", design_key(vectorized.design), design_key(reference.design))
    check("benchmark", vectorized.benchmark, reference.benchmark)
    check("energy_joules", vectorized.energy_joules, reference.energy_joules)
    if isinstance(reference, RoutingComparison):
        check("time_seconds", vectorized.time_seconds, reference.time_seconds)
        check("time_components", vectorized.time_components, reference.time_components)
        check(
            "energy_components", vectorized.energy_components, reference.energy_components
        )
        check("dimension", vectorized.dimension, reference.dimension)
    else:
        check(
            "timing.host_stage_time",
            vectorized.timing.host_stage_time,
            reference.timing.host_stage_time,
        )
        check(
            "timing.routing_stage_time",
            vectorized.timing.routing_stage_time,
            reference.timing.routing_stage_time,
        )
        check(
            "timing.num_batches",
            vectorized.timing.num_batches,
            reference.timing.num_batches,
        )
        check("timing.pipelined", vectorized.timing.pipelined, reference.timing.pipelined)
        check(
            "host_stage_seconds",
            vectorized.host_stage_seconds,
            reference.host_stage_seconds,
        )
        check(
            "routing_stage_seconds",
            vectorized.routing_stage_seconds,
            reference.routing_stage_seconds,
        )
    if problems:
        raise VectorizedMismatchError(
            f"vectorized sweep result diverged from the scalar path at {context}: "
            + "; ".join(problems)
            + " -- this is a bug in the vectorized backend; "
            "run with backend='scalar' to work around it"
        )
