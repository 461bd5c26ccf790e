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
   dimension, built with that ``force_dimension``, and scatters their
   array results into per-point times and energies.

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
:class:`~repro.engine.diskcache.SimulationCache` entries as the scalar path.
A plane is one cache shard, and a strategy's array result over it is one
cache block, so each plane is read with one ``get_many`` and written with
one ``put_many`` of whole float64 columns.  Vectorized, scalar,
process-pool and work-queue executions all share one cache, and a warm
vectorized sweep executes zero simulations.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint, PIMCapsNet, RoutingComparison
from repro.engine.diskcache import Block, SimulationCache, decode_result, encode_result
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
_SELECTION_AXES = ("benchmarks",)


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


def _result_at(result: object, j: int) -> object:
    """One point's result: element ``j`` of a strategy result over an array.

    The same row decoder as a cache block's
    (:func:`~repro.engine.diskcache.decode_result`); frequency-independent
    fields are plain floats and stay themselves.
    """
    shape, values, dimension = encode_result(result)
    return decode_result(
        shape,
        [value.item(j) if isinstance(value, np.ndarray) else value for value in values],
        dimension,
    )


class _PlaneResults(NamedTuple):
    """Every design's strategy results over one plane for one benchmark.

    The points are grouped by the distribution dimension that wins at their
    frequency: ``results[design key][g]`` covers the points ``groups[g]``,
    and point ``i`` is its element ``where[i][1]`` for ``g = where[i][0]``.
    """

    groups: List[np.ndarray]
    where: List[Tuple[int, int]]
    results: Dict[str, List[object]]

    def column(self, design: str, field: str) -> np.ndarray:
        """One field of one design at every point of the plane."""
        values = np.empty(len(self.where))
        for positions, result in zip(self.groups, self.results[design]):
            values[positions] = getattr(result, field)
        return values

    def result(self, design: str, index: int) -> object:
        """One design's result at one point."""
        group, element = self.where[index]
        return _result_at(self.results[design][group], element)


def _plane_results(
    config: BenchmarkConfig,
    kwargs: Dict[str, object],
    hmc: HMCConfig,
    f_mhz: np.ndarray,
    kind: str,
    designs: List[DesignLike],
) -> _PlaneResults:
    """Every design's results for one benchmark over one plane.

    The registered strategies run on models whose PE frequency is the
    plane's frequency array.  The distribution dimension can differ per
    frequency (the Fig. 18 effect) and a model simulates one dimension at a
    time, so the points are grouped by the dimension that wins at their
    frequency, one model each, built with that dimension forced.
    """
    n = int(f_mhz.shape[0])
    scores = PIMCapsNet(
        config, **kwargs, hmc_config=dataclasses.replace(hmc, pe_frequency_mhz=f_mhz)
    ).distributor.scores()
    dimensions = list(scores)
    # Keep-first argmax in Dimension order: what best_plan's max picks.
    winners = np.argmax(np.stack(list(scores.values())), axis=0)
    models: List[PIMCapsNet] = []
    groups: List[np.ndarray] = []
    where: List[Tuple[int, int]] = [(0, 0)] * n
    for group, winner in enumerate(np.unique(winners)):
        positions = np.flatnonzero(winners == winner)
        models.append(
            PIMCapsNet(
                config,
                **kwargs,
                hmc_config=dataclasses.replace(hmc, pe_frequency_mhz=f_mhz[positions]),
                force_dimension=dimensions[winner],
            )
        )
        groups.append(positions)
        for element, index in enumerate(positions.tolist()):
            where[index] = (group, element)
    simulate = PIMCapsNet.simulate_routing if kind == "routing" else PIMCapsNet.simulate_end_to_end
    results = {
        design_key(design): [simulate(model, design) for model in models] for design in designs
    }
    return _PlaneResults(groups, where, results)


# ------------------------------------------------------------ grid evaluation


def _select_benchmarks(base: Scenario) -> List[str]:
    """The benchmark fallback chain, mirroring ``SimulationContext``."""
    selection = base.benchmark_selection()
    return selection if selection else base.catalog.names()


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
    """Evaluate one frequency plane into ``outcomes`` (in grid positions).

    Each ``(benchmark, design)`` of the plane is one cache block: the plane's
    frequency array is looked up, and stored, as a whole.
    """
    count = len(positions)
    f_mhz = np.array([float(assignments[p][FREQUENCY_AXIS]) for p in positions])
    anchor = spec.scenario_for(base, assignments[positions[0]])
    catalog = anchor.catalog
    configs = {name: catalog.benchmark(name) for name in names}
    cell_designs: List[DesignLike] = [DesignPoint.BASELINE_GPU]
    cell_designs.extend(str(design) for design in spec.designs)
    pairs = [(name, design) for name in names for design in cell_designs]

    # -- disk cache: one bulk lookup of the plane's blocks --------------------
    found = np.zeros((len(pairs), count), dtype=bool)
    blocks: List[Optional[Block]] = [None] * len(pairs)
    if cache is not None:
        plane = anchor.plane_hash()
        blocks = cache.get_many(
            [(plane, configs[name], kind, design, f_mhz) for name, design in pairs]
        )
        for k, block in enumerate(blocks):
            if block is not None:
                # A block holds the rows found, in request order.
                found[k] = len(block) == count or np.isin(f_mhz, block.frequencies)
    fresh = ~found

    # -- vectorized evaluation (only planes with a fresh cell need it) -------
    computed: Dict[str, _PlaneResults] = {}
    if fresh.any():
        kwargs = anchor.model_kwargs()
        kwargs.pop("hmc_config", None)
        computed = {
            name: _plane_results(configs[name], kwargs, anchor.hmc, f_mhz, kind, cell_designs)
            for name in names
        }
        if cache is not None:
            cache.put_many(
                [
                    (plane, configs[name], kind, design, result, f_mhz[group])
                    for name, design in pairs
                    for group, result in zip(
                        computed[name].groups, computed[name].results[design_key(design)]
                    )
                ]
            )

    # Per-(benchmark, design) rows of times and energies: computed, then the
    # cached values where the cache hit.
    times = np.empty((len(pairs), count))
    energies = np.empty((len(pairs), count))
    for k, ((name, design), block) in enumerate(zip(pairs, blocks)):
        if computed:
            times[k] = computed[name].column(design_key(design), "time_seconds")
            energies[k] = computed[name].column(design_key(design), "energy_joules")
        if block is not None:
            arrays = block.arrays()
            times[k, found[k]] = arrays.time_seconds
            energies[k, found[k]] = arrays.energy_joules

    # The only per-point Python cost of the whole backend: it must only
    # index lists.
    time_rows = times.tolist()
    energy_rows = energies.tolist()
    misses = fresh.sum(axis=0).tolist()
    per_name = len(cell_designs)
    design_names = [str(design) for design in cell_designs[1:]]
    for i in range(count):
        cells: List[dict] = []
        for b, name in enumerate(names):
            base_row = b * per_name
            baseline_time = time_rows[base_row][i]
            baseline_energy = energy_rows[base_row][i]
            for d, design_name in enumerate(design_names, start=base_row + 1):
                cells.append(
                    {
                        "benchmark": name,
                        "design": design_name,
                        "time_seconds": time_rows[d][i],
                        "energy_joules": energy_rows[d][i],
                        "baseline_time_seconds": baseline_time,
                        "baseline_energy_joules": baseline_energy,
                    }
                )
        outcomes[positions[i]] = {
            "cells": cells,
            "simulations": misses[i],
            "disk_hits": len(pairs) - misses[i] if cache is not None else 0,
            "disk_misses": misses[i] if cache is not None else 0,
        }

    # -- equivalence gate: scalar re-check of freshly computed points --------
    if verify == "off" or not computed:
        return
    fresh_points = np.flatnonzero(fresh.any(axis=0)).tolist()
    if verify == "sample":
        fresh_points = sorted({fresh_points[0], fresh_points[-1]})
    for i in fresh_points:
        vectorized = [
            computed[name].result(design_key(design), i) if fresh[k, i] else None
            for k, (name, design) in enumerate(pairs)
        ]
        sims = _verify_point(
            spec, base, assignments[positions[i]], configs, kind, pairs, vectorized
        )
        outcomes[positions[i]]["simulations"] += sims


def _verify_point(
    spec: SweepSpec,
    base: Scenario,
    assignment: Dict[str, object],
    configs: Dict[str, object],
    kind: str,
    pairs: List[Tuple[str, DesignLike]],
    vectorized: List[Optional[object]],
) -> int:
    """Re-simulate one grid point through the scalar path and compare exactly.

    ``vectorized`` holds the point's fresh result per ``(benchmark, design)``
    pair (``None`` = a cache hit, not re-checked).
    """
    variant = spec.scenario_for(base, assignment)
    kwargs = variant.model_kwargs()
    models: Dict[str, PIMCapsNet] = {}
    for (name, design), result in zip(pairs, vectorized):
        model = models.get(name)
        if model is None:
            model = models[name] = PIMCapsNet(configs[name], **kwargs)
        if result is None:
            continue
        reference = (
            model.simulate_routing(design)
            if kind == "routing"
            else model.simulate_end_to_end(design)
        )
        _assert_results_equal(
            result,
            reference,
            f"point {assignment!r}, benchmark {name!r}, "
            f"design {design_key(design)!r}",
        )
    return sum(model.simulations_executed for model in models.values())


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
