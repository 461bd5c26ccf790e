"""Vectorized (batched) evaluation of sweep grids, bit-exact with the scalar path.

The analytic models behind every design point are closed-form float
arithmetic, and they accept the PE frequency as a float64 array and the PE
count per vault as an int64 array aligned with it, as well as Python
numbers: elementwise ``+ - * /`` give the same bits in both forms, and the
few comparisons and roundings on those chains go through
:mod:`repro.elementwise`.  Of all swept quantities ``hmc.pe_frequency_mhz``
and ``hmc.pes_per_vault`` are batched this way; the evaluator therefore

1. groups the grid into **shards**: points sharing every non-frequency axis
   value, one PE count's frequency plane, and the shards into **batches**:
   shards that differ only in their PE count.
2. builds, per ``(batch, benchmark)``, one
   :class:`~repro.core.accelerator.PIMCapsNet` whose HMC frequency and PE
   count are the batch's arrays, reads the distributor's per-point
   execution scores, and picks each point's distribution dimension with a
   keep-first ``argmax`` (what ``best_plan``'s ``max`` picks for one point),
   and
3. runs the **registered strategies themselves** on a model per winning
   dimension, built with that ``force_dimension``, and scatters their
   array results into per-point times and energies.

There is one copy of the model: a strategy patched or fixed is patched or
fixed for both backends.  IEEE-754 arithmetic is deterministic, so every
cell equals the scalar result **exactly** -- the same policy as the training
kernels' bit-exactness gate.  An invalid frequency anywhere in a batch fails
the model's own range check, exactly as the scalar path fails on it.

Two guard rails keep this honest:

* :func:`vectorization_blocker` refuses any sweep the batcher does not fully
  understand (no frequency axis, selection axes, custom strategies, whose
  code may not accept arrays); the runner then falls back to the scalar
  path.
* the **equivalence gate**: unless disabled, freshly computed points are
  re-simulated through the plain scalar path (all of them under
  ``verify="full"``, the first and last fresh frequency of every shard under
  the default ``verify="sample"``) and compared field-by-field with exact
  float equality.  Any difference raises :class:`VectorizedMismatchError` --
  divergence is a bug, never something to silently fall back from.

Results flow through the same
:class:`~repro.engine.diskcache.SimulationCache` entries as the scalar path.
A shard is one cache shard file, and a strategy's array result over it is
one cache block, so each shard is read with one ``get_many`` and written
with one ``put_many`` of whole float64 columns; a batch computes only the
points of its shards with a fresh cell.  Vectorized, scalar,
process-pool and work-queue executions all share one cache, and a warm
vectorized sweep executes zero simulations.
"""

from __future__ import annotations

import dataclasses
import functools
from itertools import chain, repeat
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.api.scenario import Scenario
from repro.core.accelerator import DesignPoint, PIMCapsNet, RoutingComparison
from repro.engine.diskcache import Block, SimulationCache, decode_result, encode_result
from repro.engine.strategies import DesignLike, design_key, get_strategy
from repro.hmc.config import HMCConfig
from repro.sweep.spec import SweepSpec
from repro.workloads.benchmarks import BenchmarkConfig

#: The axes broadcast as numpy arrays: the frequency, and the PE count aligned
#: with it.  Every other axis separates batches.
FREQUENCY_AXIS = "hmc.pe_frequency_mhz"
PES_AXIS = "hmc.pes_per_vault"

#: PE counts from here on are evaluated one shard at a time, as the scenario's
#: Python int: below it every count converts to float64 exactly, so the PE
#: shares the model rounds fit int64.
_BATCHED_PES_LIMIT = 2**53

#: Equivalence-gate modes: scalar re-check of every fresh point, of the first
#: and last fresh frequency per shard, or of nothing.
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


def vectorization_blocker(spec: SweepSpec) -> Optional[str]:
    """Why this sweep cannot be vectorized, or ``None`` if it can.

    The base scenario does not influence eligibility: shards anchor on
    whatever scenario each grid point produces, so any base that survives
    scalar execution works.
    """
    if FREQUENCY_AXIS not in spec.axis_keys:
        return (
            f"no {FREQUENCY_AXIS!r} axis to broadcast; a batch needs frequencies "
            f"(PE counts batch only alongside them)"
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
    (:func:`~repro.engine.diskcache.decode_result`); point-independent
    fields are plain floats and stay themselves.
    """
    shape, values, dimension = encode_result(result)
    return decode_result(
        shape,
        [value.item(j) if isinstance(value, np.ndarray) else value for value in values],
        dimension,
    )


def _result_slice(result: object, lo: int, hi: int) -> object:
    """Elements ``lo:hi`` of a strategy result over an array, as one array result."""
    shape, values, dimension = encode_result(result)
    return decode_result(
        shape,
        [value[lo:hi] if isinstance(value, np.ndarray) else value for value in values],
        dimension,
    )


class _BatchResults(NamedTuple):
    """Every design's strategy results over one batch for one benchmark.

    The points are grouped by the distribution dimension that wins at them:
    ``results[design key][g]`` covers the points ``groups[g]`` (ascending),
    and point ``i`` is in group ``group_of[i]``.
    """

    groups: List[np.ndarray]
    group_of: np.ndarray
    results: Dict[str, List[object]]

    def column(self, design: str, field: str) -> np.ndarray:
        """One field of one design at every point of the batch."""
        values = np.empty(len(self.group_of))
        for positions, result in zip(self.groups, self.results[design]):
            values[positions] = getattr(result, field)
        return values

    def result(self, design: str, index: int) -> object:
        """One design's result at one point."""
        group = self.group_of[index]
        element = int(np.searchsorted(self.groups[group], index))
        return _result_at(self.results[design][group], element)

    def slices(self, design: str, start: int, stop: int) -> Iterator[Tuple[object, np.ndarray]]:
        """One design's results over the points ``start:stop`` (one shard),
        one per winning dimension, each with the points it covers."""
        for positions, result in zip(self.groups, self.results[design]):
            lo, hi = np.searchsorted(positions, (start, stop)).tolist()
            if lo < hi:
                whole = hi - lo == len(positions)
                yield (result if whole else _result_slice(result, lo, hi)), positions[lo:hi]


def _batch_results(
    config: BenchmarkConfig,
    kwargs: Dict[str, object],
    hmc: HMCConfig,
    kind: str,
    designs: List[DesignLike],
) -> _BatchResults:
    """Every design's results for one benchmark over one batch.

    The registered strategies run on models whose PE frequency (and PE
    count, when the batch spans several) is the batch's array.  The
    distribution dimension can differ per point (the Fig. 18 effect) and a
    model simulates one dimension at a time, so the points are grouped by
    the dimension that wins at them, one model each, built with that
    dimension forced.
    """
    f_mhz, pes = hmc.pe_frequency_mhz, hmc.pes_per_vault
    scores = PIMCapsNet(config, **kwargs, hmc_config=hmc).distributor.scores()
    dimensions = list(scores)
    # Keep-first argmax in Dimension order: what best_plan's max picks.
    winners = np.argmax(np.stack(list(scores.values())), axis=0)
    # The winning codes in ascending order (np.unique would import numpy.ma).
    codes = np.flatnonzero(np.bincount(winners))
    groups = [np.flatnonzero(winners == code) for code in codes]
    models = [
        PIMCapsNet(
            config,
            **kwargs,
            hmc_config=dataclasses.replace(
                hmc,
                pe_frequency_mhz=f_mhz[positions],
                pes_per_vault=pes[positions] if isinstance(pes, np.ndarray) else pes,
            ),
            force_dimension=dimensions[code],
        )
        for code, positions in zip(codes, groups)
    ]
    simulate = PIMCapsNet.simulate_routing if kind == "routing" else PIMCapsNet.simulate_end_to_end
    results = {
        design_key(design): [simulate(model, design) for model in models] for design in designs
    }
    return _BatchResults(groups, np.searchsorted(codes, winners), results)


# ------------------------------------------------------------ grid evaluation


class _Shard(NamedTuple):
    """The grid points of one cache shard: one PE count's frequency plane."""

    anchor: Scenario  # the scenario of its first point
    positions: List[int]  # grid positions
    f_mhz: np.ndarray  # PE frequencies, one per position


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
        executor's: ``{"cells": [SweepCell, ...], "simulations",
        "disk_hits", "disk_misses"}``.
    """
    base = base if base is not None else Scenario.default()
    if verify not in VERIFY_MODES:
        raise ValueError(f"unknown verify mode {verify!r}; choose from {list(VERIFY_MODES)}")
    blocker = vectorization_blocker(spec)
    if blocker is not None:
        raise ValueError(f"sweep cannot be vectorized: {blocker}")
    if assignments is None:
        assignments = spec.assignments()
    names = list(benchmarks) if benchmarks else _select_benchmarks(base)
    kind = "routing" if spec.kind == "routing" else "end_to_end"
    outcomes: List[Optional[dict]] = [None] * len(assignments)
    shard_axes = [key for key in spec.axis_keys if key != FREQUENCY_AXIS]
    shard_positions: Dict[tuple, List[int]] = {}
    for position, assignment in enumerate(assignments):
        values = tuple(assignment[key] for key in shard_axes)
        shard_positions.setdefault(values, []).append(position)
    batches: Dict[tuple, List[_Shard]] = {}
    for values, positions in shard_positions.items():
        anchor = spec.scenario_for(base, assignments[positions[0]])
        f_mhz = np.array([float(assignments[p][FREQUENCY_AXIS]) for p in positions])
        batch = tuple(value for key, value in zip(shard_axes, values) if key != PES_AXIS)
        if anchor.hmc.pes_per_vault >= _BATCHED_PES_LIMIT:
            batch += (values,)  # a batch of its own, computed with a Python int
        batches.setdefault(batch, []).append(_Shard(anchor, positions, f_mhz))
    for shards in batches.values():
        _evaluate_batch(spec, base, assignments, shards, names, kind, cache, verify, outcomes)
    if cache is not None:
        cache.flush()
    return outcomes  # type: ignore[return-value]


def _evaluate_batch(
    spec: SweepSpec,
    base: Scenario,
    assignments: List[Dict[str, object]],
    shards: List[_Shard],
    names: List[str],
    kind: str,
    cache: Optional[SimulationCache],
    verify: str,
    outcomes: List[Optional[dict]],
) -> None:
    """Evaluate one batch, shards differing only in PE count, into ``outcomes``.

    Each ``(shard, benchmark, design)`` is one cache block: a shard's
    frequency array is looked up, and stored, as a whole.  The points of
    the shards with a fresh cell are computed as one array.
    """
    anchor = shards[0].anchor
    configs = {name: anchor.catalog.benchmark(name) for name in names}
    cell_designs: List[DesignLike] = [DesignPoint.BASELINE_GPU]
    cell_designs.extend(str(design) for design in spec.designs)
    pairs = [(name, design) for name in names for design in cell_designs]

    # -- disk cache: one bulk lookup of each shard's blocks -------------------
    blocks: List[List[Optional[Block]]] = [[None] * len(pairs) for _ in shards]
    if cache is not None:
        blocks = [
            cache.get_many(
                [
                    (shard.anchor.plane_hash(), configs[name], kind, design, shard.f_mhz)
                    for name, design in pairs
                ]
            )
            for shard in shards
        ]
    fresh = [_fresh_cells(shard.f_mhz, rows) for shard, rows in zip(shards, blocks)]

    # -- vectorized evaluation (only shards with a fresh cell need it) --------
    computing = [s for s, cells in enumerate(fresh) if cells.any()]
    starts: Dict[int, int] = {}
    checked: Dict[int, int] = {}  # grid position -> scalar re-check simulations
    if computing:
        sizes = [len(shards[s].positions) for s in computing]
        starts = dict(zip(computing, np.cumsum([0, *sizes[:-1]]).tolist()))
        f_mhz = np.concatenate([shards[s].f_mhz for s in computing])
        counts = [shards[s].anchor.hmc.pes_per_vault for s in computing]
        pes = counts[0] if len(counts) == 1 else np.repeat(np.array(counts, dtype=np.int64), sizes)
        hmc = dataclasses.replace(anchor.hmc, pe_frequency_mhz=f_mhz, pes_per_vault=pes)
        kwargs = anchor.model_kwargs()
        kwargs.pop("hmc_config", None)
        computed = {
            name: _batch_results(configs[name], kwargs, hmc, kind, cell_designs)
            for name in names
        }
        if cache is not None:
            for s, start in starts.items():
                plane, stop = shards[s].anchor.plane_hash(), start + len(shards[s].positions)
                cache.put_many(
                    [
                        (plane, configs[name], kind, design, result, f_mhz[points])
                        for name, design in pairs
                        for result, points in computed[name].slices(
                            design_key(design), start, stop
                        )
                    ]
                )
        batch_times = np.array(
            [computed[name].column(design_key(design), "time_seconds") for name, design in pairs]
        )
        batch_energies = np.array(
            [computed[name].column(design_key(design), "energy_joules") for name, design in pairs]
        )

        # -- equivalence gate: scalar re-check of freshly computed points ----
        gated = starts if verify != "off" else {}
        for s, start in gated.items():
            fresh_points = np.flatnonzero(fresh[s].any(axis=0)).tolist()
            if verify == "sample":
                fresh_points = sorted({fresh_points[0], fresh_points[-1]})
            for i in fresh_points:
                position = shards[s].positions[i]
                vectorized = [
                    computed[name].result(design_key(design), start + i) if fresh[s][k, i] else None
                    for k, (name, design) in enumerate(pairs)
                ]
                checked[position] = _verify_point(
                    spec, base, assignments[position], configs, kind, pairs, vectorized
                )
        # The cells need only the columns: the batch's results go before the
        # cells are built, so the two are never held at once.
        del computed

    # Each shard's cells, built from point-major columns in one pass: each
    # cell is a tuple made without a Python frame of its own, and a point's
    # baseline floats are shared by that benchmark's designs.  Slicing the
    # cells per point is the only per-point Python cost of the backend.
    from repro.sweep.runner import SweepCell  # the runner imports this module

    design_names = [str(design) for design in cell_designs[1:]]
    rows = np.arange(len(pairs)).reshape(len(names), len(cell_designs))
    design_rows, baseline_rows = rows[:, 1:].ravel(), rows[:, 0]
    width = len(design_rows)  # cells per point

    def by_point(values: np.ndarray, selected: np.ndarray) -> List[float]:
        """The ``selected`` rows' values, point after point."""
        return values[selected].T.ravel().tolist()

    def per_design(values: List[float]) -> Iterator[float]:
        """Each of a point's baseline floats once per design."""
        return chain.from_iterable(map(repeat, values, repeat(len(design_names))))

    for s, shard in enumerate(shards):
        # Per-(benchmark, design) rows of times and energies: computed, then
        # the cached values where the cache hit.
        count = len(shard.positions)
        times = np.empty((len(pairs), count))
        energies = np.empty((len(pairs), count))
        if s in starts:
            times[:] = batch_times[:, starts[s] : starts[s] + count]
            energies[:] = batch_energies[:, starts[s] : starts[s] + count]
        for k, block in enumerate(blocks[s]):
            if block is not None:
                arrays = block.arrays()
                times[k, ~fresh[s][k]] = arrays.time_seconds
                energies[k, ~fresh[s][k]] = arrays.energy_joules
        cells = list(
            map(
                functools.partial(tuple.__new__, SweepCell),
                zip(
                    [name for name in names for _ in design_names] * count,
                    design_names * (len(names) * count),
                    by_point(times, design_rows),
                    by_point(energies, design_rows),
                    per_design(by_point(times, baseline_rows)),
                    per_design(by_point(energies, baseline_rows)),
                ),
            )
        )
        misses = fresh[s].sum(axis=0).tolist()
        for i, position in enumerate(shard.positions):
            outcomes[position] = {
                "cells": cells[i * width : (i + 1) * width],
                "simulations": misses[i] + checked.get(position, 0),
                "disk_hits": len(pairs) - misses[i] if cache is not None else 0,
                "disk_misses": misses[i] if cache is not None else 0,
            }


def _fresh_cells(f_mhz: np.ndarray, blocks: List[Optional[Block]]) -> np.ndarray:
    """Which ``(pair, point)`` cells of a shard its cached ``blocks`` lack."""
    found = np.zeros((len(blocks), len(f_mhz)), dtype=bool)
    for k, block in enumerate(blocks):
        if block is not None:
            # A block holds the rows found, in request order.
            found[k] = len(block) == len(f_mhz) or np.isin(f_mhz, block.frequencies)
    return ~found


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
