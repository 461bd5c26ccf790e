"""Adaptive design-space search drivers over scenario sweep axes.

:class:`OptimizeDriver` searches the grid a :class:`~repro.sweep.spec.
SweepSpec` declares (dotted scenario axes, cartesian product) for the best
points under an :class:`~repro.optimize.objective.ObjectiveSpec`, evaluating
**probes** instead of the whole grid:

* ``"descent"`` -- coordinate descent over numeric axes: sweep one axis at a
  time from the grid median, keep strict improvements, repeat until a full
  pass changes nothing; then optional *bracketing refinement* inserts
  midpoints between the best value and its grid neighbours, probing off-grid
  values the spec never enumerated (``hmc.pe_frequency_mhz`` between two
  Fig. 18 frequencies).
* ``"halving"`` -- successive halving: sample each axis coarsely (endpoints +
  midpoints), keep the better half of the round's probes, shrink every axis
  window to the survivors' envelope, halve the stride, repeat to stride 1.
* ``"exhaustive"`` -- the whole grid (the brute-force baseline the tests
  compare the adaptive drivers against).
* ``"auto"`` -- ``"descent"`` when every axis is numeric, else ``"halving"``.

Every probe runs the objective's experiment modules through a
:class:`~repro.engine.context.SimulationContext` backed by the shared
persistent :class:`~repro.engine.diskcache.SimulationCache` -- the same
entries sweeps read and write -- so optimizer runs compound across sessions
and a repeated search executes **zero** simulations.  All candidate
enumeration and tie-breaking is deterministic (ties keep the earliest
probe), so repeated runs render byte-identical reports.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.scenario import Scenario
from repro.api.session import headline_metrics
from repro.engine.context import CacheStats, SimulationContext
from repro.engine.diskcache import CACHE_SCHEMA_VERSION, SimulationCache
from repro.engine.runner import run_experiments, select_experiments
from repro.optimize.objective import ObjectiveSpec, extract_metric
from repro.optimize.pareto import pareto_indices
from repro.optimize.result import OptimizeResult, ProbePoint
from repro.sweep.spec import SweepSpec, _format_value

#: Driver modes accepted by :class:`OptimizeDriver`.
DRIVERS = ("auto", "exhaustive", "halving", "descent")

#: Iteration backstops (the memoized probes converge far earlier).
_MAX_PASSES = 16
_MAX_ROUNDS = 32


class _BudgetExhausted(Exception):
    """Internal: the probe budget ran out; assemble a partial result."""


class _StopRequested(Exception):
    """Internal: the caller asked the search to stop (client went away)."""


class OptimizeDriver:
    """Search one sweep grid for the best points under an objective.

    Args:
        objective: anything :meth:`ObjectiveSpec.coerce` accepts (an
            :class:`ObjectiveSpec`, ``"fig17.average_speedup"``, a mapping,
            or a list of objectives).
        constraints: extra constraints merged into the objective spec
            (strings in :meth:`~repro.optimize.objective.Constraint.parse`
            form, mappings, or :class:`Constraint` instances).
        space: the search space -- a :class:`~repro.sweep.spec.SweepSpec`, a
            preset name / spec-file path, or an ``{axis: values}`` mapping.
        base: base scenario every probe overrides (paper default if ``None``).
        budget: maximum number of probes (``None`` = unlimited); exhaustion
            stops the search and flags the (still valid) partial result.
        driver: one of :data:`DRIVERS`.
        refine: bracketing-refinement levels after coordinate descent
            (``0`` disables; only ``"descent"`` refines).
        benchmarks: restrict probes to these catalog workloads (``None`` =
            the space's own restriction, then the scenario's selection).
        cache: an already-open :class:`SimulationCache` to share (the serve
            layer injects its own); overrides the ``cache_dir`` flags.
        cache_dir: persistent cache root (default cache dir when ``None``).
        use_cache: disable the persistent cache entirely with ``False``.
        cache_version: entry schema version (tests exercise invalidation).
        on_probe: observer called after every evaluated probe (the serve
            layer streams these as NDJSON events).
        should_stop: polled before each probe; returning ``True`` abandons
            the search without error (disconnected streaming clients).
    """

    def __init__(
        self,
        objective: object,
        space: Union[SweepSpec, str, Mapping[str, Sequence[object]]],
        base: Optional[Scenario] = None,
        *,
        constraints: Optional[Sequence[object]] = None,
        budget: Optional[int] = None,
        driver: str = "auto",
        refine: int = 1,
        benchmarks: Optional[Sequence[str]] = None,
        cache: Optional[SimulationCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: bool = True,
        cache_version: int = CACHE_SCHEMA_VERSION,
        on_probe: Optional[Callable[[ProbePoint], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.objective = ObjectiveSpec.coerce(objective, constraints=constraints)
        self.space = _coerce_space(space)
        self.base = base if base is not None else Scenario.default()
        if budget is not None:
            budget = int(budget)
            if budget < 1:
                raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = budget
        driver = str(driver).strip().lower()
        if driver not in DRIVERS:
            raise ValueError(f"unknown driver {driver!r}; choose from {list(DRIVERS)}")
        self.refine = int(refine)
        if self.refine < 0:
            raise ValueError(f"refine must be >= 0, got {refine}")
        # The experiment selection is resolved (and typo-checked) up front.
        self.experiments = select_experiments(only=self.objective.experiments())
        if benchmarks is None:
            benchmarks = self.space.benchmarks
        self.benchmarks: Optional[List[str]] = (
            None if benchmarks is None else self.base.catalog.resolve(benchmarks)
        )
        if driver == "auto":
            driver = "descent" if self._all_axes_numeric() else "halving"
        if driver == "descent" and not self._all_axes_numeric():
            raise ValueError(
                "the 'descent' driver needs numeric axis values everywhere; "
                "use 'halving' (or 'auto') for categorical axes"
            )
        self.driver = driver
        self._shared_cache = cache is not None
        if cache is not None:
            self._cache: Optional[SimulationCache] = cache
        elif use_cache:
            self._cache = SimulationCache(cache_dir, version=int(cache_version))
        else:
            self._cache = None
        self.on_probe = on_probe
        self.should_stop = should_stop
        self._probes: Dict[Tuple[str, ...], ProbePoint] = {}
        self._trace: List[Dict[str, object]] = []
        self._simulations = 0

    # ------------------------------------------------------------------ running

    def run(self) -> OptimizeResult:
        """Execute the search and assemble the result."""
        start = time.perf_counter()
        self._probes.clear()
        self._trace.clear()
        self._simulations = 0
        hits0 = self._cache.stats.hits if self._cache is not None else 0
        misses0 = self._cache.stats.misses if self._cache is not None else 0
        budget_exhausted = False
        try:
            if self.driver == "exhaustive":
                self._run_exhaustive()
            elif self.driver == "descent":
                self._run_descent()
            else:
                self._run_halving()
        except _BudgetExhausted:
            budget_exhausted = True
        except _StopRequested:
            pass
        if self._cache is not None:
            self._cache.flush()
        result = self._assemble(budget_exhausted)
        if self._cache is not None:
            result.cache = CacheStats(
                hits=self._cache.stats.hits - hits0,
                misses=self._cache.stats.misses - misses0,
            )
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # ---------------------------------------------------------------- evaluation

    def _evaluate(self, assignment: Mapping[str, object]) -> ProbePoint:
        """Evaluate (or recall) one probe; raises on budget/stop."""
        key = tuple(
            _format_value(assignment[axis_key]) for axis_key in self.space.axis_keys
        )
        existing = self._probes.get(key)
        if existing is not None:
            return existing
        if self.should_stop is not None and self.should_stop():
            raise _StopRequested()
        if self.budget is not None and len(self._probes) >= self.budget:
            raise _BudgetExhausted()
        started = time.perf_counter()
        # Normalize to axis-declaration order so the variant's derived name
        # (and therefore cache shard + report labels) matches what a sweep
        # over the same grid would produce.
        ordered = {key: assignment[key] for key in self.space.axis_keys}
        variant = self.space.scenario_for(self.base, ordered)
        context = SimulationContext(scenario=variant, disk_cache=self._cache)
        runner = run_experiments(
            only=self.experiments, benchmarks=self.benchmarks, context=context
        )
        metrics = {
            name: headline_metrics(result) for name, result in runner.results.items()
        }
        # Resolve every needed path now: a typo fails on the first probe with
        # the full list of available paths, not after the whole search.
        values = {
            path: extract_metric(metrics, path)
            for path in self.objective.metric_paths()
        }
        probe = ProbePoint(
            index=len(self._probes),
            assignment=ordered,
            scenario_name=variant.name,
            metrics=metrics,
            values=values,
            simulations=context.simulations_executed,
            elapsed_seconds=time.perf_counter() - started,
        )
        self._probes[key] = probe
        self._simulations += probe.simulations
        if self.on_probe is not None:
            self.on_probe(probe)
        return probe

    def _score(self, probe: ProbePoint) -> Tuple[int, float]:
        """Search-time ranking: tentative feasibility, then the primary objective.

        Feasibility here is *tentative* -- relative constraints resolve
        against the best value seen so far; the final result re-resolves them
        against the best over all probes.
        """
        best = self._best_seen()
        feasible = all(
            c.feasible(probe.values[c.metric], best.get(c.metric))
            for c in self.objective.constraints
        )
        primary = self.objective.primary
        return (1 if feasible else 0, primary.scalar(probe.values[primary.metric]))

    def _best_seen(self) -> Dict[str, float]:
        """Per constraint metric, the best value over the probes so far."""
        best: Dict[str, float] = {}
        for constraint in self.objective.constraints:
            values = [p.values[constraint.metric] for p in self._probes.values()]
            if values:
                pick = max if constraint.sense == "maximize" else min
                best[constraint.metric] = pick(values)
        return best

    def _trace_step(self, phase: str) -> None:
        primary = self.objective.primary
        best = max(
            (primary.scalar(p.values[primary.metric]) for p in self._probes.values()),
            default=float("-inf"),
        )
        self._trace.append(
            {
                "step": len(self._trace) + 1,
                "phase": phase,
                "probes": len(self._probes),
                "best": primary.sign * best,
            }
        )

    def _all_axes_numeric(self) -> bool:
        return all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for axis in self.space.axes
            for value in axis.values
        )

    # ------------------------------------------------------------------ drivers

    def _run_exhaustive(self) -> None:
        for assignment in self.space.assignments():
            self._evaluate(assignment)
        self._trace_step("exhaustive")

    def _run_descent(self) -> None:
        """Coordinate descent from the grid median + bracketing refinement."""
        sorted_values = {
            axis.key: sorted(axis.values) for axis in self.space.axes  # type: ignore[type-var]
        }
        current: Dict[str, object] = {
            key: values[(len(values) - 1) // 2]
            for key, values in sorted_values.items()
        }
        self._evaluate(current)
        self._trace_step("start")
        for pass_number in range(_MAX_PASSES):
            changed = False
            for key in self.space.axis_keys:
                best_value = current[key]
                best_score = self._score(self._evaluate(current))
                for value in sorted_values[key]:
                    probe = self._evaluate({**current, key: value})
                    score = self._score(probe)
                    if score > best_score:
                        best_score, best_value = score, value
                if best_value != current[key]:
                    current[key] = best_value
                    changed = True
            self._trace_step(f"pass {pass_number + 1}")
            if not changed:
                break
        # Bracketing refinement: probe midpoints between the winner and its
        # neighbours, walking off the declared grid.  Axes whose scenario
        # field rejects fractional values (integer counts) are skipped.
        candidates = {key: list(values) for key, values in sorted_values.items()}
        for level in range(self.refine):
            improved = False
            for key in self.space.axis_keys:
                values = candidates[key]
                position = values.index(current[key])
                midpoints = []
                if position > 0:
                    midpoints.append((values[position - 1] + values[position]) / 2.0)  # type: ignore[operator]
                if position < len(values) - 1:
                    midpoints.append((values[position] + values[position + 1]) / 2.0)  # type: ignore[operator]
                best_value = current[key]
                best_score = self._score(self._evaluate(current))
                for midpoint in midpoints:
                    if any(_format_value(midpoint) == _format_value(v) for v in values):
                        continue
                    try:
                        probe = self._evaluate({**current, key: midpoint})
                    except ValueError:
                        # Integer scenario fields reject fractional midpoints.
                        continue
                    values.append(midpoint)
                    values.sort()  # type: ignore[arg-type]
                    score = self._score(probe)
                    if score > best_score:
                        best_score, best_value = score, midpoint
                if best_value != current[key]:
                    current[key] = best_value
                    improved = True
            self._trace_step(f"refine {level + 1}")
            if not improved:
                break

    def _run_halving(self) -> None:
        """Successive halving over per-axis index windows."""
        axes = [sorted(axis.values, key=_format_value) for axis in self.space.axes]
        if self._all_axes_numeric():
            axes = [sorted(values) for values in axes]  # type: ignore[type-var]
        keys = self.space.axis_keys
        windows = [(0, len(values) - 1) for values in axes]
        strides = [max(1, len(values) // 2) for values in axes]
        for round_number in range(_MAX_ROUNDS):
            samples: List[List[int]] = []
            for (low, high), stride in zip(windows, strides):
                indices = list(range(low, high + 1, stride))
                if indices[-1] != high:
                    indices.append(high)
                samples.append(indices)
            grid: List[Dict[str, int]] = [{}]
            for key, indices in zip(keys, samples):
                grid = [
                    {**assignment, key: index}
                    for assignment in grid
                    for index in indices
                ]
            before = len(self._probes)
            round_probes: List[ProbePoint] = []
            seen_indices = set()
            for index_assignment in grid:
                probe = self._evaluate(
                    {
                        key: axes[position][index_assignment[key]]
                        for position, key in enumerate(keys)
                    }
                )
                if probe.index not in seen_indices:
                    seen_indices.add(probe.index)
                    round_probes.append(probe)
            self._trace_step(f"round {round_number + 1}")
            if all(stride == 1 for stride in strides) and len(self._probes) == before:
                break
            # Keep the better half of this round (ties keep earlier probes),
            # then shrink each axis window to the survivors' envelope.
            scores = {probe.index: self._score(probe) for probe in round_probes}
            ranked = sorted(
                round_probes,
                key=lambda probe: (scores[probe.index], -probe.index),
                reverse=True,
            )
            survivors = ranked[: max(1, (len(ranked) + 1) // 2)]
            for position, key in enumerate(keys):
                stride = strides[position]
                positions = [
                    axes[position].index(probe.assignment[key])
                    for probe in survivors
                ]
                low = max(0, min(positions) - max(0, stride - 1))
                high = min(
                    len(axes[position]) - 1, max(positions) + max(0, stride - 1)
                )
                windows[position] = (low, high)
                strides[position] = max(1, stride // 2)

    # ----------------------------------------------------------------- assembly

    def _assemble(self, budget_exhausted: bool) -> OptimizeResult:
        probes = list(self._probes.values())
        constraints = self.objective.constraints
        best_by_metric: Dict[str, float] = {}
        for constraint in constraints:
            values = [p.values[constraint.metric] for p in probes]
            if values:
                pick = max if constraint.sense == "maximize" else min
                best_by_metric[constraint.metric] = pick(values)
        thresholds: List[Dict[str, object]] = []
        for constraint in constraints:
            resolved = constraint.threshold(best_by_metric.get(constraint.metric))
            thresholds.append(
                {
                    "constraint": constraint.describe(),
                    "metric": constraint.metric,
                    "op": resolved[0] if resolved is not None else None,
                    "bound": resolved[1] if resolved is not None else None,
                }
            )
        feasible = [
            probe.index
            for probe in probes
            if all(
                c.feasible(probe.values[c.metric], best_by_metric.get(c.metric))
                for c in constraints
            )
        ]
        feasible_probes = [probes[index] for index in feasible]
        rows = [
            [probe.values[obj.metric] for obj in self.objective.objectives]
            for probe in feasible_probes
        ]
        senses = [obj.sense for obj in self.objective.objectives]
        frontier = [
            feasible_probes[position].index
            for position in pareto_indices(rows, senses)
        ]
        best: Dict[str, int] = {}
        for obj in self.objective.objectives:
            winner: Optional[ProbePoint] = None
            for probe in feasible_probes:
                if winner is None or obj.scalar(probe.values[obj.metric]) > obj.scalar(
                    winner.values[obj.metric]
                ):
                    winner = probe
            if winner is not None:
                best[obj.metric] = winner.index
        return OptimizeResult(
            objective=self.objective,
            space=self.space,
            base=self.base,
            driver=self.driver,
            budget=self.budget,
            budget_exhausted=budget_exhausted,
            probes=probes,
            feasible=feasible,
            frontier=frontier,
            best=best,
            thresholds=thresholds,
            trace=list(self._trace),
            simulations_executed=self._simulations,
        )


def _coerce_space(
    space: Union[SweepSpec, str, Mapping[str, Sequence[object]]],
) -> SweepSpec:
    """Coerce the search-space argument to a :class:`SweepSpec`."""
    if isinstance(space, SweepSpec):
        return space
    if isinstance(space, str):
        return SweepSpec.load(space)
    if isinstance(space, Mapping):
        return SweepSpec.from_axes(space, name="optimize-space")
    raise ValueError(
        f"the search space must be a SweepSpec, a preset/file name or an "
        f"{{axis: values}} mapping, got {type(space).__name__}"
    )


def run_optimize(
    objective: object,
    space: Union[SweepSpec, str, Mapping[str, Sequence[object]]],
    base: Optional[Scenario] = None,
    **kwargs,
) -> OptimizeResult:
    """One-call convenience wrapper around :class:`OptimizeDriver`."""
    return OptimizeDriver(objective, space, base, **kwargs).run()
