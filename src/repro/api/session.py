"""Session facade: run experiments under one typed hardware scenario.

A :class:`Session` owns the :class:`~repro.engine.context.SimulationContext`
of one :class:`~repro.api.scenario.Scenario` and exposes the library
workflow::

    from repro.api import Scenario, Session

    session = Session(Scenario.preset("paper-default"))
    result = session.run(["fig15", "fig17"])     # typed results
    print(result.report())                       # rendered tables
    result.to_dict()                             # structured (JSON-ready)

Repeated :meth:`Session.run` calls for the same selection are cache hits:
the underlying context memoizes every ``(benchmark, design)`` simulation and
the session memoizes whole runs, so nothing is ever simulated twice for one
scenario.

:func:`compare_scenarios` runs the same experiment selection under several
scenarios, one after another (one cached session each), and aligns their
headline metrics into a side-by-side delta table (text or JSON) -- the
engine behind ``repro compare``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.api.scenario import Scenario
from repro.engine.context import SimulationContext
from repro.engine.experiment import experiment_names, get_experiment
from repro.engine.runner import RunnerResult, run_experiments
from repro.engine.serialize import to_jsonable


@dataclass
class SessionResult:
    """Typed results of one :meth:`Session.run` (scenario + runner outcome)."""

    scenario: Scenario
    runner: RunnerResult

    @property
    def results(self) -> Dict[str, object]:
        """Experiment name -> typed result object, in report order."""
        return self.runner.results

    @property
    def reports(self) -> Dict[str, str]:
        """Experiment name -> rendered plain-text report."""
        return self.runner.reports

    def report(self) -> str:
        """Every report concatenated with ``===`` section separators."""
        return self.runner.combined_report()

    def to_dict(self) -> dict:
        """Structured output: the scenario plus every experiment's data."""
        return {
            "scenario": self.scenario.to_dict(),
            "experiments": self.runner.to_dict(),
        }

    def metrics(self) -> Dict[str, Dict[str, float]]:
        """Experiment name -> headline scalar metrics (see :func:`headline_metrics`)."""
        return {
            name: headline_metrics(result)
            for name, result in self.results.items()
        }


def headline_metrics(result: object) -> Dict[str, float]:
    """The scalar headline numbers of one experiment result.

    Every experiment result is a dataclass whose top-level numeric fields
    are exactly the averages/maxima its report quotes against the paper
    (``average_speedup``, ``total_area_mm2``, ...); nested rows/cells are
    per-benchmark detail and are skipped.
    """
    if not dataclasses.is_dataclass(result) or isinstance(result, type):
        return {}
    metrics: Dict[str, float] = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and math.isfinite(value):
            metrics[f.name] = float(value)
    return metrics


class Session:
    """Facade running experiments under one scenario with full result reuse.

    Args:
        scenario: hardware scenario (the paper default when omitted).
        context: adopt an existing context instead of creating one (its
            scenario must match; used by tests and advanced embedding).
    """

    def __init__(
        self,
        scenario: Optional[Scenario] = None,
        *,
        context: Optional[SimulationContext] = None,
    ) -> None:
        self.scenario = scenario if scenario is not None else Scenario.default()
        if context is not None and context.scenario != self.scenario:
            raise ValueError("the adopted context simulates a different scenario")
        self.context = context or SimulationContext(scenario=self.scenario)
        self._runs: Dict[Tuple, SessionResult] = {}

    def run(
        self,
        names: Optional[Sequence[str]] = None,
        *,
        skip: Optional[Sequence[str]] = None,
        benchmarks: Optional[Sequence[str]] = None,
    ) -> SessionResult:
        """Run a selection of experiments (all of them by default).

        Identical selections return the memoized :class:`SessionResult`;
        overlapping selections still share every underlying simulation
        through the scenario's context.
        """
        key = (
            tuple(names) if names is not None else None,
            tuple(skip) if skip is not None else None,
            tuple(benchmarks) if benchmarks is not None else None,
        )
        cached = self._runs.get(key)
        if cached is not None:
            return cached
        runner = run_experiments(
            only=list(names) if names is not None else None,
            skip=list(skip) if skip is not None else None,
            benchmarks=list(benchmarks) if benchmarks is not None else None,
            context=self.context,
        )
        result = SessionResult(scenario=self.scenario, runner=runner)
        self._runs[key] = result
        return result

    def report(self, names: Optional[Sequence[str]] = None, **kwargs) -> str:
        """Rendered combined report of :meth:`run`."""
        return self.run(names, **kwargs).report()

    def sweep(self, spec, **kwargs):
        """Run a design-space sweep with this session's scenario as the base.

        ``spec`` is a :class:`~repro.sweep.spec.SweepSpec`, a preset name or
        a JSON spec file path; keyword arguments (``jobs``, ``backend``,
        ``cache_dir``, ``use_cache``) pass through to
        :class:`~repro.sweep.runner.SweepRunner`.  Returns the
        :class:`~repro.sweep.runner.SweepResult`.
        """
        # Imported lazily: repro.sweep imports the scenario layer.
        from repro.sweep.runner import SweepRunner

        return SweepRunner(spec, self.scenario, **kwargs).run()

    def optimize(self, objective, space, **kwargs):
        """Search a design space with this session's scenario as the base.

        ``objective`` is anything :meth:`~repro.optimize.objective.
        ObjectiveSpec.coerce` accepts (``"fig17.average_speedup"``, an
        :class:`~repro.optimize.objective.ObjectiveSpec`, ...); ``space`` is
        a :class:`~repro.sweep.spec.SweepSpec`, a preset/file name or an
        ``{axis: values}`` mapping; keyword arguments (``budget``,
        ``driver``, ``constraints`` via the spec, ``cache_dir``, ...) pass
        through to :class:`~repro.optimize.drivers.OptimizeDriver`.  Returns
        the :class:`~repro.optimize.result.OptimizeResult`.
        """
        # Imported lazily: repro.optimize imports the scenario layer.
        from repro.optimize.drivers import OptimizeDriver

        return OptimizeDriver(objective, space, self.scenario, **kwargs).run()

    # ------------------------------------------------- simulation pass-throughs

    def model(self, benchmark, **kwargs):
        """The scenario's memoized accelerator model for one benchmark."""
        return self.context.model(benchmark, **kwargs)

    def routing(self, benchmark, design, **kwargs):
        """Memoized routing-procedure result under this scenario."""
        return self.context.routing(benchmark, design, **kwargs)

    def end_to_end(self, benchmark, design, **kwargs):
        """Memoized end-to-end result under this scenario."""
        return self.context.end_to_end(benchmark, design, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session(scenario={self.scenario.name!r})"


@dataclass
class MetricDelta:
    """One aligned headline metric across every compared scenario."""

    experiment: str
    metric: str
    values: List[float]

    def delta(self, index: int) -> float:
        """Absolute difference of scenario ``index`` vs. the first scenario."""
        return self.values[index] - self.values[0]

    def delta_percent(self, index: int) -> float:
        """Relative difference (%) of scenario ``index`` vs. the first scenario."""
        base = self.values[0]
        if base == 0:
            return math.inf if self.values[index] != 0 else 0.0
        return 100.0 * (self.values[index] / base - 1.0)


@dataclass
class ScenarioComparison:
    """Side-by-side results of running one selection under N scenarios."""

    labels: List[str]
    sessions: List[SessionResult]
    deltas: List[MetricDelta] = field(default_factory=list)

    @property
    def scenarios(self) -> List[Scenario]:
        """The compared scenarios, in comparison order."""
        return [session.scenario for session in self.sessions]

    def format_report(self) -> str:
        """Render the delta table (plus the scenario legend)."""
        legend = "\n".join(
            f"  [{label}] {session.scenario.describe()}"
            for label, session in zip(self.labels, self.sessions)
        )
        headers = ["Experiment", "Metric"] + list(self.labels)
        for label in self.labels[1:]:
            headers.append(f"d% {label}")
        rows: List[List[object]] = []
        for delta in self.deltas:
            row: List[object] = [delta.experiment, delta.metric] + list(delta.values)
            for index in range(1, len(self.labels)):
                row.append(delta.delta_percent(index))
            rows.append(row)
        table = format_table(
            headers,
            rows,
            title=f"Scenario comparison ({len(self.labels)} scenarios)",
        )
        return f"Scenarios:\n{legend}\n\n{table}"

    def to_dict(self) -> dict:
        """Structured output: scenarios, aligned metrics and full experiment data."""
        return {
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
            "metrics": [
                {
                    "experiment": delta.experiment,
                    "metric": delta.metric,
                    "values": {
                        label: value
                        for label, value in zip(self.labels, delta.values)
                    },
                    "delta_percent": {
                        label: to_jsonable(delta.delta_percent(index))
                        for index, label in enumerate(self.labels)
                        if index > 0
                    },
                }
                for delta in self.deltas
            ],
            "experiments": {
                label: session.runner.to_dict()
                for label, session in zip(self.labels, self.sessions)
            },
        }


def compare_scenarios(
    scenarios: Sequence[Scenario],
    *,
    only: Optional[Sequence[str]] = None,
    skip: Optional[Sequence[str]] = None,
    benchmarks: Optional[Sequence[str]] = None,
    sessions: Optional[Sequence[Session]] = None,
) -> ScenarioComparison:
    """Run one experiment selection under several scenarios and align results.

    Scenarios run one after another in the calling thread, each over its
    own cached session (pass ``sessions`` to reuse already-warm ones).
    Unless ``only`` names them explicitly, slow experiments (Table 5 trains
    networks and is hardware-insensitive) are skipped.

    Args:
        scenarios: the scenarios to compare (at least one; ``repro compare``
            requires two).
        only: run only these experiments.
        skip: additional experiments to skip.
        benchmarks: restrict every run to these Table-1 benchmarks
            (defaults to each scenario's own selection).
        sessions: existing sessions to reuse, matched to ``scenarios`` by
            position (missing/None entries get fresh sessions).
    """
    if not scenarios:
        raise ValueError("compare needs at least one scenario")
    if only is None:
        slow = [name for name in experiment_names() if get_experiment(name).slow]
        skip = sorted(set(skip or []) | set(slow))
    labels = _unique_labels([scenario.name for scenario in scenarios])
    results: List[SessionResult] = []
    for index, scenario in enumerate(scenarios):
        existing = sessions[index] if sessions is not None and index < len(sessions) else None
        if existing is not None:
            if existing.scenario != scenario:
                raise ValueError(f"session {index} was built for a different scenario")
            session = existing
        else:
            session = Session(scenario)
        results.append(session.run(only, skip=skip, benchmarks=benchmarks))

    return ScenarioComparison(
        labels=labels,
        sessions=results,
        deltas=_align_metrics(results),
    )


def _unique_labels(names: Sequence[str]) -> List[str]:
    labels: List[str] = []
    seen: Dict[str, int] = {}
    for name in names:
        count = seen.get(name, 0)
        seen[name] = count + 1
        labels.append(name if count == 0 else f"{name}#{count + 1}")
    return labels


def _align_metrics(results: Sequence[SessionResult]) -> List[MetricDelta]:
    """Headline metrics present in every compared run, in report order."""
    per_run = [result.metrics() for result in results]
    deltas: List[MetricDelta] = []
    for experiment, metrics in per_run[0].items():
        for metric in metrics:
            if all(
                experiment in other and metric in other[experiment]
                for other in per_run[1:]
            ):
                deltas.append(
                    MetricDelta(
                        experiment=experiment,
                        metric=metric,
                        values=[other[experiment][metric] for other in per_run],
                    )
                )
    return deltas
