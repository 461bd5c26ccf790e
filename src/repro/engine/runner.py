"""Engine runner: execute any subset of experiments over a shared context.

:func:`run_experiments` resolves names against the experiment registry,
validates them (unknown names raise :class:`ValueError` -- they used to be
silently ignored), runs the selected experiments one after another in the
calling thread over one shared
:class:`~repro.engine.context.SimulationContext`, and returns a
:class:`RunnerResult` whose reports come back in registry (report) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.engine.context import SimulationContext
from repro.engine.experiment import experiment_names, get_experiment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario


@dataclass
class RunnerResult:
    """Results and rendered reports of every executed experiment."""

    results: Dict[str, object] = field(default_factory=dict)
    reports: Dict[str, str] = field(default_factory=dict)
    context: Optional[SimulationContext] = None
    _dict: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def combined_report(self) -> str:
        """All reports concatenated with separators."""
        sections = []
        for name, report in self.reports.items():
            sections.append(f"{'=' * 78}\n{name}\n{'=' * 78}\n{report}")
        return "\n\n".join(sections)

    def to_dict(self) -> dict:
        """Structured output of every executed experiment, in report order.

        Built once and shared by later calls, so treat it as read-only:
        every session sharing a memoized run reads the same dict.  Serve
        lowers and encodes a memoized run's reply once per warm session and
        answers repeats from those bytes, so lowering is no longer part of a
        warm request's work.
        """
        if self._dict is None:
            self._dict = {
                name: get_experiment(name).to_dict(result)
                for name, result in self.results.items()
            }
        return self._dict


def select_experiments(
    only: Optional[List[str]] = None, skip: Optional[List[str]] = None
) -> List[str]:
    """Resolve an ``only``/``skip`` selection against the registry.

    Raises:
        ValueError: if ``only`` or ``skip`` name experiments that do not
            exist (listing the valid names).
    """
    known = experiment_names()
    _validate_names("only", only, known)
    _validate_names("skip", skip, known)
    skipped = set(skip or [])
    wanted = set(only) if only else None
    return [
        name
        for name in known
        if name not in skipped and (wanted is None or name in wanted)
    ]


def _validate_names(label: str, names: Optional[List[str]], known: List[str]) -> None:
    unknown = sorted(set(names or []) - set(known))
    if unknown:
        raise ValueError(
            f"unknown experiment name(s) in {label!r}: {unknown}; "
            f"valid names: {known}"
        )


def run_experiments(
    only: Optional[List[str]] = None,
    skip: Optional[List[str]] = None,
    benchmarks: Optional[List[str]] = None,
    context: Optional[SimulationContext] = None,
    scenario: Optional["Scenario"] = None,
) -> RunnerResult:
    """Run the selected experiments over one shared simulation context.

    Args:
        only: if given, run only these experiments.
        skip: experiment names to skip.
        benchmarks: restrict every experiment to these Table-1 benchmarks
            (defaults to the scenario's own selection, then all of Table 1).
        context: shared simulation context (a fresh one by default); its
            scenario supplies the hardware.
        scenario: hardware scenario for the new default context.  When
            ``context`` is also passed the two must agree -- a differing
            scenario raises :class:`ValueError` (it used to be silently
            ignored, letting callers run under the wrong hardware unnoticed).

    Raises:
        ValueError: on unknown experiment names, or when ``context`` and
            ``scenario`` disagree about the hardware.
    """
    names = select_experiments(only=only, skip=skip)
    if context is not None and scenario is not None and scenario != context.scenario:
        raise ValueError(
            f"run_experiments got both a context (scenario "
            f"{context.scenario.name!r}) and a different scenario "
            f"({scenario.name!r}); pass one of them, or a context built "
            f"from that scenario"
        )
    ctx = context if context is not None else SimulationContext(scenario=scenario)
    if benchmarks is None:
        benchmarks = ctx.scenario.benchmark_selection()
    result = RunnerResult(context=ctx)
    if not names:
        return result

    for name in names:
        experiment = get_experiment(name)
        experiment_result = experiment.run(ctx, benchmarks=benchmarks)
        result.results[name] = experiment_result
        result.reports[name] = experiment.format_report(experiment_result)
    if ctx.disk_cache is not None:
        # Publish buffered entries so the next process starts warm.
        ctx.disk_cache.flush()
    return result
