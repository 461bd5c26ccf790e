"""Unified experiment engine.

The engine splits the reproduction harness into three pluggable layers:

* :mod:`repro.engine.strategies` -- the *strategy* layer: every design point
  evaluated by the paper (and any custom one) is a
  :class:`~repro.engine.strategies.DesignPointStrategy` behind a registry, so
  new scenarios are added by registration instead of editing
  :mod:`repro.core.accelerator`.
* :mod:`repro.engine.context` -- the *simulation* layer: a
  :class:`~repro.engine.context.SimulationContext` memoizes
  :class:`~repro.core.accelerator.PIMCapsNet` instances and their
  ``(benchmark, design)`` routing / end-to-end results so independent
  experiments never pay for the same simulation twice.
* :mod:`repro.engine.experiment` -- the *experiment* layer: an
  :class:`~repro.engine.experiment.Experiment` base class plus a registry
  with structured :meth:`~repro.engine.experiment.Experiment.to_dict`
  output next to the plain-text reports, and :mod:`repro.engine.runner` to
  execute any subset of experiments over a shared context.

Every simulation runs in the thread that asks for it: the analytic models
are pure Python, so a thread pool would only add interpreter-lock
contention.  The shared state stays lock-protected because serve's handler
threads share one context per warm scenario.
"""

from repro.engine.context import CacheStats, SimulationContext
from repro.engine.experiment import (
    Experiment,
    experiment_names,
    get_experiment,
    register_experiment,
)
from repro.engine.runner import RunnerResult, run_experiments
from repro.engine.serialize import to_jsonable
from repro.engine.strategies import (
    DesignPointStrategy,
    design_key,
    get_strategy,
    register_strategy,
    strategy_names,
    unregister_strategy,
)

__all__ = [
    "CacheStats",
    "DesignPointStrategy",
    "Experiment",
    "RunnerResult",
    "SimulationContext",
    "design_key",
    "experiment_names",
    "get_experiment",
    "get_strategy",
    "register_experiment",
    "register_strategy",
    "run_experiments",
    "strategy_names",
    "to_jsonable",
    "unregister_strategy",
]
