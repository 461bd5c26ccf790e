"""Experiment base class and registry.

Every reproduction experiment (one per evaluation figure/table of the paper)
is an :class:`Experiment` subclass registered under its short name
(``"fig15"``, ``"table5"``, ...).  The engine runner, the CLI and the
library API all resolve experiments here.

An experiment implements

* :meth:`Experiment.run` -- compute the structured result, pulling shared
  simulations from the :class:`~repro.engine.context.SimulationContext`,
* :meth:`Experiment.format_report` -- render the plain-text table(s), and
* :meth:`Experiment.to_dict` -- structured (JSON-ready) output; the default
  lowers the result with :func:`repro.engine.serialize.to_jsonable`.

The built-in experiments live next to their ``run()`` / ``format_report()``
module functions in :mod:`repro.experiments` and are loaded lazily, in the
paper's figure order, on first registry access.
"""

from __future__ import annotations

import importlib
import threading
from typing import Dict, List, Optional

from repro.engine.context import SimulationContext
from repro.engine.serialize import to_jsonable

#: Modules defining (and registering) the built-in experiments, in report order.
_BUILTIN_MODULES = (
    "repro.experiments.fig04_layer_breakdown",
    "repro.experiments.fig05_stall_breakdown",
    "repro.experiments.fig06_onchip_storage",
    "repro.experiments.fig07_bandwidth",
    "repro.experiments.fig15_rp_acceleration",
    "repro.experiments.fig16_pim_breakdown",
    "repro.experiments.fig17_end_to_end",
    "repro.experiments.fig18_frequency_sweep",
    "repro.experiments.table05_accuracy",
    "repro.experiments.overhead",
)

#: Canonical report order of the built-in experiments.  Experiment modules
#: self-register on import, so the registry's insertion order depends on
#: which module happened to be imported first; this list pins the order the
#: combined report (and ``experiment_names``) always uses.  Custom
#: experiments sort after the built-ins, in registration order.
_CANONICAL_ORDER = (
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "table5",
    "overhead",
)

_REGISTRY: Dict[str, "Experiment"] = {}
_REGISTRY_LOCK = threading.RLock()
_BUILTINS_LOADED = False
_BUILTINS_LOADING = False


class Experiment:
    """One reproduction experiment (a figure or table of the paper)."""

    #: Registry name (``"fig15"``, ``"table5"``, ...).
    name: str = ""
    #: Human-readable one-liner (shown in structured output).
    title: str = ""
    #: True for experiments that are orders of magnitude slower than the rest
    #: (currently only Table 5, which trains networks).
    slow: bool = False

    def run(self, context: SimulationContext, benchmarks: Optional[List[str]] = None):
        """Compute the structured result object.

        ``context`` carries the hardware :class:`~repro.api.scenario.Scenario`
        (``context.scenario``) every simulation must be built from --
        experiments must not assume default hardware themselves.
        ``benchmarks`` (already defaulted from the scenario by the runner)
        restricts the Table-1 benchmarks evaluated.
        """
        raise NotImplementedError

    def format_report(self, result) -> str:
        """Render the result as the plain-text report."""
        raise NotImplementedError

    def to_dict(self, result) -> dict:
        """Structured output (JSON-ready) for the result."""
        return {
            "experiment": self.name,
            "title": self.title,
            "data": to_jsonable(result),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def register_experiment(experiment_cls):
    """Class decorator registering an :class:`Experiment` subclass."""
    experiment = experiment_cls()
    if not experiment.name:
        raise ValueError(f"{experiment_cls.__name__} has no registry name")
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(experiment.name)
        if existing is not None and type(existing) is not experiment_cls:
            raise ValueError(f"an experiment is already registered as {experiment.name!r}")
        _REGISTRY[experiment.name] = experiment
    return experiment_cls


def get_experiment(name: str) -> Experiment:
    """Look up one registered experiment by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; valid names: {experiment_names()}"
        ) from None


def experiment_names() -> List[str]:
    """Registered experiment names in canonical report order."""
    _ensure_builtins()
    with _REGISTRY_LOCK:
        names = list(_REGISTRY)
    rank = {name: index for index, name in enumerate(_CANONICAL_ORDER)}
    return sorted(names, key=lambda name: rank.get(name, len(_CANONICAL_ORDER)))


def _ensure_builtins() -> None:
    """Import the built-in experiment modules exactly once, in report order.

    The imports happen under the (reentrant) registry lock so concurrent
    callers never observe a partially populated registry; the loading flag
    short-circuits the recursive :func:`register_experiment` calls the
    imports themselves make.
    """
    global _BUILTINS_LOADED, _BUILTINS_LOADING
    if _BUILTINS_LOADED:
        return
    with _REGISTRY_LOCK:
        if _BUILTINS_LOADED or _BUILTINS_LOADING:
            return
        _BUILTINS_LOADING = True
        try:
            for module in _BUILTIN_MODULES:
                importlib.import_module(module)
            _BUILTINS_LOADED = True
        finally:
            _BUILTINS_LOADING = False
