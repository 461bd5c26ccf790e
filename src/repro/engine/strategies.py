"""Design-point strategy layer.

Historically :meth:`repro.core.accelerator.PIMCapsNet.simulate_routing` and
:meth:`~repro.core.accelerator.PIMCapsNet.simulate_end_to_end` were a
monolithic if/elif dispatch over :class:`~repro.core.accelerator.DesignPoint`,
so every new scenario (a scheduler policy, a mapping variant, a different
vault organization) meant editing the core model.  This module turns each
design point into a :class:`DesignPointStrategy` behind a registry:

* the built-in strategies (one per :class:`DesignPoint` member) live in
  :mod:`repro.engine.design_points` and are registered lazily on first use;
* custom scenarios register with :func:`register_strategy` and immediately
  work through the unchanged ``PIMCapsNet`` facade::

      class MyDesign(DesignPointStrategy):
          key = "my-design"

          def simulate_routing(self, model, design=None):
              ...

      register_strategy(MyDesign())
      PIMCapsNet("Caps-MN1").simulate_routing("my-design")

Registry keys are plain strings; :func:`design_key` maps both enum members
(via their ``value``) and raw strings onto them, so ``DesignPoint.PIM_CAPSNET``
and ``"pim-capsnet"`` name the same strategy.
"""

from __future__ import annotations

import functools
import threading
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.accelerator import EndToEndComparison, RoutingComparison

#: Anything that names a design point: an enum member or its string key.
DesignLike = Union[str, Enum]

_REGISTRY: Dict[str, "DesignPointStrategy"] = {}
_REGISTRY_LOCK = threading.RLock()
_BUILTINS_LOADED = False
_BUILTINS_LOADING = False


def design_key(design: DesignLike) -> str:
    """Canonical registry key of a design point (enum value or raw string)."""
    if isinstance(design, Enum):
        return str(design.value)
    return str(design)


@functools.lru_cache(maxsize=256)
def resolve_design(design: DesignLike) -> DesignLike:
    """Map a design key onto its :class:`~repro.core.accelerator.DesignPoint`.

    Keys naming a paper design point come back as the enum member (so result
    dictionaries keyed by design stay uniform); keys of custom registered
    strategies come back as their canonical string.  Memoized: the disk
    cache resolves a design key per decoded hit, and the answer depends only
    on the ``DesignPoint`` enum, never on the strategy registry.
    """
    from repro.core.accelerator import DesignPoint  # lazy: import cycle guard

    key = design_key(design)
    try:
        return DesignPoint(key)
    except ValueError:
        return key


def resolve_designs(selection, default):
    """Resolve a scenario's design-point selection for an evaluation figure.

    ``selection`` is the optional tuple of design keys carried by a
    :class:`~repro.api.scenario.Scenario`; ``None`` keeps the figure's paper
    ``default`` list.  The GPU baseline is always evaluated first -- every
    figure normalizes its bars against it.
    """
    from repro.core.accelerator import DesignPoint  # lazy: import cycle guard

    if selection is None:
        return list(default)
    resolved = [resolve_design(design) for design in selection]
    ordered = [design for design in resolved if design is not DesignPoint.BASELINE_GPU]
    return [DesignPoint.BASELINE_GPU] + ordered


def headline_design(designs):
    """The design whose averages an evaluation report quotes.

    PIM-CapsNet when evaluated, otherwise the last (non-baseline) design of
    the selection.
    """
    from repro.core.accelerator import DesignPoint  # lazy: import cycle guard

    if DesignPoint.PIM_CAPSNET in designs:
        return DesignPoint.PIM_CAPSNET
    return designs[-1]


class DesignPointStrategy:
    """One design point's simulation recipe.

    Subclasses set :attr:`key` and override one or both of the simulation
    hooks.  The ``model`` argument is the :class:`~repro.core.accelerator.
    PIMCapsNet` facade, which exposes the substrates (``model.gpu``,
    ``model.distributor``, ``model.hmc_power``, ...) plus the shared helpers
    ``model.host_stage()``, ``model.hmc_device()`` and
    ``model.distribution_plan()``.  ``design`` is the object the caller passed
    to the facade (usually a :class:`~repro.core.accelerator.DesignPoint`
    member) and should be stored in the returned comparison so result
    dictionaries keep their original keys; it defaults to :attr:`key`.

    Results, plans and ``host_stage()`` are immutable and shared by every
    caller, so a strategy never changes one in place: it derives a new
    result with :func:`dataclasses.replace`, e.g.
    ``replace(result, time_seconds=2 * result.time_seconds)``.
    """

    #: Registry key (the design point's string identity).
    key: str = ""

    def simulate_routing(self, model, design: DesignLike | None = None) -> "RoutingComparison":
        """Routing-procedure time and energy for this design point."""
        raise NotImplementedError(
            f"design point {self.key!r} does not model the routing procedure"
        )

    def simulate_end_to_end(self, model, design: DesignLike | None = None) -> "EndToEndComparison":
        """Whole-inference latency and energy for this design point."""
        raise NotImplementedError(
            f"design point {self.key!r} does not model end-to-end execution"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(key={self.key!r})"


def register_strategy(
    strategy: DesignPointStrategy, *, replace: bool = False
) -> DesignPointStrategy:
    """Register a strategy under its :attr:`~DesignPointStrategy.key`.

    Args:
        strategy: the strategy instance to register.
        replace: allow overwriting an existing registration.

    Returns:
        The registered strategy (so the call composes as a decorator-ish
        one-liner: ``strategy = register_strategy(MyStrategy())``).
    """
    key = design_key(strategy.key)
    if not key:
        raise ValueError(f"{type(strategy).__name__} has no registry key")
    _ensure_builtins()
    with _REGISTRY_LOCK:
        if not replace and key in _REGISTRY:
            raise ValueError(f"a strategy is already registered for {key!r}")
        _REGISTRY[key] = strategy
    return strategy


def unregister_strategy(design: DesignLike) -> None:
    """Remove a registered strategy (mainly for tests)."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(design_key(design), None)


def get_strategy(design: DesignLike) -> DesignPointStrategy:
    """Look up the strategy simulating ``design``."""
    _ensure_builtins()
    key = design_key(design)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"no strategy registered for design point {key!r}; "
            f"known design points: {strategy_names()}"
        ) from None


def strategy_names() -> List[str]:
    """Registered design-point keys, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def _ensure_builtins() -> None:
    """Load the built-in strategies exactly once.

    Deferred so that :mod:`repro.core.accelerator` (which the built-ins
    import) is fully initialized before they register.  The import happens
    under the (reentrant) registry lock so concurrent callers never observe
    a partially populated registry; the loading flag short-circuits the
    recursive :func:`register_strategy` calls the import itself makes.
    """
    global _BUILTINS_LOADED, _BUILTINS_LOADING
    if _BUILTINS_LOADED:
        return
    with _REGISTRY_LOCK:
        if _BUILTINS_LOADED or _BUILTINS_LOADING:
            return
        _BUILTINS_LOADING = True
        try:
            import repro.engine.design_points  # noqa: F401  (registers on import)

            _BUILTINS_LOADED = True
        finally:
            _BUILTINS_LOADING = False
