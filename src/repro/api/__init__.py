"""Stable public API of the PIM-CapsNet reproduction.

Everything a library consumer needs lives here:

* :class:`Scenario` -- a frozen, validated hardware + evaluation-slice
  configuration with JSON loading, named presets and dotted-path overrides.
* :class:`WorkloadSpec` / :class:`WorkloadCatalog` -- declarative capsule
  network workloads (dataset shape, capsule counts/dims, routing algorithm)
  merged on top of the Table-1 catalog via ``Scenario(workloads=...)``.
* :class:`Session` -- runs experiments under one scenario with full
  simulation reuse, returning typed results / rendered reports / JSON.
* :func:`compare_scenarios` -- the engine behind ``repro compare``: the same
  experiment selection under N scenarios, aligned into a delta table.
* :class:`SweepSpec` / :class:`SweepRunner` -- declarative design-space
  sweeps over scenario axes with process-parallel scalar points, batched
  numpy evaluation and a persistent on-disk result cache (the engine behind
  ``repro sweep --spec/--axis``).

Quickstart::

    from repro.api import Scenario, Session, WorkloadSpec, compare_scenarios

    base = Scenario.preset("paper-default")
    fast = base.with_set(["hmc.pe_frequency_mhz=625"])

    print(Session(base).report(["fig15"]))
    print(compare_scenarios([base, fast], only=["fig15"]).format_report())

    custom = base.with_workloads([WorkloadSpec(
        name="Caps-Big", dataset="MNIST", batch_size=256,
        num_low_capsules=4608, num_high_capsules=32,
    )])
    print(Session(custom).report(["fig15"]))   # Caps-Big rides along
"""

from repro.api.scenario import (
    PRESETS,
    Scenario,
    override_keys,
    preset_names,
)
from repro.api.session import (
    MetricDelta,
    ScenarioComparison,
    Session,
    SessionResult,
    compare_scenarios,
    headline_metrics,
)
from repro.sweep import (
    SweepAxis,
    SweepResult,
    SweepRunner,
    SweepSpec,
    sweep_preset_names,
)
from repro.optimize import (
    Constraint,
    Objective,
    ObjectiveSpec,
    OptimizeDriver,
    OptimizeResult,
    cache_frontier,
    run_optimize,
    sweep_frontier,
)
from repro.workloads.catalog import (
    RoutingAlgorithm,
    WorkloadCatalog,
    WorkloadSpec,
    default_catalog,
)

__all__ = [
    "PRESETS",
    "Constraint",
    "MetricDelta",
    "Objective",
    "ObjectiveSpec",
    "OptimizeDriver",
    "OptimizeResult",
    "RoutingAlgorithm",
    "Scenario",
    "ScenarioComparison",
    "Session",
    "SessionResult",
    "SweepAxis",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "WorkloadCatalog",
    "WorkloadSpec",
    "cache_frontier",
    "compare_scenarios",
    "default_catalog",
    "headline_metrics",
    "override_keys",
    "preset_names",
    "run_optimize",
    "sweep_frontier",
    "sweep_preset_names",
]
