"""Generalized design-space sweeps over scenario axes.

The evaluation figures are points in a much larger design space -- PE
frequency, PE count per vault, pipeline depth, host GPU, ... -- and this
package is the exploration tool for the rest of it:

* :class:`~repro.sweep.spec.SweepSpec` declares a sweep: one or more axes
  (dotted scenario override paths with the values to try), an optional
  benchmark restriction, the design points to evaluate and the simulation
  kind.  Specs are frozen, validated and JSON-round-trippable, like
  :class:`~repro.api.scenario.Scenario` and
  :class:`~repro.workloads.catalog.WorkloadSpec`; :func:`~repro.sweep.spec.
  sweep_presets` ships Fig. 18 as the ``fig18-frequency`` preset.
* :class:`~repro.sweep.runner.SweepRunner` expands the grid against a base
  scenario, executes the points in the calling process or, with ``jobs``
  above one, over a ``ProcessPoolExecutor`` (scenarios and results are
  frozen/JSON-serializable and cross process boundaries cleanly; the models
  are pure Python, so points never fan out over threads), and memoizes
  every simulation in the persistent
  :class:`~repro.engine.diskcache.SimulationCache`, so repeated and
  overlapping sweeps are incremental.
* :mod:`~repro.sweep.vectorized` batches eligible sweeps: the registered
  strategies run once per frequency plane on models whose PE frequency is a
  numpy array, bit-exact against the scalar path (a hard equivalence gate
  re-checks fresh points).  ``SweepRunner``
  picks it automatically (``backend="auto"``).
* :mod:`~repro.sweep.queue` shards a grid into a filesystem work queue:
  independent worker processes lease shards via atomic lockfiles, publish
  results into the shared disk cache, and a merger aggregates a
  :class:`~repro.sweep.runner.SweepResult`; killed sweeps resume
  (``repro sweep --workers N --resume``).

Quickstart::

    from repro.api import Session
    from repro.sweep import SweepSpec

    spec = SweepSpec.from_axes({"hmc.pe_frequency_mhz": [312.5, 625, 1250]})
    result = Session().sweep(spec, jobs=4)
    print(result.format_report())
"""

from repro.sweep.spec import (
    SweepAxis,
    SweepSpec,
    sweep_preset_names,
    sweep_presets,
)
from repro.sweep.runner import (
    BACKENDS,
    SweepCell,
    SweepPoint,
    SweepResult,
    SweepRunner,
    run_sweep,
)
from repro.sweep.vectorized import (
    VERIFY_MODES,
    VectorizedMismatchError,
    evaluate_grid,
    vectorization_blocker,
)
from repro.sweep.queue import (
    DEFAULT_SHARD_SIZE,
    queue_workdir,
    run_queued_sweep,
    run_worker,
    shard_ranges,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_SHARD_SIZE",
    "SweepAxis",
    "SweepCell",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "VERIFY_MODES",
    "VectorizedMismatchError",
    "evaluate_grid",
    "queue_workdir",
    "run_queued_sweep",
    "run_sweep",
    "run_worker",
    "shard_ranges",
    "sweep_preset_names",
    "sweep_presets",
    "vectorization_blocker",
]
