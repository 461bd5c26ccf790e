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
* :class:`~repro.sweep.runner.SweepRunner` is the one sweep executor: it
  checks the options, picks the backend, evaluates any slice of the grid
  -- in the calling process or, with ``jobs`` above one, over a
  ``ProcessPoolExecutor`` (the frozen point scenarios are pickled as they
  are; the models are pure Python, so points never fan out over threads)
  -- and assembles the result.  Every simulation is memoized in the
  persistent :class:`~repro.engine.diskcache.SimulationCache`, so repeated
  and overlapping sweeps are incremental.
* :mod:`~repro.sweep.vectorized` batches eligible sweeps: the registered
  strategies run once per frequency x PE-count batch on models whose PE
  frequency and PE count are numpy arrays, bit-exact against the scalar
  path (a hard equivalence gate re-checks fresh points).  ``SweepRunner``
  picks it automatically (``backend="auto"``).
* :mod:`~repro.sweep.queue` shards a grid into a filesystem work queue:
  independent worker processes rebuild the runner from the workdir's
  manifest, lease shards via atomic lockfiles, evaluate them through the
  runner and publish results into the shared disk cache; the runner's
  assembler merges the done-files into a
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
    "run_worker",
    "shard_ranges",
    "sweep_preset_names",
    "sweep_presets",
    "vectorization_blocker",
]
