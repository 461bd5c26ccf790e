"""PIM-CapsNet reproduction library.

A from-scratch Python reproduction of *"Enabling Highly Efficient Capsule
Networks Processing Through A PIM-Based Architecture Design"* (HPCA 2020):

* :mod:`repro.capsnet`    -- functional CapsNet model (numpy) with dynamic /
  EM routing, training and synthetic datasets.
* :mod:`repro.arithmetic` -- the PE's bit-level approximate arithmetic and
  accuracy recovery.
* :mod:`repro.workloads`  -- analytic op / traffic models of the Table-1
  benchmarks, plus declarative :class:`WorkloadSpec` definitions and the
  :class:`WorkloadCatalog` resolving user-defined capsule networks.
* :mod:`repro.gpu`        -- GPU timing & energy model (baseline / host).
* :mod:`repro.hmc`        -- Hybrid Memory Cube simulator (vaults, banks,
  crossbar, PEs, power, thermal).
* :mod:`repro.core`       -- the PIM-CapsNet accelerator: inter-/intra-vault
  workload distribution, RMAS, pipelining and design-point comparisons.
* :mod:`repro.engine`     -- the experiment engine: pluggable design-point
  strategies, the memoizing simulation context and the experiment runner.
* :mod:`repro.experiments`-- drivers reproducing every evaluation figure and
  table of the paper.
* :mod:`repro.api`        -- the stable public API: typed hardware
  :class:`~repro.api.Scenario` configurations (carrying workload catalogs),
  the :class:`~repro.api.Session` facade and
  :func:`~repro.api.compare_scenarios`.
"""

from repro.api import (
    ObjectiveSpec,
    Scenario,
    Session,
    SweepSpec,
    compare_scenarios,
    run_optimize,
)
from repro.core.accelerator import DesignPoint, PIMCapsNet
from repro.workloads.benchmarks import BENCHMARKS, BenchmarkConfig, get_benchmark
from repro.workloads.catalog import (
    RoutingAlgorithm,
    WorkloadCatalog,
    WorkloadSpec,
    default_catalog,
)

__version__ = "0.11.0"

__all__ = [
    "ObjectiveSpec",
    "Scenario",
    "Session",
    "SweepSpec",
    "compare_scenarios",
    "run_optimize",
    "DesignPoint",
    "PIMCapsNet",
    "BENCHMARKS",
    "BenchmarkConfig",
    "get_benchmark",
    "RoutingAlgorithm",
    "WorkloadCatalog",
    "WorkloadSpec",
    "default_catalog",
    "__version__",
]
