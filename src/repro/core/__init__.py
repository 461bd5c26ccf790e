"""PIM-CapsNet: the paper's primary contribution.

The core package wires the substrates together into the hybrid GPU + HMC
accelerator the paper proposes:

* :mod:`repro.core.distribution` -- the inter-vault workload distributor:
  models the per-vault workload ``E`` and the inter-vault traffic ``M`` for
  the three parallelization dimensions (Eqs. 6-12) and picks the dimension
  with the best execution score ``S = 1/(alpha*E + beta*M)``.
* :mod:`repro.core.intra_vault` -- lowers routing equations to PE operation
  mixes and distributes them over a vault's 16 PEs (Sec. 5.2.1).
* :mod:`repro.core.rmas` -- the runtime memory access scheduler arbitrating
  GPU vs. PE requests (Sec. 5.3.2, Eq. 15).
* :mod:`repro.core.pipeline` -- the host/HMC batch pipeline (Sec. 4).
* :mod:`repro.core.accelerator` -- the top-level :class:`PIMCapsNet` model and
  the design-point variants evaluated in Figs. 15-17.
"""

from repro.core.distribution import (
    DistributionPlan,
    ExecutionScoreModel,
    WorkloadDistributor,
)
from repro.core.intra_vault import IntraVaultDistributor, lower_routing_to_operations
from repro.core.rmas import ContentionModel, RMASDecision, RuntimeMemoryAccessScheduler, SchedulerPolicy
from repro.core.pipeline import PipelineModel, PipelineTiming
from repro.core.accelerator import (
    DesignPoint,
    PIMCapsNet,
    RoutingComparison,
    EndToEndComparison,
)

__all__ = [
    "DistributionPlan",
    "ExecutionScoreModel",
    "WorkloadDistributor",
    "IntraVaultDistributor",
    "lower_routing_to_operations",
    "ContentionModel",
    "RMASDecision",
    "RuntimeMemoryAccessScheduler",
    "SchedulerPolicy",
    "PipelineModel",
    "PipelineTiming",
    "DesignPoint",
    "PIMCapsNet",
    "RoutingComparison",
    "EndToEndComparison",
]
