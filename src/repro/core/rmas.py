"""Runtime Memory Access Scheduler (RMAS, Sec. 5.3.2).

When the host GPU (running Conv/PrimaryCaps/FC of the next batch) and the
vault PEs (running the routing procedure of the current batch) request data
from the same vaults, someone has to wait.  The RMAS picks, per scheduling
epoch, how many of the vaults targeted by the host (``n_h`` out of
``n_max``) grant the host priority, minimizing the overhead function of
Eq. 15::

    kappa = gamma_v * n_h * Q  +  gamma_h * n_max / n_h

where ``Q`` is the average PE request queue depth of the targeted vaults and
``gamma_v`` / ``gamma_h`` weight how sensitive the HMC-side and host-side
work are to memory service delays.  The optimum is
``n_h* = sqrt(n_max * gamma_h / (Q * gamma_v))`` clamped to ``[1, n_max]``.

Two naive policies are modelled for the Fig. 17 comparison: always giving
the PEs priority (RMAS-PIM) and always giving the GPU priority (RMAS-GPU).
The scheduler's decision is translated into multiplicative slowdowns of the
two pipeline stages by :class:`ContentionModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.elementwise import all_true, any_true, first_minimum, maximum


class SchedulerPolicy(str, Enum):
    """Memory access scheduling policies compared in Fig. 17."""

    RMAS = "rmas"            #: the paper's runtime scheduler (Eq. 15)
    PIM_PRIORITY = "rmas-pim"  #: naive: HMC PEs always win
    GPU_PRIORITY = "rmas-gpu"  #: naive: host GPU always wins

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RMASDecision:
    """Outcome of one RMAS scheduling decision.

    Attributes:
        host_priority_vaults: ``n_h`` -- vaults granting the host priority.
        targeted_vaults: ``n_max`` -- vaults the host is requesting from.
        overhead: the value of the Eq. 15 overhead function at the decision.
    """

    host_priority_vaults: int
    targeted_vaults: int
    overhead: float

    @property
    def host_share(self) -> float:
        """Fraction of targeted vaults that serve the host first."""
        if self.targeted_vaults == 0:
            return 0.0
        return self.host_priority_vaults / float(self.targeted_vaults)


@dataclass(frozen=True)
class RuntimeMemoryAccessScheduler:
    """The RMAS decision model.

    Attributes:
        gamma_vault: impact factor of delaying the HMC-side (PE) requests;
            larger when the routing phase is memory sensitive.
        gamma_host: impact factor of delaying the host's requests; larger
            when the host layers are memory intensive.
    """

    gamma_vault: float = 1.0
    gamma_host: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma_vault <= 0 or self.gamma_host <= 0:
            raise ValueError("impact factors must be positive")

    def overhead(self, host_priority_vaults: int, targeted_vaults: int, queue_depth: float) -> float:
        """Evaluate the Eq. 15 overhead for a candidate ``n_h``."""
        if targeted_vaults < 1:
            raise ValueError("targeted_vaults must be positive")
        if not 0 <= host_priority_vaults <= targeted_vaults:
            raise ValueError("host_priority_vaults must lie in [0, targeted_vaults]")
        if queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        vault_term = self.gamma_vault * host_priority_vaults * queue_depth
        if host_priority_vaults == 0:
            host_term = self.gamma_host * targeted_vaults * 2.0  # host fully stalled
        else:
            host_term = self.gamma_host * targeted_vaults / host_priority_vaults
        return vault_term + host_term

    def decide(self, targeted_vaults: int, queue_depth: float) -> RMASDecision:
        """Pick the ``n_h`` minimizing the Eq. 15 overhead."""
        if targeted_vaults < 1:
            raise ValueError("targeted_vaults must be positive")
        if queue_depth <= 0:
            # No PE requests pending: the host can have every vault.
            return RMASDecision(
                host_priority_vaults=targeted_vaults,
                targeted_vaults=targeted_vaults,
                overhead=self.overhead(targeted_vaults, targeted_vaults, max(queue_depth, 0.0)),
            )
        optimum = math.sqrt(targeted_vaults * self.gamma_host / (queue_depth * self.gamma_vault))
        candidates = {
            max(1, min(targeted_vaults, int(math.floor(optimum)))),
            max(1, min(targeted_vaults, int(math.ceil(optimum)))),
        }
        best = min(candidates, key=lambda n: self.overhead(n, targeted_vaults, queue_depth))
        return RMASDecision(
            host_priority_vaults=best,
            targeted_vaults=targeted_vaults,
            overhead=self.overhead(best, targeted_vaults, queue_depth),
        )


@dataclass(frozen=True)
class ContentionModel:
    """Translates a scheduling policy into pipeline-stage slowdowns.

    When the host and the HMC PEs execute concurrently (the pipelined design
    of Sec. 4), both touch the same cube.  The slowdown each side suffers
    depends on who gets priority:

    * the side with priority only suffers a small residual interference,
    * the side without priority queues behind the other's requests.

    Attributes:
        host_memory_sensitivity: fraction of the host stage's time that is
            memory-bound against the HMC (and therefore exposed to queuing).
        pim_memory_sensitivity: fraction of the routing stage's time that is
            DRAM-bound inside the vaults.
        queue_penalty: slowdown of the de-prioritized side's memory-bound
            fraction.
        residual_penalty: slowdown of the prioritized side's memory-bound
            fraction (arbitration is not free).
    """

    host_memory_sensitivity: float = 0.35
    pim_memory_sensitivity: float = 0.30
    queue_penalty: float = 0.80
    residual_penalty: float = 0.10

    def slowdowns_for_share(self, host_share: float) -> tuple[float, float]:
        """Slowdowns for a given fraction of vaults granting the host priority.

        ``host_share`` may be a float64 array (every element in ``[0, 1]``);
        the slowdowns are then arrays too.
        """
        if not all_true((0.0 <= host_share) & (host_share <= 1.0)):
            raise ValueError("host_share must be in [0, 1]")
        host_penalty = self.residual_penalty * host_share + self.queue_penalty * (1.0 - host_share)
        pim_penalty = self.residual_penalty * (1.0 - host_share) + self.queue_penalty * host_share
        host_slowdown = 1.0 + self.host_memory_sensitivity * host_penalty
        pim_slowdown = 1.0 + self.pim_memory_sensitivity * pim_penalty
        return host_slowdown, pim_slowdown

    def slowdowns(self, policy: SchedulerPolicy, decision: RMASDecision) -> tuple[float, float]:
        """Return multiplicative ``(host_slowdown, pim_slowdown)`` factors (>= 1)."""
        if policy is SchedulerPolicy.GPU_PRIORITY:
            host_share = 1.0
        elif policy is SchedulerPolicy.PIM_PRIORITY:
            host_share = 0.0
        else:
            host_share = decision.host_share
        return self.slowdowns_for_share(host_share)

    def optimal_share(
        self, host_time: float, routing_time: float, targeted_vaults: int
    ) -> float:
        """Host-priority share minimizing the pipelined steady-state latency.

        The RMAS re-evaluates its decision at runtime from the actual queue
        occupancy; at the model level that is equivalent to picking the
        ``n_h / n_max`` share whose contention slowdowns minimize
        ``max(host_time * host_slowdown, routing_time * pim_slowdown)``; ties
        go to the smallest share.  With float64 arrays of stage times the
        share is picked per element.
        """
        if any_true(host_time < 0) or any_true(routing_time < 0):
            raise ValueError("stage times must be non-negative")
        if targeted_vaults < 1:
            raise ValueError("targeted_vaults must be positive")
        shares = [n_h / targeted_vaults for n_h in range(targeted_vaults + 1)]
        costs = []
        for share in shares:
            host_slowdown, pim_slowdown = self.slowdowns_for_share(share)
            costs.append(maximum(host_time * host_slowdown, routing_time * pim_slowdown))
        return first_minimum(shares, costs)
