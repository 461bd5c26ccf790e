"""Inter-vault workload distribution (Sec. 5.1).

The routing procedure is distributed across the HMC's vaults along exactly
one of the three parallelization dimensions (B, L or H).  For each candidate
dimension this module models

* ``E`` -- the workload of the most heavily loaded vault (Eqs. 6, 7, 9, 11),
  expressed as a PE operation mix plus the DRAM bytes that vault touches, and
* ``M`` -- the inter-vault communication the choice requires (Eqs. 8, 10,
  12), expressed as payload bytes and packet counts over the crossbar,

and summarizes them into the paper's execution score ``S = 1/(alpha E + beta M)``
where ``alpha`` captures the vault compute capability (PE count x frequency)
and ``beta`` the crossbar cost (bandwidth and per-packet latency).  The
distributor evaluates the score for every dimension offline and picks the
best one, which is how Fig. 18's dimension choice shifts with PE frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from repro.core.intra_vault import IntraVaultDistributor, lower_routing_to_operations
from repro.elementwise import maximum, reciprocal_or_inf
from repro.hmc.config import HMCConfig
from repro.hmc.crossbar import Crossbar
from repro.hmc.dram import VaultMemoryModel
from repro.hmc.pe import OperationMix, PEDatapath
from repro.workloads.benchmarks import BenchmarkConfig
from repro.workloads.parallelism import Dimension
from repro.workloads.rp_model import FP32_BYTES, RoutingWorkload


@dataclass(frozen=True)
class DistributionPlan:
    """Outcome of distributing the routing procedure along one dimension.

    A distributor builds each plan once and shares it with every caller, so
    neither the plan nor its operation mixes may be changed.

    Attributes:
        dimension: the chosen parallelization dimension.
        per_vault_operations: PE operation mix of the most loaded vault (``E``).
        total_operations: operation mix across every vault (used for energy).
        per_vault_dram_bytes: DRAM bytes the most loaded vault touches.
        total_dram_bytes: DRAM bytes touched across the cube.
        crossbar_payload_bytes: inter-vault payload bytes (``M``).
        crossbar_packets: number of inter-vault packets.
        vaults_used: vaults that actually receive work.
        per_vault_parallel_suboperations: independent sub-operations assigned
            to a vault along the primary dimension (feeds the intra-vault
            utilization model).
        secondary_parallelism: parallelism available along a secondary
            dimension per primary sub-operation.
    """

    dimension: Dimension
    per_vault_operations: OperationMix
    total_operations: OperationMix
    per_vault_dram_bytes: float
    total_dram_bytes: float
    crossbar_payload_bytes: float
    crossbar_packets: float
    vaults_used: int
    per_vault_parallel_suboperations: int
    secondary_parallelism: int


@dataclass(frozen=True)
class ExecutionScoreModel:
    """The paper's execution score ``S = 1 / (alpha E + beta M)``.

    With a float64 array of PE frequencies in ``datapath`` (and an int64
    array of PE counts aligned with it in ``config``), the compute time, the
    estimated time and the score are arrays with one value per element.

    Args:
        config: HMC configuration.
        datapath: PE datapath (defines how expensive ``E`` is on this device).
        crossbar: crossbar model (defines how expensive ``M`` is).
        intra_vault: intra-vault distributor (PE utilization model).
    """

    config: HMCConfig
    datapath: PEDatapath
    crossbar: Crossbar
    intra_vault: IntraVaultDistributor = IntraVaultDistributor()

    @property
    def alpha(self) -> float:
        """Device-dependent compute coefficient (seconds per PE cycle per vault)."""
        return 1.0 / (self.config.pes_per_vault * self.datapath.frequency_hz)

    @property
    def beta(self) -> float:
        """Device-dependent communication coefficient (seconds per payload byte)."""
        return 1.0 / self.crossbar.effective_bandwidth_bytes

    def compute_time(self, plan: DistributionPlan) -> float:
        """Estimated PE time of the critical vault under the plan."""
        effective_pes = self.intra_vault.effective_pes(
            plan.per_vault_parallel_suboperations, plan.secondary_parallelism
        )
        return self.datapath.time_for(plan.per_vault_operations, num_pes=effective_pes)

    def memory_time(self, plan: DistributionPlan) -> float:
        """Estimated conflict-free DRAM service time of the critical vault."""
        return VaultMemoryModel(self.config).base_service_time(plan.per_vault_dram_bytes)

    def communication_time(self, plan: DistributionPlan) -> float:
        """Estimated inter-vault communication time under the plan."""
        return self.crossbar.transfer(plan.crossbar_payload_bytes, plan.crossbar_packets).total_time

    def estimated_time(self, plan: DistributionPlan) -> float:
        """``alpha E + beta M`` expressed directly in seconds.

        ``E`` is the critical vault's workload: its PE execution overlapped
        with the conflict-free DRAM service (the slower of the two binds);
        ``M`` is the inter-vault communication.
        """
        execution = maximum(self.compute_time(plan), self.memory_time(plan))
        return execution + self.communication_time(plan)

    def score(self, plan: DistributionPlan) -> float:
        """The execution score ``S`` (higher is better); ``inf`` for a zero time."""
        return reciprocal_or_inf(self.estimated_time(plan))


class WorkloadDistributor:
    """Builds distribution plans and selects the best dimension (Sec. 5.1.2).

    Each dimension's plan is built, and the best plan picked, only once.

    Args:
        benchmark: the CapsNet benchmark being executed.
        hmc: HMC configuration.
        score_model: execution score model; a default one is constructed from
            ``hmc`` when omitted.
    """

    def __init__(
        self,
        benchmark: BenchmarkConfig,
        hmc: Optional[HMCConfig] = None,
        score_model: Optional[ExecutionScoreModel] = None,
    ) -> None:
        self.benchmark = benchmark
        self.hmc = hmc or HMCConfig()
        if score_model is None:
            datapath = PEDatapath(frequency_hz=self.hmc.pe_frequency_hz)
            score_model = ExecutionScoreModel(
                config=self.hmc,
                datapath=datapath,
                crossbar=Crossbar(self.hmc),
            )
        self.score_model = score_model
        self.routing = RoutingWorkload(benchmark)
        self._best: Optional[DistributionPlan] = None

    # -- helpers -----------------------------------------------------------------

    def _ceil_share(self, total: int) -> int:
        return int(math.ceil(total / float(self.hmc.num_vaults)))

    def _total_operations(self) -> OperationMix:
        """Operation mix of the full routing procedure across all vaults."""
        cfg = self.benchmark
        i = cfg.routing_iterations
        return lower_routing_to_operations(
            cfg,
            eq1_pairs=cfg.batch_size * cfg.num_low_capsules * cfg.num_high_capsules,
            eq2_macs=i * cfg.batch_size * cfg.num_low_capsules * cfg.num_high_capsules * cfg.high_dim,
            eq3_squashes=i * cfg.batch_size * cfg.num_high_capsules,
            eq4_dots=i * cfg.batch_size * cfg.num_low_capsules * cfg.num_high_capsules,
            eq4_accumulations=i * cfg.batch_size * cfg.num_low_capsules * cfg.num_high_capsules,
            eq5_rows=i * cfg.num_low_capsules,
        )

    def _total_dram_bytes(self) -> float:
        """DRAM bytes touched by the whole routing procedure (all vaults)."""
        fp = self.routing.footprint()
        eq1 = fp.low_capsules + fp.weights + fp.predictions
        per_iter = (
            2 * fp.predictions
            + 2 * (fp.weighted_sums + fp.high_capsules)
            + 3 * fp.logits
            + 2 * fp.coefficients
        )
        return float(eq1 + self.benchmark.routing_iterations * per_iter)

    # -- per-dimension plans --------------------------------------------------------

    def plan_for_dimension(self, dimension: Dimension) -> DistributionPlan:
        """The distribution plan for one parallelization dimension."""
        if dimension is Dimension.BATCH:
            return self._plan_batch
        if dimension is Dimension.LOW:
            return self._plan_low
        if dimension is Dimension.HIGH:
            return self._plan_high
        raise ValueError(f"unknown dimension {dimension!r}")

    @cached_property
    def _plan_batch(self) -> DistributionPlan:
        cfg = self.benchmark
        hmc = self.hmc
        i = cfg.routing_iterations
        nb = self._ceil_share(cfg.batch_size)
        nl, nh, cl, ch = cfg.num_low_capsules, cfg.num_high_capsules, cfg.low_dim, cfg.high_dim
        reduction_levels = int(math.ceil(math.log2(hmc.num_vaults))) if hmc.num_vaults > 1 else 0

        per_vault = lower_routing_to_operations(
            cfg,
            eq1_pairs=nb * nl * nh,
            eq2_macs=i * nb * nl * nh * ch,
            eq3_squashes=i * nb * nh,
            eq4_dots=i * nb * nl * nh,
            # Local accumulation over the vault's batches plus this vault's
            # share of the inter-vault tree reduction of b.
            eq4_accumulations=i * (nb * nl * nh + nl * nh * reduction_levels),
            # The softmax cannot be split along B; the aggregating vault runs it.
            eq5_rows=i * nl,
        )

        u_slice = nb * nl * cl * FP32_BYTES
        w_full = nl * nh * cl * ch * FP32_BYTES
        uhat_slice = nb * nl * nh * ch * FP32_BYTES
        sv_slice = 2 * nb * nh * ch * FP32_BYTES
        bc_full = 2 * nl * nh * FP32_BYTES
        per_vault_dram = (u_slice + w_full + uhat_slice) + i * (
            2 * uhat_slice + sv_slice + bc_full + nl * nh * FP32_BYTES
        )

        elements_per_iter = 2 * (hmc.num_vaults - 1) * nl * nh
        payload = i * elements_per_iter * FP32_BYTES
        packets = i * elements_per_iter

        return DistributionPlan(
            dimension=Dimension.BATCH,
            per_vault_operations=per_vault,
            total_operations=self._total_operations(),
            per_vault_dram_bytes=float(per_vault_dram),
            total_dram_bytes=self._total_dram_bytes(),
            crossbar_payload_bytes=float(payload),
            crossbar_packets=float(packets),
            vaults_used=min(hmc.num_vaults, cfg.batch_size),
            per_vault_parallel_suboperations=nb,
            secondary_parallelism=nl,
        )

    @cached_property
    def _plan_low(self) -> DistributionPlan:
        cfg = self.benchmark
        hmc = self.hmc
        i = cfg.routing_iterations
        nl_share = self._ceil_share(cfg.num_low_capsules)
        nb, nh, cl, ch = cfg.batch_size, cfg.num_high_capsules, cfg.low_dim, cfg.high_dim

        per_vault = lower_routing_to_operations(
            cfg,
            eq1_pairs=nb * nl_share * nh,
            eq2_macs=i * nb * nl_share * nh * ch,
            # The squash runs on the vault holding the aggregated s (small).
            eq3_squashes=i * nb * nh,
            eq4_dots=i * nb * nl_share * nh,
            eq4_accumulations=i * nb * nl_share * nh,
            eq5_rows=i * nl_share,
        )

        u_slice = nb * nl_share * cl * FP32_BYTES
        w_slice = nl_share * nh * cl * ch * FP32_BYTES
        uhat_slice = nb * nl_share * nh * ch * FP32_BYTES
        sv_full = 2 * nb * nh * ch * FP32_BYTES
        bc_slice = 2 * nl_share * nh * FP32_BYTES
        per_vault_dram = (u_slice + w_slice + uhat_slice) + i * (
            2 * uhat_slice + sv_full + bc_slice + nl_share * nh * FP32_BYTES
        )

        vectors_per_iter = 2 * nb * (hmc.num_vaults - 1) * nh
        payload = i * vectors_per_iter * ch * FP32_BYTES
        packets = i * vectors_per_iter

        return DistributionPlan(
            dimension=Dimension.LOW,
            per_vault_operations=per_vault,
            total_operations=self._total_operations(),
            per_vault_dram_bytes=float(per_vault_dram),
            total_dram_bytes=self._total_dram_bytes(),
            crossbar_payload_bytes=float(payload),
            crossbar_packets=float(packets),
            vaults_used=min(hmc.num_vaults, cfg.num_low_capsules),
            per_vault_parallel_suboperations=nl_share,
            secondary_parallelism=nb,
        )

    @cached_property
    def _plan_high(self) -> DistributionPlan:
        cfg = self.benchmark
        hmc = self.hmc
        i = cfg.routing_iterations
        nh_share = self._ceil_share(cfg.num_high_capsules)
        nb, nl, cl, ch = cfg.batch_size, cfg.num_low_capsules, cfg.low_dim, cfg.high_dim
        vaults_used = min(hmc.num_vaults, cfg.num_high_capsules)

        per_vault = lower_routing_to_operations(
            cfg,
            eq1_pairs=nb * nl * nh_share,
            eq2_macs=i * nb * nl * nh_share * ch,
            eq3_squashes=i * nb * nh_share,
            eq4_dots=i * nb * nl * nh_share,
            eq4_accumulations=i * nb * nl * nh_share,
            # The softmax normalizes over H and therefore cannot be split
            # along H; the vault gathering b runs it for every L capsule.
            eq5_rows=i * nl,
        )

        u_full = nb * nl * cl * FP32_BYTES
        w_slice = nl * nh_share * cl * ch * FP32_BYTES
        uhat_slice = nb * nl * nh_share * ch * FP32_BYTES
        sv_slice = 2 * nb * nh_share * ch * FP32_BYTES
        bc_slice = 2 * nl * nh_share * FP32_BYTES
        per_vault_dram = (u_full + w_slice + uhat_slice) + i * (
            2 * uhat_slice + sv_slice + bc_slice + nl * nh_share * FP32_BYTES
        )

        # Eq. 12: gather the partial b rows for the softmax and scatter c back.
        gather_packets = (vaults_used - 1) * nl
        scatter_packets = nl
        payload = i * (gather_packets + scatter_packets) * FP32_BYTES
        packets = i * (gather_packets + scatter_packets)

        return DistributionPlan(
            dimension=Dimension.HIGH,
            per_vault_operations=per_vault,
            total_operations=self._total_operations(),
            per_vault_dram_bytes=float(per_vault_dram),
            total_dram_bytes=self._total_dram_bytes(),
            crossbar_payload_bytes=float(payload),
            crossbar_packets=float(packets),
            vaults_used=vaults_used,
            per_vault_parallel_suboperations=nh_share,
            secondary_parallelism=nb,
        )

    # -- selection --------------------------------------------------------------------

    def all_plans(self) -> Dict[Dimension, DistributionPlan]:
        """Distribution plans for every dimension."""
        return {dim: self.plan_for_dimension(dim) for dim in Dimension}

    def scores(self) -> Dict[Dimension, float]:
        """Execution score of every dimension, in ``Dimension`` order.

        Each score is an array when the PE frequency is one; a keep-first
        ``argmax`` over the scores then picks per element what
        :meth:`best_plan` picks for one point.
        """
        return {dim: self.score_model.score(plan) for dim, plan in self.all_plans().items()}

    def best_plan(self) -> DistributionPlan:
        """The plan with the highest execution score."""
        if self._best is None:
            scores = self.scores()
            self._best = self.plan_for_dimension(max(scores, key=scores.__getitem__))
        return self._best

    def best_dimension(self) -> Dimension:
        """The dimension the distributor selects for this benchmark/device."""
        return self.best_plan().dimension
