"""Built-in design-point strategies (the eight configurations of Figs. 15-17).

The simulation recipes here are the former branch bodies of
``PIMCapsNet.simulate_routing`` / ``simulate_end_to_end``; the facade in
:mod:`repro.core.accelerator` now only dispatches through the strategy
registry.  Three families cover all eight built-in design points:

* :class:`GPUExecutionStrategy` -- GPU-only execution (baseline and the
  ideal-cache GPU-ICP): routing on the GPU simulator, serial host+RP
  pipeline.
* :class:`PIMPipelinedStrategy` -- the hybrid design points (PIM-CapsNet,
  PIM-Intra, PIM-Inter, RMAS-PIM, RMAS-GPU): routing on the HMC with the
  design's mapping/placement flags, end-to-end as a host/PIM pipeline under
  the design's memory-arbitration policy.
* :class:`AllInPIMStrategy` -- the whole network on the HMC, serial pipeline,
  power-gated GPU.

The recipes run unchanged on a model whose PE frequency is a float64 array,
and whose PE count per vault may be an int64 array aligned with it (the
vectorized sweep backend): every time and energy that depends on them is
then an array, and the GPU-only results stay floats.
"""

from __future__ import annotations

from typing import Optional

from repro.core.accelerator import (
    DesignPoint,
    EndToEndComparison,
    PIMCapsNet,
    RoutingComparison,
)
from repro.core.rmas import SchedulerPolicy
from repro.elementwise import maximum
from repro.engine.strategies import DesignLike, DesignPointStrategy, register_strategy
from repro.gpu.simulator import GPUSimulator
from repro.hmc.pe import OperationMix, PEOperation
from repro.hmc.vault import VaultWorkload


def dense_operation_mix(flops: float) -> OperationMix:
    """Operation mix of a dense stage executed on the HMC PEs (MACs only)."""
    return OperationMix().add(PEOperation.MAC, flops / 2.0)


# --------------------------------------------------------------- shared recipes


def routing_on_gpu(
    model: PIMCapsNet, design: DesignLike, *, ideal_cache: bool
) -> RoutingComparison:
    """Routing procedure executed on the (possibly ideal-cache) GPU."""
    simulator = GPUSimulator(model.gpu_device, model.gpu_params, ideal_cache=ideal_cache)
    profile = simulator.simulate_routing(model.workload.routing)
    energy = model.gpu_energy.phase_energy(
        profile.total_time,
        flops=model.workload.routing.total_flops(),
        dram_bytes=profile.offchip_traffic_bytes,
    )
    timing = profile.timing
    return RoutingComparison(
        design=design,
        benchmark=model.benchmark.name,
        time_seconds=profile.total_time,
        energy_joules=energy.total,
        time_components={
            "compute": timing.compute,
            "memory": timing.memory,
            "sync": timing.sync,
            "overhead": timing.overhead,
        },
        energy_components=energy.as_dict(),
    )


def routing_on_hmc(
    model: PIMCapsNet,
    design: DesignLike,
    *,
    custom_mapping: bool = True,
    interleaved_placement: bool = False,
) -> RoutingComparison:
    """Routing procedure executed on the HMC PEs.

    Args:
        custom_mapping: use the paper's bank-conflict-free address mapping
            (``False`` models PIM-Inter, which keeps the default mapping).
        interleaved_placement: keep operands interleaved across all vaults
            (``True`` models PIM-Intra, which lacks the inter-vault data
            placement, so most accesses are remote crossbar traffic).
    """
    plan = model.distribution_plan()
    device = model.hmc_device(custom_mapping=custom_mapping)

    crossbar_payload = plan.crossbar_payload_bytes
    crossbar_packets = plan.crossbar_packets
    per_vault_dram = plan.per_vault_dram_bytes
    receiver_ports = 1
    if interleaved_placement:
        # Without the inter-vault data placement the operands stay
        # interleaved across all vaults: (num_vaults-1)/num_vaults of every
        # access is remote and must cross the crossbar as 16-byte blocks,
        # spread over every vault port (all-to-all pattern).
        remote_fraction = (model.hmc_config.num_vaults - 1) / model.hmc_config.num_vaults
        remote_bytes = plan.total_dram_bytes * remote_fraction
        crossbar_payload = remote_bytes
        crossbar_packets = remote_bytes / model.hmc_config.block_bytes
        per_vault_dram = plan.total_dram_bytes / model.hmc_config.num_vaults
        receiver_ports = model.hmc_config.num_vaults

    utilization = model.intra_vault.utilization(
        plan.per_vault_parallel_suboperations, plan.secondary_parallelism
    )
    per_vault = VaultWorkload(
        operations=plan.per_vault_operations,
        dram_bytes=per_vault_dram,
        concurrent_requesters=model.hmc_config.pes_per_vault,
        pe_utilization=utilization,
    )
    execution = device.execute_distributed(
        per_vault,
        crossbar_payload_bytes=crossbar_payload,
        crossbar_packets=crossbar_packets,
        vaults_used=plan.vaults_used,
        crossbar_receiver_ports=receiver_ports,
    )
    energy = model.hmc_power.energy(
        execution,
        total_operations=plan.total_operations,
        total_dram_bytes=plan.total_dram_bytes,
        crossbar_payload_bytes=crossbar_payload,
    )
    return RoutingComparison(
        design=design,
        benchmark=model.benchmark.name,
        time_seconds=execution.total_time,
        energy_joules=energy.total,
        time_components={
            "execution": execution.execution_time,
            "xbar": execution.crossbar_time,
            "vrs": execution.vrs_time,
        },
        energy_components=energy.as_dict(),
        dimension=plan.dimension,
    )


# ------------------------------------------------------------ strategy families


class GPUExecutionStrategy(DesignPointStrategy):
    """GPU-only execution (the baseline and GPU-ICP design points)."""

    def __init__(self, key: DesignLike, *, ideal_cache: bool) -> None:
        self.key = str(key)
        self.ideal_cache = ideal_cache

    def simulate_routing(self, model, design=None) -> RoutingComparison:
        return routing_on_gpu(model, design or self.key, ideal_cache=self.ideal_cache)

    def simulate_end_to_end(self, model, design=None) -> EndToEndComparison:
        design = design or self.key
        host = model.host_stage()
        rp = model.simulate_routing(design)
        timing = model.pipeline.serial(host["time"], rp.time_seconds)
        host_energy = model.gpu_energy.phase_energy(host["time"], host["flops"], host["traffic"])
        energy = model.pipeline.num_batches * (host_energy.total + rp.energy_joules)
        return EndToEndComparison(
            design=design,
            benchmark=model.benchmark.name,
            timing=timing,
            energy_joules=energy,
            host_stage_seconds=host["time"],
            routing_stage_seconds=rp.time_seconds,
        )


class PIMPipelinedStrategy(DesignPointStrategy):
    """Hybrid GPU + HMC execution with a host/PIM pipeline.

    Covers PIM-CapsNet, the two partial designs (PIM-Intra / PIM-Inter) and
    the two naive arbitration schedulers (RMAS-PIM / RMAS-GPU); they differ
    only in the routing placement/mapping flags, the routing design whose
    numbers feed the pipeline, and the memory-arbitration policy.
    """

    def __init__(
        self,
        key: DesignLike,
        *,
        policy: SchedulerPolicy,
        rp_design: Optional[DesignLike] = None,
        custom_mapping: bool = True,
        interleaved_placement: bool = False,
    ) -> None:
        self.key = str(key)
        self.policy = policy
        self.rp_design = rp_design if rp_design is not None else key
        self.custom_mapping = custom_mapping
        self.interleaved_placement = interleaved_placement

    def simulate_routing(self, model, design=None) -> RoutingComparison:
        return routing_on_hmc(
            model,
            design or self.key,
            custom_mapping=self.custom_mapping,
            interleaved_placement=self.interleaved_placement,
        )

    def simulate_end_to_end(self, model, design=None) -> EndToEndComparison:
        design = design or self.key
        host = model.host_stage()
        rp = model.simulate_routing(self.rp_design)
        if self.policy is SchedulerPolicy.RMAS:
            # The runtime scheduler balances the two pipeline stages: it picks
            # the host-priority share that minimizes the steady-state latency.
            share = model.contention.optimal_share(
                host["time"], rp.time_seconds, model.hmc_config.num_vaults
            )
            host_slowdown, pim_slowdown = model.contention.slowdowns_for_share(share)
        else:
            decision = model.rmas.decide(
                targeted_vaults=model.hmc_config.num_vaults,
                queue_depth=model.rmas_queue_depth,
            )
            host_slowdown, pim_slowdown = model.contention.slowdowns(self.policy, decision)
        host_time = host["time"] * host_slowdown
        rp_time = rp.time_seconds * pim_slowdown
        timing = model.pipeline.pipelined(host_time, rp_time)

        host_energy = model.gpu_energy.phase_energy(host_time, host["flops"], host["traffic"])
        pim_energy_scale = pim_slowdown  # static HMC power accrues over the longer time
        gpu_idle_time = maximum(0.0, timing.total_time - model.pipeline.num_batches * host_time)
        energy = (
            model.pipeline.num_batches
            * (host_energy.total + rp.energy_joules * pim_energy_scale)
            + model.gpu_energy.idle_energy(gpu_idle_time).total
        )
        return EndToEndComparison(
            design=design,
            benchmark=model.benchmark.name,
            timing=timing,
            energy_joules=energy,
            host_stage_seconds=host_time,
            routing_stage_seconds=rp_time,
        )


class AllInPIMStrategy(DesignPointStrategy):
    """The whole network runs on the HMC; the GPU is power-gated."""

    def __init__(self, key: DesignLike, *, rp_design: DesignLike = DesignPoint.PIM_CAPSNET) -> None:
        self.key = str(key)
        self.rp_design = rp_design

    def simulate_routing(self, model, design=None) -> RoutingComparison:
        return routing_on_hmc(model, design or self.key)

    def simulate_end_to_end(self, model, design=None) -> EndToEndComparison:
        design = design or self.key
        host = model.host_stage()
        rp = model.simulate_routing(self.rp_design)
        device = model.hmc_device(custom_mapping=True)
        host_execution = device.execute_dense(host["flops"], host["traffic"])
        host_time = host_execution.total_time
        timing = model.pipeline.serial(host_time, rp.time_seconds)
        host_energy = model.hmc_power.energy(
            host_execution,
            total_operations=dense_operation_mix(host["flops"]),
            total_dram_bytes=host["traffic"],
            crossbar_payload_bytes=0.0,
        )
        # With the whole network in memory the host GPU has no work at all
        # and is assumed to be power-gated, so no idle energy is charged.
        energy = model.pipeline.num_batches * (host_energy.total + rp.energy_joules)
        return EndToEndComparison(
            design=design,
            benchmark=model.benchmark.name,
            timing=timing,
            energy_joules=energy,
            host_stage_seconds=host_time,
            routing_stage_seconds=rp.time_seconds,
        )


# ------------------------------------------------------------------ registration

register_strategy(GPUExecutionStrategy(DesignPoint.BASELINE_GPU, ideal_cache=False))
register_strategy(GPUExecutionStrategy(DesignPoint.GPU_ICP, ideal_cache=True))
register_strategy(
    PIMPipelinedStrategy(DesignPoint.PIM_CAPSNET, policy=SchedulerPolicy.RMAS)
)
register_strategy(
    PIMPipelinedStrategy(
        DesignPoint.PIM_INTRA,
        policy=SchedulerPolicy.RMAS,
        interleaved_placement=True,
    )
)
register_strategy(
    PIMPipelinedStrategy(
        DesignPoint.PIM_INTER,
        policy=SchedulerPolicy.RMAS,
        custom_mapping=False,
    )
)
register_strategy(AllInPIMStrategy(DesignPoint.ALL_IN_PIM))
register_strategy(
    PIMPipelinedStrategy(
        DesignPoint.RMAS_PIM,
        policy=SchedulerPolicy.PIM_PRIORITY,
        rp_design=DesignPoint.PIM_CAPSNET,
    )
)
register_strategy(
    PIMPipelinedStrategy(
        DesignPoint.RMAS_GPU,
        policy=SchedulerPolicy.GPU_PRIORITY,
        rp_design=DesignPoint.PIM_CAPSNET,
    )
)
