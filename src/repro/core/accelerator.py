"""Top-level PIM-CapsNet accelerator model and its design-point variants.

:class:`PIMCapsNet` ties the substrates together for one Table-1 benchmark:

* the GPU simulator provides the baseline (and GPU-ICP) routing times, the
  host-stage times and the GPU energy,
* the workload distributor + HMC device provide the in-memory routing times
  and energy for the PIM design points,
* the RMAS contention model and the pipeline model combine the two sides
  into end-to-end numbers.

The :class:`DesignPoint` enumeration covers every configuration evaluated in
Figs. 15-17 of the paper:

===============  ==============================================================
``BASELINE_GPU``  GPU-only execution with HBM memory
``GPU_ICP``       GPU with an ideal cache replacement policy
``PIM_CAPSNET``   the full proposal (inter-vault + intra-vault + mapping + RMAS)
``PIM_INTRA``     intra-vault design only (no inter-vault data placement)
``PIM_INTER``     inter-vault design only (no intra-vault bank-conflict fix)
``ALL_IN_PIM``    the whole network runs on the HMC
``RMAS_PIM``      pipelined design, PEs always win memory arbitration
``RMAS_GPU``      pipelined design, GPU always wins memory arbitration
===============  ==============================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from enum import Enum
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Union

from repro.core.distribution import DistributionPlan, ExecutionScoreModel, WorkloadDistributor
from repro.core.intra_vault import IntraVaultDistributor
from repro.core.pipeline import PipelineModel, PipelineTiming
from repro.core.rmas import ContentionModel, RuntimeMemoryAccessScheduler
from repro.gpu.devices import GPUDevice, baseline_device
from repro.gpu.energy import GPUEnergyModel
from repro.gpu.kernels import GPUCostParameters
from repro.gpu.simulator import GPUSimulator
from repro.hmc.address import CustomAddressMapping, DefaultAddressMapping
from repro.hmc.config import HMCConfig
from repro.hmc.crossbar import Crossbar
from repro.hmc.device import HMCDevice
from repro.hmc.pe import PEDatapath
from repro.hmc.power import HMCPowerModel
from repro.workloads.benchmarks import BenchmarkConfig, get_benchmark
from repro.workloads.layers_model import CapsNetWorkload
from repro.workloads.parallelism import Dimension


class DesignPoint(str, Enum):
    """Design points evaluated by the paper."""

    BASELINE_GPU = "baseline"
    GPU_ICP = "gpu-icp"
    PIM_CAPSNET = "pim-capsnet"
    PIM_INTRA = "pim-intra"
    PIM_INTER = "pim-inter"
    ALL_IN_PIM = "all-in-pim"
    RMAS_PIM = "rmas-pim"
    RMAS_GPU = "rmas-gpu"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RoutingComparison:
    """Routing-procedure execution result for one design point (Fig. 15/16).

    ``design`` is usually a :class:`DesignPoint` member but may be any
    registry key when a custom
    :class:`~repro.engine.strategies.DesignPointStrategy` produced the result.

    Results are immutable: every memo layer hands the same object to every
    caller.  The component mappings are read-only views of private copies;
    derive a changed result with :func:`dataclasses.replace`.
    """

    design: Union[DesignPoint, str]
    benchmark: str
    time_seconds: float
    energy_joules: float
    time_components: Mapping[str, float] = field(default_factory=dict)
    energy_components: Mapping[str, float] = field(default_factory=dict)
    dimension: Optional[Dimension] = None

    def __post_init__(self) -> None:
        for name in ("time_components", "energy_components"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def __reduce__(self):
        # A mappingproxy can be neither pickled nor deep-copied, so both
        # rebuild the result from plain-dict components.
        values = (getattr(self, f.name) for f in fields(self))
        return type(self), tuple(
            dict(value) if isinstance(value, MappingProxyType) else value for value in values
        )

    def speedup_over(self, other: "RoutingComparison") -> float:
        """Speedup of this design over ``other``."""
        if self.time_seconds <= 0:
            return float("inf")
        return other.time_seconds / self.time_seconds

    def energy_saving_over(self, other: "RoutingComparison") -> float:
        """Fractional energy saving of this design relative to ``other``."""
        if other.energy_joules <= 0:
            return 0.0
        return 1.0 - self.energy_joules / other.energy_joules


@dataclass(frozen=True)
class EndToEndComparison:
    """Whole-inference execution result for one design point (Fig. 17; immutable)."""

    design: Union[DesignPoint, str]
    benchmark: str
    timing: PipelineTiming
    energy_joules: float
    host_stage_seconds: float
    routing_stage_seconds: float

    @property
    def time_seconds(self) -> float:
        """Total latency of the evaluated batch stream."""
        return self.timing.total_time

    def speedup_over(self, other: "EndToEndComparison") -> float:
        if self.time_seconds <= 0:
            return float("inf")
        return other.time_seconds / self.time_seconds

    def energy_saving_over(self, other: "EndToEndComparison") -> float:
        if other.energy_joules <= 0:
            return 0.0
        return 1.0 - self.energy_joules / other.energy_joules


class PIMCapsNet:
    """Hybrid GPU + HMC accelerator model for one CapsNet benchmark.

    Args:
        benchmark: Table-1 benchmark (name or configuration).
        gpu_device: host GPU (defaults to the paper's P100 baseline).
        gpu_params: GPU cost-model calibration.
        hmc_config: HMC configuration (32 vaults, 16 PEs/vault, 312.5 MHz).
            Its PE frequency may be a float64 array, and its PE count per
            vault an int64 array aligned with it: the built-in strategies
            then return results whose times and energies are arrays, one
            element per point.  Such a model needs ``force_dimension``,
            since the best dimension can differ per point (read it from
            ``distributor.scores()``).
        pipeline: batch-stream pipeline model.
        force_dimension: override the distributor's dimension choice
            (used by the Fig. 18 sweeps).
        rmas_queue_depth: average PE queue depth ``Q`` seen by the RMAS.
    """

    def __init__(
        self,
        benchmark: Union[str, BenchmarkConfig],
        gpu_device: Optional[GPUDevice] = None,
        gpu_params: Optional[GPUCostParameters] = None,
        hmc_config: Optional[HMCConfig] = None,
        pipeline: Optional[PipelineModel] = None,
        force_dimension: Optional[Dimension] = None,
        rmas_queue_depth: float = 8.0,
    ) -> None:
        self.benchmark = get_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
        self.gpu_device = gpu_device or baseline_device()
        self.gpu_params = gpu_params or GPUCostParameters()
        self.hmc_config = hmc_config or HMCConfig()
        self.pipeline = pipeline or PipelineModel()
        self.force_dimension = force_dimension
        self.rmas_queue_depth = rmas_queue_depth

        self.workload = CapsNetWorkload(self.benchmark)
        self.gpu = GPUSimulator(self.gpu_device, self.gpu_params)
        self.gpu_energy = GPUEnergyModel(device=self.gpu_device)

        self.datapath = PEDatapath(frequency_hz=self.hmc_config.pe_frequency_hz)
        self.crossbar = Crossbar(self.hmc_config)
        self.intra_vault = IntraVaultDistributor(pes_per_vault=self.hmc_config.pes_per_vault)
        self.score_model = ExecutionScoreModel(
            config=self.hmc_config,
            datapath=self.datapath,
            crossbar=self.crossbar,
            intra_vault=self.intra_vault,
        )
        self.distributor = WorkloadDistributor(
            self.benchmark, self.hmc_config, score_model=self.score_model
        )
        self.hmc_power = HMCPowerModel(config=self.hmc_config)
        self.rmas = RuntimeMemoryAccessScheduler()
        self.contention = ContentionModel()

        # Memoized simulation results.  The model is immutable in practice,
        # so every (kind, design) simulation is deterministic and can be
        # cached per instance; ``clear_cache`` resets it after a manual
        # attribute mutation.  Results are immutable too, so every caller
        # shares the stored object.  The RLock makes the cache safe under
        # serve's handler threads, which share a warm session's models
        # (reentrant because end-to-end strategies call back into
        # ``simulate_routing``).
        self._simulation_lock = threading.RLock()
        self._result_cache: Dict[tuple, object] = {}
        self._host_stage_cache: Optional[Mapping[str, float]] = None
        self.simulations_executed = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------ helpers

    def distribution_plan(self) -> DistributionPlan:
        """The plan PIM-CapsNet uses (best scoring, unless a dimension is forced)."""
        if self.force_dimension is not None:
            return self.distributor.plan_for_dimension(self.force_dimension)
        return self.distributor.best_plan()

    def hmc_device(self, custom_mapping: bool) -> HMCDevice:
        """An HMC device with the paper's custom or the default address mapping."""
        mapping_cls = CustomAddressMapping if custom_mapping else DefaultAddressMapping
        return HMCDevice(
            config=self.hmc_config,
            mapping=mapping_cls(self.hmc_config),
            crossbar=self.crossbar,
            datapath=self.datapath,
        )

    def host_stage(self) -> Mapping[str, float]:
        """Host-stage (Conv/PrimaryCaps/FC) time, flops and traffic on the GPU (read-only)."""
        with self._simulation_lock:
            if self._host_stage_cache is None:
                layers = self.workload.host_layers()
                time = sum(self.gpu.simulate_dense_layer(layer).total for layer in layers)
                flops = float(sum(layer.flops for layer in layers))
                traffic = float(sum(layer.traffic_bytes for layer in layers))
                self._host_stage_cache = MappingProxyType(
                    {"time": time, "flops": flops, "traffic": traffic}
                )
            return self._host_stage_cache

    def clear_cache(self) -> None:
        """Drop memoized simulation results (after mutating model attributes)."""
        with self._simulation_lock:
            self._result_cache.clear()
            self._host_stage_cache = None

    # ----------------------------------------------------------------- simulation

    def simulate_routing(self, design: Union[DesignPoint, str]) -> RoutingComparison:
        """Routing-procedure time and energy for one design point.

        Dispatches to the :class:`~repro.engine.strategies.DesignPointStrategy`
        registered for ``design``; results are memoized per instance.
        """
        return self._simulate("routing", design)

    def simulate_end_to_end(self, design: Union[DesignPoint, str]) -> EndToEndComparison:
        """Whole-inference latency and energy for one design point.

        Dispatches to the :class:`~repro.engine.strategies.DesignPointStrategy`
        registered for ``design``; results are memoized per instance.
        """
        return self._simulate("end_to_end", design)

    def _simulate(self, kind: str, design: Union[DesignPoint, str]):
        # Imported lazily: repro.engine imports this module at load time.
        from repro.engine.strategies import design_key, get_strategy

        key = (kind, design_key(design))
        with self._simulation_lock:
            cached = self._result_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                return cached
            strategy = get_strategy(design)
            self.simulations_executed += 1
            if kind == "routing":
                result = strategy.simulate_routing(self, design)
            else:
                result = strategy.simulate_end_to_end(self, design)
            self._result_cache[key] = result
            return result
