"""Vectorized (plane-batched) evaluation of sweep grids, bit-exact with the scalar path.

The analytic models behind every design point are closed-form float
arithmetic; a sweep grid only re-evaluates them with different scenario
parameters.  This module exploits the structure of that arithmetic: of all
swept quantities, only ``hmc.pe_frequency_mhz`` enters the models as a pure
*scaling* input (``PEDatapath.time_for = cycles / (pes * frequency_hz)``) --
every other quantity (distribution plans, operation mixes, DRAM and crossbar
times, GPU simulations, power coefficients, scheduler decisions) is
frequency-free.  The evaluator therefore

1. groups the grid into **planes**: points sharing every non-frequency axis
   value.  Each plane is one frequency array.
2. computes the frequency-free quantities of each plane **once**, via the
   *actual scalar model code* on an anchor scenario (so they are identical to
   the scalar path by construction), and
3. re-expresses only the frequency-dependent chains as single numpy
   expressions over the whole frequency array, replicating the scalar
   operation order exactly.  IEEE-754 arithmetic is deterministic: the same
   operations in the same order produce the same bits, so every cell equals
   the scalar result **exactly** -- the same policy as the training kernels'
   bit-exactness gate.

Two guard rails keep this honest:

* :func:`vectorization_blocker` refuses any sweep the batcher does not fully
  understand (no frequency axis, selection axes, custom strategies); the
  runner then falls back to the scalar path.
* the **equivalence gate**: unless disabled, freshly computed points are
  re-simulated through the plain scalar path (all of them under
  ``verify="full"``, the first and last fresh frequency of every plane under
  the default ``verify="sample"``) and compared field-by-field with exact
  float equality.  Any difference raises :class:`VectorizedMismatchError` --
  divergence is a bug, never something to silently fall back from.

Results flow through the same
:class:`~repro.engine.diskcache.SimulationCache` entries as the scalar path
(bulk ``get_many``/``put_many``), so vectorized, scalar, process-pool and
work-queue executions all share one cache, and a warm vectorized sweep
executes zero simulations.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.scenario import Scenario
from repro.core.accelerator import (
    DesignPoint,
    EndToEndComparison,
    PIMCapsNet,
    RoutingComparison,
)
from repro.core.rmas import SchedulerPolicy
from repro.engine.diskcache import SimulationCache, canonical_digest
from repro.engine.strategies import DesignLike, design_key, get_strategy
from repro.hmc.address import CustomAddressMapping, DefaultAddressMapping
from repro.hmc.dram import VaultMemoryModel
from repro.hmc.pe import (
    DEFAULT_CYCLES_PER_OPERATION,
    STREAMING_MAC_CYCLES,
    OperationMix,
    PEDatapath,
    PEOperation,
)
from repro.sweep.spec import SweepSpec

#: The axis broadcast as a numpy array; every other axis defines planes.
FREQUENCY_AXIS = "hmc.pe_frequency_mhz"

#: Equivalence-gate modes: scalar re-check of every fresh point, of the first
#: and last fresh frequency per plane, or of nothing.
VERIFY_MODES = ("full", "sample", "off")

#: Axes that change *which* cells a point evaluates rather than their inputs.
_SELECTION_AXES = ("benchmarks", "workloads")


class VectorizedMismatchError(RuntimeError):
    """A vectorized cell differed from the scalar path (always a bug)."""


# ----------------------------------------------------------------- eligibility


def _design_points_module():
    """The built-in strategy module, loaded after the registry initialized.

    ``get_strategy`` first so the registry's own deferred import populates
    the built-ins; importing :mod:`repro.engine.design_points` directly while
    it is half-executed would observe a partial registry.
    """
    get_strategy(DesignPoint.BASELINE_GPU)
    from repro.engine import design_points

    return design_points


def vectorization_blocker(spec: SweepSpec, base: Optional[Scenario] = None) -> Optional[str]:
    """Why this sweep cannot be vectorized, or ``None`` if it can.

    The ``base`` scenario is accepted for signature stability but does not
    influence eligibility today: planes anchor on whatever scenario each
    grid point produces, so any base that survives scalar execution works.
    """
    del base
    if FREQUENCY_AXIS not in spec.axis_keys:
        return (
            f"no {FREQUENCY_AXIS!r} axis to broadcast; only frequency planes "
            f"are batched today"
        )
    for key in spec.axis_keys:
        if key in _SELECTION_AXES:
            return f"axis {key!r} changes the evaluated workload selection per point"
    for axis in spec.axes:
        if axis.key != FREQUENCY_AXIS:
            continue
        for value in axis.values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return f"non-numeric {FREQUENCY_AXIS} value {value!r}"
    designs: List[DesignLike] = [DesignPoint.BASELINE_GPU]
    designs.extend(spec.designs)
    for design in designs:
        reason = _strategy_blocker(design, spec.kind)
        if reason is not None:
            return reason
    return None


def _strategy_blocker(design: DesignLike, kind: str) -> Optional[str]:
    """Why one design point's strategy cannot be vectorized (``None`` = fine)."""
    dp = _design_points_module()
    try:
        strategy = get_strategy(design)
    except KeyError:
        return f"no strategy registered for design point {design_key(design)!r}"
    if type(strategy) is dp.GPUExecutionStrategy:
        return None
    if type(strategy) not in (dp.PIMPipelinedStrategy, dp.AllInPIMStrategy):
        return (
            f"design {design_key(design)!r} uses a custom strategy "
            f"({type(strategy).__name__}); the scalar path handles it"
        )
    if kind != "routing":
        try:
            rp_strategy = get_strategy(strategy.rp_design)
        except KeyError:
            return (
                f"design {design_key(design)!r} pipelines an unregistered "
                f"routing design {design_key(strategy.rp_design)!r}"
            )
        if type(rp_strategy) not in (
            dp.GPUExecutionStrategy,
            dp.PIMPipelinedStrategy,
            dp.AllInPIMStrategy,
        ):
            return (
                f"design {design_key(design)!r} pipelines routing design "
                f"{design_key(strategy.rp_design)!r}, whose strategy "
                f"({type(rp_strategy).__name__}) is not vectorized"
            )
    return None


# ------------------------------------------------------------- value batching


def _select_rows(indices: np.ndarray, rows: Sequence[object]) -> np.ndarray:
    """Per-point row selection: ``result[i] = rows[indices[i]][i]``.

    Rows may be scalars or arrays; scalars broadcast.  Fancy indexing copies
    the selected float64 values bit-for-bit.
    """
    stacked = np.stack(
        [np.broadcast_to(np.asarray(row, dtype=np.float64), indices.shape) for row in rows]
    )
    return stacked[indices, np.arange(indices.shape[0])]


class _DesignValues:
    """Per-point times/energies of one design, plus a result materializer."""

    __slots__ = ("times", "energies", "_materialize")

    def __init__(
        self,
        times: List[float],
        energies: List[float],
        materialize: Callable[[int], object],
    ) -> None:
        self.times = times
        self.energies = energies
        self._materialize = materialize

    @classmethod
    def constant(cls, result: object, count: int) -> "_DesignValues":
        return cls(
            [result.time_seconds] * count,
            [result.energy_joules] * count,
            lambda index: result,
        )

    def result(self, index: int) -> object:
        return self._materialize(index)


class _BenchmarkPlane:
    """All vectorized quantities of one ``(plane, benchmark)`` pair.

    Frequency-free quantities come from ``model0`` -- the scalar model built
    for the plane's anchor scenario -- so they are the scalar path's own
    values; only frequency-dependent chains are recomputed as arrays.
    """

    def __init__(self, model0: PIMCapsNet, f_hz: np.ndarray, kind: str) -> None:
        self.model0 = model0
        self.f_hz = f_hz
        self.n = int(f_hz.shape[0])
        self.kind = kind  # "routing" | "end_to_end"
        self._values: Dict[str, _DesignValues] = {}
        self._plans: Optional[List[object]] = None
        self._dim_idx: Optional[np.ndarray] = None
        self._flavors: Dict[Tuple[bool, bool], Dict[str, object]] = {}
        self._rp_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def values(self, design: DesignLike) -> _DesignValues:
        key = design_key(design)
        if key not in self._values:
            self._values[key] = self._build(design)
        return self._values[key]

    # -------------------------------------------------------------- dispatch

    def _build(self, design: DesignLike) -> _DesignValues:
        dp = _design_points_module()
        strategy = get_strategy(design)
        if type(strategy) is dp.GPUExecutionStrategy:
            # GPU execution never touches the HMC: one scalar simulation of
            # the anchor model covers the whole frequency plane.
            result = (
                self.model0.simulate_routing(design)
                if self.kind == "routing"
                else self.model0.simulate_end_to_end(design)
            )
            return _DesignValues.constant(result, self.n)
        if self.kind == "routing":
            if type(strategy) is dp.PIMPipelinedStrategy:
                flags = (strategy.custom_mapping, strategy.interleaved_placement)
            else:  # AllInPIMStrategy routes with routing_on_hmc defaults
                flags = (True, False)
            return self._routing_values(self._flavor(*flags), design)
        if type(strategy) is dp.PIMPipelinedStrategy:
            return self._pipelined_values(strategy, design)
        return self._all_in_pim_values(strategy, design)

    # ------------------------------------------------- plan/dimension choice

    def _dim_selection(self) -> Tuple[List[object], np.ndarray]:
        """The distribution plans and the per-frequency best-dimension index.

        Replicates ``WorkloadDistributor.best_plan``: the plans themselves
        are frequency-free; only the compute term of the estimated time
        scales with frequency, so the winning dimension can flip across the
        plane (the Fig. 18 effect).  Scores compare like the scalar path
        (``1/t`` vs ``inf``), and ``argmax`` keeps the first winner on ties
        exactly like ``max`` over the ``Dimension``-ordered plan dict.
        """
        if self._dim_idx is None:
            model = self.model0
            plans = model.distributor.all_plans()
            self._plans = list(plans.values())
            score_rows = []
            for plan in self._plans:
                cycles = model.datapath.cycles_for(plan.per_vault_operations)
                pes = model.intra_vault.effective_pes(
                    plan.per_vault_parallel_suboperations, plan.secondary_parallelism
                )
                compute = cycles / (pes * self.f_hz)
                estimated = (
                    np.maximum(compute, model.score_model.memory_time(plan))
                    + model.score_model.communication_time(plan)
                )
                with np.errstate(divide="ignore"):
                    score_rows.append(
                        np.where(estimated > 0.0, 1.0 / estimated, np.inf)
                    )
            self._dim_idx = np.argmax(np.stack(score_rows), axis=0)
        return self._plans, self._dim_idx

    # --------------------------------------------------- routing on the HMC

    def _flavor(self, custom_mapping: bool, interleaved: bool) -> Dict[str, object]:
        """Per-point ``routing_on_hmc`` quantities for one placement flavor."""
        flags = (custom_mapping, interleaved)
        if flags in self._flavors:
            return self._flavors[flags]
        model = self.model0
        cfg = model.hmc_config
        plans, dim_idx = self._dim_selection()
        mapping = (CustomAddressMapping if custom_mapping else DefaultAddressMapping)(cfg)
        memory = VaultMemoryModel(cfg)
        power = model.hmc_power
        per_dim: List[Dict[str, object]] = []
        for plan in plans:
            if interleaved:
                remote_fraction = (cfg.num_vaults - 1) / cfg.num_vaults
                remote_bytes = plan.total_dram_bytes * remote_fraction
                payload = remote_bytes
                packets = remote_bytes / cfg.block_bytes
                per_vault_dram = plan.total_dram_bytes / cfg.num_vaults
                ports = cfg.num_vaults
            else:
                payload = plan.crossbar_payload_bytes
                packets = plan.crossbar_packets
                per_vault_dram = plan.per_vault_dram_bytes
                ports = 1
            utilization = model.intra_vault.utilization(
                plan.per_vault_parallel_suboperations, plan.secondary_parallelism
            )
            pes = max(1, int(round(cfg.pes_per_vault * utilization)))
            cycles = model.datapath.cycles_for(plan.per_vault_operations)
            dram_time = memory.base_service_time(per_vault_dram)
            conflict = mapping.bank_conflict_factor(cfg.pes_per_vault)
            vrs = memory.stall_time(per_vault_dram, conflict)
            xbar = model.crossbar.transfer(
                payload, packets, receiver_ports=ports
            ).total_time
            execution = np.maximum(cycles / (pes * self.f_hz), dram_time)
            total = (execution + vrs) + xbar
            wire_bytes = payload * (1.0 + cfg.packet_overhead_bytes / float(cfg.block_bytes))
            e_execution = power.pe_energy_per_op * plan.total_operations.total_operations
            e_dram = power.dram_energy_per_byte * plan.total_dram_bytes
            e_crossbar = power.crossbar_energy_per_byte * wire_bytes
            e_vault = (power.static_power_watts + power.logic_power_watts) * total
            energy = ((e_execution + e_dram) + e_crossbar) + e_vault
            per_dim.append(
                {
                    "execution": execution,
                    "vrs": vrs,
                    "xbar": xbar,
                    "time": total,
                    "energy": energy,
                    "e_execution": e_execution,
                    "e_dram": e_dram,
                    "e_crossbar": e_crossbar,
                    "e_vault": e_vault,
                    "dimension": plan.dimension,
                }
            )
        flavor: Dict[str, object] = {
            name: _select_rows(dim_idx, [entry[name] for entry in per_dim])
            for name in (
                "execution",
                "vrs",
                "xbar",
                "time",
                "energy",
                "e_execution",
                "e_dram",
                "e_crossbar",
                "e_vault",
            )
        }
        flavor["dimension"] = [per_dim[j]["dimension"] for j in dim_idx.tolist()]
        self._flavors[flags] = flavor
        return flavor

    def _routing_values(self, flavor: Dict[str, object], design: DesignLike) -> _DesignValues:
        benchmark = self.model0.benchmark.name
        times = flavor["time"].tolist()
        energies = flavor["energy"].tolist()
        execution = flavor["execution"].tolist()
        vrs = flavor["vrs"].tolist()
        xbar = flavor["xbar"].tolist()
        e_execution = flavor["e_execution"].tolist()
        e_dram = flavor["e_dram"].tolist()
        e_crossbar = flavor["e_crossbar"].tolist()
        e_vault = flavor["e_vault"].tolist()
        dimensions = flavor["dimension"]

        def materialize(i: int) -> RoutingComparison:
            return RoutingComparison(
                design=design,
                benchmark=benchmark,
                time_seconds=times[i],
                energy_joules=energies[i],
                time_components={
                    "execution": execution[i],
                    "xbar": xbar[i],
                    "vrs": vrs[i],
                },
                energy_components={
                    "execution": e_execution[i],
                    "dram": e_dram[i],
                    "crossbar": e_crossbar[i],
                    "vault": e_vault[i],
                },
                dimension=dimensions[i],
            )

        return _DesignValues(times, energies, materialize)

    def _rp(self, rp_design: DesignLike) -> Tuple[np.ndarray, np.ndarray]:
        """Per-point routing time/energy arrays of a pipeline's RP stage."""
        dp = _design_points_module()
        key = design_key(rp_design)
        if key not in self._rp_cache:
            strategy = get_strategy(rp_design)
            if type(strategy) is dp.GPUExecutionStrategy:
                result = self.model0.simulate_routing(rp_design)
                pair = (
                    np.full(self.n, result.time_seconds),
                    np.full(self.n, result.energy_joules),
                )
            else:
                if type(strategy) is dp.PIMPipelinedStrategy:
                    flags = (strategy.custom_mapping, strategy.interleaved_placement)
                else:
                    flags = (True, False)
                flavor = self._flavor(*flags)
                pair = (flavor["time"], flavor["energy"])
            self._rp_cache[key] = pair
        return self._rp_cache[key]

    # ------------------------------------------------------------ end-to-end

    def _pipelined_values(self, strategy, design: DesignLike) -> _DesignValues:
        model = self.model0
        host = model.host_stage()
        rp_time_raw, rp_energy = self._rp(strategy.rp_design)
        num_vaults = model.hmc_config.num_vaults
        if strategy.policy is SchedulerPolicy.RMAS:
            # ContentionModel.optimal_share scans every host-priority vault
            # count; the cost matrix compares all shares per point at once.
            pairs = [
                model.contention.slowdowns_for_share(n / num_vaults)
                for n in range(num_vaults + 1)
            ]
            cost = np.stack(
                [
                    np.maximum(host["time"] * hs, rp_time_raw * ps)
                    for hs, ps in pairs
                ]
            )
            best = np.argmin(cost, axis=0)  # first minimum, like strict '<'
            host_slowdown = np.asarray([hs for hs, _ in pairs])[best]
            pim_slowdown = np.asarray([ps for _, ps in pairs])[best]
        else:
            decision = model.rmas.decide(
                targeted_vaults=num_vaults, queue_depth=model.rmas_queue_depth
            )
            host_slowdown, pim_slowdown = model.contention.slowdowns(
                strategy.policy, decision
            )
        host_time = host["time"] * host_slowdown
        rp_time = rp_time_raw * pim_slowdown
        num_batches = model.pipeline.num_batches
        if num_batches == 1:
            total = host_time + rp_time
        else:
            total = (
                host_time + (num_batches - 1) * np.maximum(host_time, rp_time)
            ) + rp_time
        gpu_energy = model.gpu_energy
        host_energy = (
            gpu_energy._background_power * host_time
            + gpu_energy.energy_per_flop * host["flops"]
        ) + gpu_energy.energy_per_dram_byte * host["traffic"]
        idle_time = np.maximum(0.0, total - num_batches * host_time)
        idle_energy = (gpu_energy.device.idle_watts * idle_time + 0.0) + 0.0
        energy = num_batches * (host_energy + rp_energy * pim_slowdown) + idle_energy
        return self._end_to_end_values(
            design, host_time, rp_time, total, energy, pipelined=True
        )

    def _all_in_pim_values(self, strategy, design: DesignLike) -> _DesignValues:
        dp = _design_points_module()
        model = self.model0
        cfg = model.hmc_config
        host = model.host_stage()
        rp_time, rp_energy = self._rp(strategy.rp_design)
        # HMCDevice.execute_dense: streaming MACs spread over every vault.
        streaming_costs = dict(DEFAULT_CYCLES_PER_OPERATION)
        streaming_costs[PEOperation.MAC] = STREAMING_MAC_CYCLES
        datapath = PEDatapath(
            frequency_hz=model.datapath.frequency_hz,
            cycles_per_operation=streaming_costs,
        )
        macs = host["flops"] / 2.0
        mix = OperationMix().add(PEOperation.MAC, macs / cfg.num_vaults)
        cycles = datapath.cycles_for(mix)
        pes = max(1, int(round(cfg.pes_per_vault * 1.0)))
        memory = VaultMemoryModel(cfg)
        per_vault_bytes = host["traffic"] / cfg.num_vaults
        dram_time = memory.base_service_time(per_vault_bytes)
        conflict = CustomAddressMapping(cfg).bank_conflict_factor(cfg.pes_per_vault)
        vrs = memory.stall_time(per_vault_bytes, conflict)
        xbar = model.crossbar.transfer(0.0, 0.0).total_time
        host_time = (np.maximum(cycles / (pes * self.f_hz), dram_time) + vrs) + xbar
        num_batches = model.pipeline.num_batches
        total = num_batches * (host_time + rp_time)
        power = model.hmc_power
        wire_bytes = 0.0 * (1.0 + cfg.packet_overhead_bytes / float(cfg.block_bytes))
        e_execution = (
            power.pe_energy_per_op * dp.dense_operation_mix(host["flops"]).total_operations
        )
        e_dram = power.dram_energy_per_byte * host["traffic"]
        e_crossbar = power.crossbar_energy_per_byte * wire_bytes
        e_vault = (power.static_power_watts + power.logic_power_watts) * host_time
        host_energy = ((e_execution + e_dram) + e_crossbar) + e_vault
        energy = num_batches * (host_energy + rp_energy)
        return self._end_to_end_values(
            design, host_time, rp_time, total, energy, pipelined=False
        )

    def _end_to_end_values(
        self,
        design: DesignLike,
        host_time: np.ndarray,
        rp_time: np.ndarray,
        total: np.ndarray,
        energy: np.ndarray,
        *,
        pipelined: bool,
    ) -> _DesignValues:
        model = self.model0
        benchmark = model.benchmark.name
        host_list = np.broadcast_to(host_time, total.shape).tolist()
        rp_list = np.broadcast_to(rp_time, total.shape).tolist()
        times = total.tolist()
        energies = np.broadcast_to(energy, total.shape).tolist()
        timing_of = model.pipeline.pipelined if pipelined else model.pipeline.serial

        def materialize(i: int) -> EndToEndComparison:
            return EndToEndComparison(
                design=design,
                benchmark=benchmark,
                timing=timing_of(host_list[i], rp_list[i]),
                energy_joules=energies[i],
                host_stage_seconds=host_list[i],
                routing_stage_seconds=rp_list[i],
            )

        return _DesignValues(times, energies, materialize)


# ------------------------------------------------------------ grid evaluation


def _select_benchmarks(base: Scenario) -> List[str]:
    """The benchmark fallback chain, mirroring ``SimulationContext``."""
    selection = base.benchmark_selection()
    return selection if selection else base.catalog.names()


def _plane_hashes(anchor: Scenario, frequencies: List[float]) -> List[str]:
    """Per-frequency hardware hashes of one plane, without per-point scenarios.

    Within a plane the variants differ *only* in ``hmc.pe_frequency_mhz``,
    so one hardware dict is re-digested per frequency -- identical to
    ``Scenario.hardware_hash()`` of the full variant, at a fraction of the
    construction cost (a unit test pins the equivalence).
    """
    template = anchor.hardware_dict()
    hmc = template["hmc"]
    hashes = []
    for value in frequencies:
        hmc["pe_frequency_mhz"] = value
        hashes.append(canonical_digest(template))
    return hashes


def evaluate_grid(
    spec: SweepSpec,
    base: Optional[Scenario] = None,
    benchmarks: Optional[List[str]] = None,
    *,
    assignments: Optional[List[Dict[str, object]]] = None,
    cache: Optional[SimulationCache] = None,
    verify: str = "sample",
) -> List[dict]:
    """Evaluate (a slice of) a sweep grid with the vectorized backend.

    Args:
        spec: the sweep (must pass :func:`vectorization_blocker`).
        base: base scenario (paper default when ``None``).
        benchmarks: resolved benchmark names (``None`` = the base scenario's
            selection chain).
        assignments: grid-point assignments to evaluate (``None`` = the whole
            grid); work-queue shards pass their slice.
        cache: shared :class:`~repro.engine.diskcache.SimulationCache`
            (``None`` disables persistence); flushed once before returning.
        verify: equivalence-gate mode (:data:`VERIFY_MODES`).

    Returns:
        One outcome dict per assignment, shaped exactly like the scalar
        executor's: ``{"cells", "simulations", "disk_hits", "disk_misses"}``.
    """
    base = base if base is not None else Scenario.default()
    if verify not in VERIFY_MODES:
        raise ValueError(f"unknown verify mode {verify!r}; choose from {list(VERIFY_MODES)}")
    blocker = vectorization_blocker(spec, base)
    if blocker is not None:
        raise ValueError(f"sweep cannot be vectorized: {blocker}")
    if assignments is None:
        assignments = spec.assignments()
    names = list(benchmarks) if benchmarks else _select_benchmarks(base)
    kind = "routing" if spec.kind == "routing" else "end_to_end"
    outcomes: List[Optional[dict]] = [None] * len(assignments)
    plane_axes = [key for key in spec.axis_keys if key != FREQUENCY_AXIS]
    planes: Dict[tuple, List[int]] = {}
    for position, assignment in enumerate(assignments):
        plane_key = tuple(assignment[key] for key in plane_axes)
        planes.setdefault(plane_key, []).append(position)
    for positions in planes.values():
        _evaluate_plane(
            spec, base, assignments, positions, names, kind, cache, verify, outcomes
        )
    if cache is not None:
        cache.flush()
    return outcomes  # type: ignore[return-value]


def _evaluate_plane(
    spec: SweepSpec,
    base: Scenario,
    assignments: List[Dict[str, object]],
    positions: List[int],
    names: List[str],
    kind: str,
    cache: Optional[SimulationCache],
    verify: str,
    outcomes: List[Optional[dict]],
) -> None:
    """Evaluate one frequency plane into ``outcomes`` (in grid positions)."""
    count = len(positions)
    frequencies = [float(assignments[p][FREQUENCY_AXIS]) for p in positions]
    anchor = spec.scenario_for(base, assignments[positions[0]])
    catalog = anchor.catalog
    configs = {name: catalog.benchmark(name) for name in names}
    cell_designs: List[DesignLike] = [DesignPoint.BASELINE_GPU]
    cell_designs.extend(str(design) for design in spec.designs)
    baseline_key = design_key(DesignPoint.BASELINE_GPU)

    # -- disk cache: one bulk lookup for the whole plane ----------------------
    hit_results: Dict[Tuple[int, str, str], object] = {}
    hits_per_point = [0] * count
    misses_per_point = [0] * count
    hashes: Optional[List[str]] = None
    if cache is not None:
        hashes = _plane_hashes(anchor, frequencies)
        requests = [
            (hashes[i], configs[name], kind, design)
            for i in range(count)
            for name in names
            for design in cell_designs
        ]
        found = cache.get_many(requests)
        cursor = 0
        for i in range(count):
            for name in names:
                for design in cell_designs:
                    result = found[cursor]
                    cursor += 1
                    if result is None:
                        misses_per_point[i] += 1
                    else:
                        hits_per_point[i] += 1
                        hit_results[(i, name, design_key(design))] = result
        any_miss = any(misses_per_point)
    else:
        any_miss = True

    # -- vectorized evaluation (only the planes' fresh cells need it) --------
    bench_planes: Dict[str, _BenchmarkPlane] = {}
    if any_miss:
        f_hz = np.asarray(frequencies, dtype=np.float64) * 1e6
        kwargs = anchor.model_kwargs()
        for name in names:
            bench_planes[name] = _BenchmarkPlane(
                PIMCapsNet(configs[name], **kwargs), f_hz, kind
            )

    # Per-(benchmark, design) value arrays, hoisted out of the point loop:
    # the loop below runs once per grid point and is the only per-point
    # Python cost of the whole backend, so it must only index lists.
    computed: Dict[Tuple[int, str, str], object] = {}
    design_meta = [(str(design), design_key(design)) for design in cell_designs[1:]]
    per_bench: Dict[str, tuple] = {}
    for name in names:
        if any_miss:
            plane = bench_planes[name]
            baseline_values = plane.values(DesignPoint.BASELINE_GPU)
            design_values = [
                (design_str, dkey, plane.values(dkey))
                for design_str, dkey in design_meta
            ]
        else:  # fully warm plane: every lookup hits, the arrays are unused
            baseline_values = None
            design_values = [
                (design_str, dkey, None) for design_str, dkey in design_meta
            ]
        per_bench[name] = (baseline_values, design_values)

    if cache is None:
        # Fast path (also the 100k-point benchmark path): no hit lookups,
        # every cell is fresh, simulations count the whole point.
        point_simulations = len(names) * len(cell_designs)
        for i in range(count):
            cells: List[dict] = []
            for name in names:
                baseline_values, design_values = per_bench[name]
                baseline_time = baseline_values.times[i]
                baseline_energy = baseline_values.energies[i]
                for design_str, _, values in design_values:
                    cells.append(
                        {
                            "benchmark": name,
                            "design": design_str,
                            "time_seconds": values.times[i],
                            "energy_joules": values.energies[i],
                            "baseline_time_seconds": baseline_time,
                            "baseline_energy_joules": baseline_energy,
                        }
                    )
            outcomes[positions[i]] = {
                "cells": cells,
                "simulations": point_simulations,
                "disk_hits": 0,
                "disk_misses": 0,
            }
    else:
        puts: List[tuple] = []
        for i in range(count):
            cells = []
            fresh = 0
            for name in names:
                baseline_values, design_values = per_bench[name]
                hit = hit_results.get((i, name, baseline_key))
                if hit is not None:
                    baseline_time = hit.time_seconds
                    baseline_energy = hit.energy_joules
                else:
                    baseline_time = baseline_values.times[i]
                    baseline_energy = baseline_values.energies[i]
                    fresh += 1
                    result = baseline_values.result(i)
                    computed[(i, name, baseline_key)] = result
                    puts.append(
                        (hashes[i], configs[name], kind, DesignPoint.BASELINE_GPU, result)
                    )
                for design_str, dkey, values in design_values:
                    hit = hit_results.get((i, name, dkey))
                    if hit is not None:
                        time_seconds = hit.time_seconds
                        energy_joules = hit.energy_joules
                    else:
                        time_seconds = values.times[i]
                        energy_joules = values.energies[i]
                        fresh += 1
                        result = values.result(i)
                        computed[(i, name, dkey)] = result
                        puts.append((hashes[i], configs[name], kind, design_str, result))
                    cells.append(
                        {
                            "benchmark": name,
                            "design": design_str,
                            "time_seconds": time_seconds,
                            "energy_joules": energy_joules,
                            "baseline_time_seconds": baseline_time,
                            "baseline_energy_joules": baseline_energy,
                        }
                    )
            outcomes[positions[i]] = {
                "cells": cells,
                "simulations": fresh,
                "disk_hits": hits_per_point[i],
                "disk_misses": misses_per_point[i],
            }
        if puts:
            cache.put_many(puts)

    # -- equivalence gate: scalar re-check of freshly computed points --------
    if verify == "off" or not any_miss:
        return
    if cache is None:
        fresh_points = list(range(count))
    else:
        fresh_points = sorted({i for (i, _, _) in computed})
    if not fresh_points:
        return
    if verify == "sample":
        fresh_points = sorted({fresh_points[0], fresh_points[-1]})
    for i in fresh_points:
        sims = _verify_point(
            spec,
            base,
            assignments[positions[i]],
            names,
            configs,
            kind,
            cell_designs,
            lambda name, design, i=i: (
                computed.get((i, name, design_key(design)))
                if cache is not None
                else bench_planes[name].values(design).result(i)
            ),
        )
        outcomes[positions[i]]["simulations"] += sims


def _verify_point(
    spec: SweepSpec,
    base: Scenario,
    assignment: Dict[str, object],
    names: List[str],
    configs: Dict[str, object],
    kind: str,
    cell_designs: List[DesignLike],
    vectorized_result: Callable[[str, DesignLike], Optional[object]],
) -> int:
    """Re-simulate one grid point through the scalar path and compare exactly."""
    variant = spec.scenario_for(base, assignment)
    kwargs = variant.model_kwargs()
    simulations = 0
    for name in names:
        model = PIMCapsNet(configs[name], **kwargs)
        for design in cell_designs:
            vectorized = vectorized_result(name, design)
            if vectorized is None:
                continue
            reference = (
                model.simulate_routing(design)
                if kind == "routing"
                else model.simulate_end_to_end(design)
            )
            _assert_results_equal(
                vectorized,
                reference,
                f"point {assignment!r}, benchmark {name!r}, "
                f"design {design_key(design)!r}",
            )
        simulations += model.simulations_executed
    return simulations


def _assert_results_equal(vectorized: object, reference: object, context: str) -> None:
    """Exact field-by-field comparison; any difference is a hard error."""
    problems: List[str] = []

    def check(label: str, got: object, want: object) -> None:
        if got != want:
            problems.append(f"{label}: vectorized {got!r} != scalar {want!r}")

    check("design", design_key(vectorized.design), design_key(reference.design))
    check("benchmark", vectorized.benchmark, reference.benchmark)
    check("energy_joules", vectorized.energy_joules, reference.energy_joules)
    if isinstance(reference, RoutingComparison):
        check("time_seconds", vectorized.time_seconds, reference.time_seconds)
        check("time_components", vectorized.time_components, reference.time_components)
        check(
            "energy_components", vectorized.energy_components, reference.energy_components
        )
        check("dimension", vectorized.dimension, reference.dimension)
    else:
        check(
            "timing.host_stage_time",
            vectorized.timing.host_stage_time,
            reference.timing.host_stage_time,
        )
        check(
            "timing.routing_stage_time",
            vectorized.timing.routing_stage_time,
            reference.timing.routing_stage_time,
        )
        check(
            "timing.num_batches",
            vectorized.timing.num_batches,
            reference.timing.num_batches,
        )
        check("timing.pipelined", vectorized.timing.pipelined, reference.timing.pipelined)
        check(
            "host_stage_seconds",
            vectorized.host_stage_seconds,
            reference.host_stage_seconds,
        )
        check(
            "routing_stage_seconds",
            vectorized.routing_stage_seconds,
            reference.routing_stage_seconds,
        )
    if problems:
        raise VectorizedMismatchError(
            f"vectorized sweep result diverged from the scalar path at {context}: "
            + "; ".join(problems)
            + " -- this is a bug in the vectorized backend; "
            "run with backend='scalar' to work around it"
        )
