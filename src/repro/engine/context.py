"""Shared simulation state for the experiment engine.

A :class:`SimulationContext` owns every :class:`~repro.core.accelerator.
PIMCapsNet` instance built during a run and memoizes the ``(benchmark,
design)`` routing / end-to-end results, so experiments that look at the same
design points (Figs. 15, 16 and 17 all need the GPU baseline and the
PIM-CapsNet routing numbers, for example) never pay for the same simulation
twice.  Simulations run in the thread that asks for them: the analytic
models are pure Python, so threads would only contend for the interpreter
lock.  The context is still thread-safe, because serve's handler threads
share one context per warm scenario.

Every context simulates exactly one hardware
:class:`~repro.api.scenario.Scenario` (the paper default when none is
given): the scenario supplies the HMC configuration, the host GPU and its
cost model, and the pipeline/RMAS parameters of every model the context
builds, so experiments never assume hardware defaults themselves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

from repro.core.accelerator import EndToEndComparison, PIMCapsNet, RoutingComparison
from repro.engine.strategies import DesignLike, design_key
from repro.workloads.benchmarks import BenchmarkConfig
from repro.workloads.catalog import WorkloadCatalog
from repro.workloads.parallelism import Dimension

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.scenario import Scenario
    from repro.engine.diskcache import SimulationCache, TrainedModelCache

@dataclass
class CacheStats:
    """Hit/miss (and degradation) counters of one cache instance.

    ``corrupt_artifacts`` and ``write_errors`` only move for the on-disk
    caches: corrupt/truncated files that were quarantined, and flushes or
    publishes the disk refused (after retries).
    """

    hits: int = 0
    misses: int = 0
    corrupt_artifacts: int = 0
    write_errors: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        return self.hits / self.requests if self.requests else 0.0


class SimulationContext:
    """Memoizing, thread-safe home of all accelerator models in a run.

    Args:
        model_factory: constructor used for new accelerator models
            (:class:`~repro.core.accelerator.PIMCapsNet` by default; tests can
            substitute a stub).
        scenario: hardware scenario every model is built from (the paper
            default when ``None``).
        disk_cache: optional persistent
            :class:`~repro.engine.diskcache.SimulationCache` consulted between
            the in-memory caches and an actual simulation; hits skip model
            construction entirely, misses are written back after simulating.
        model_cache: optional persistent
            :class:`~repro.engine.diskcache.TrainedModelCache` the training
            experiments (Table 5) consult before training a functional
            CapsNet; a warm cache makes ``reproduce`` execute zero training
            steps.
    """

    def __init__(
        self,
        model_factory: Optional[Callable[..., PIMCapsNet]] = None,
        scenario: Optional["Scenario"] = None,
        disk_cache: Optional["SimulationCache"] = None,
        model_cache: Optional["TrainedModelCache"] = None,
    ) -> None:
        if scenario is None:
            # Imported lazily: repro.api.session imports this module at load time.
            from repro.api.scenario import Scenario

            scenario = Scenario.default()
        self.scenario = scenario
        #: The scenario's workload catalog (Table 1 + scenario workloads):
        #: the single name-resolution authority of this run.
        self.catalog: WorkloadCatalog = scenario.catalog
        self._factory = model_factory or PIMCapsNet
        self.disk_cache = disk_cache
        #: Persistent trained-model store (``None`` disables model caching).
        self.trained_models = model_cache
        self._lock = threading.RLock()
        self._models: Dict[tuple, PIMCapsNet] = {}
        self._results: Dict[tuple, object] = {}
        self.stats = CacheStats()
        self.model_stats = CacheStats()

    # ------------------------------------------------------------------- models

    def model(
        self,
        benchmark: Union[str, BenchmarkConfig],
        *,
        pe_frequency_mhz: Optional[float] = None,
        force_dimension: Optional[Dimension] = None,
    ) -> PIMCapsNet:
        """The memoized accelerator model for one benchmark variant.

        Args:
            benchmark: catalog workload name (Table 1 or a scenario workload)
                or an explicit configuration.
            pe_frequency_mhz: override the HMC PE frequency (Fig. 18 sweeps).
            force_dimension: force the inter-vault distribution dimension
                (Fig. 18 sweeps).
        """
        config = self.benchmark_config(benchmark)
        key = self._model_key(config, pe_frequency_mhz, force_dimension)
        with self._lock:
            model = self._models.get(key)
            if model is not None:
                self.model_stats.hits += 1
                return model
            self.model_stats.misses += 1
            # The scenario supplies the hardware; under the default scenario
            # this degenerates to the bare pre-scenario constructor call (the
            # golden-report invariant, and what stub factories expect).
            kwargs = self.scenario.model_kwargs(
                pe_frequency_mhz=pe_frequency_mhz, force_dimension=force_dimension
            )
            model = self._factory(config, **kwargs)
            self._models[key] = model
            return model

    def models(self) -> List[PIMCapsNet]:
        """Every model instantiated so far."""
        with self._lock:
            return list(self._models.values())

    def benchmark_config(
        self, benchmark: Union[str, BenchmarkConfig]
    ) -> BenchmarkConfig:
        """Resolve a benchmark name through the scenario's workload catalog.

        Names are case-insensitive and cover both the Table-1 benchmarks and
        the scenario's own workloads; explicit configurations pass through
        unchanged.
        """
        if isinstance(benchmark, str):
            return self.catalog.benchmark(benchmark)
        return benchmark

    def select_benchmarks(self, benchmarks: Optional[List[str]] = None) -> List[str]:
        """Resolve the evaluated benchmarks for one experiment run.

        An explicit (non-empty) argument wins, then the scenario's own
        selection, then the whole catalog (Table 1 plus the scenario's
        workloads) -- the single fallback chain every experiment module
        shares.
        """
        if benchmarks:
            return list(benchmarks)
        selection = self.scenario.benchmark_selection()
        return selection if selection else self.catalog.names()

    def _model_key(
        self,
        benchmark: Union[str, BenchmarkConfig],
        pe_frequency_mhz: Optional[float],
        force_dimension: Optional[Dimension],
    ) -> tuple:
        # Key by the (frozen, hashable) configuration itself, not its name:
        # a custom BenchmarkConfig that shares a Table-1 name must not alias
        # the canonical benchmark's cache entries.
        return (self.benchmark_config(benchmark), pe_frequency_mhz, force_dimension)

    # ------------------------------------------------------------------ results

    def routing(
        self,
        benchmark: Union[str, BenchmarkConfig],
        design: DesignLike,
        *,
        pe_frequency_mhz: Optional[float] = None,
        force_dimension: Optional[Dimension] = None,
    ) -> RoutingComparison:
        """Memoized routing-procedure result for ``(benchmark, design)``."""
        return self._simulate(
            "routing", benchmark, design, pe_frequency_mhz, force_dimension
        )

    def end_to_end(
        self,
        benchmark: Union[str, BenchmarkConfig],
        design: DesignLike,
        *,
        pe_frequency_mhz: Optional[float] = None,
        force_dimension: Optional[Dimension] = None,
    ) -> EndToEndComparison:
        """Memoized end-to-end result for ``(benchmark, design)``."""
        return self._simulate(
            "end_to_end", benchmark, design, pe_frequency_mhz, force_dimension
        )

    def _simulate(
        self,
        kind: str,
        benchmark: Union[str, BenchmarkConfig],
        design: DesignLike,
        pe_frequency_mhz: Optional[float],
        force_dimension: Optional[Dimension],
    ):
        model_key = self._model_key(benchmark, pe_frequency_mhz, force_dimension)
        key: Tuple = (kind, model_key, design_key(design))
        with self._lock:
            cached = self._results.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
        # The persistent cache sits between the in-memory caches and a real
        # simulation: a hit skips model construction entirely (the point of
        # warm sweep re-runs executing zero simulations).
        config = model_key[0]
        if self.disk_cache is not None:
            persisted = self.disk_cache.get(
                self.scenario, config, kind, design, pe_frequency_mhz, force_dimension
            )
            if persisted is not None:
                with self._lock:
                    return self._results.setdefault(key, persisted)
        # Simulate outside the context lock so serve's handler threads never
        # queue behind another request's simulation; concurrent lookups of
        # the *same* key are deduplicated by the model's own per-instance
        # cache.  Results are immutable, so every caller shares the first
        # stored object.
        model = self.model(
            benchmark,
            pe_frequency_mhz=pe_frequency_mhz,
            force_dimension=force_dimension,
        )
        if kind == "routing":
            result = model.simulate_routing(design)
        else:
            result = model.simulate_end_to_end(design)
        if self.disk_cache is not None:
            self.disk_cache.put(
                self.scenario,
                config,
                kind,
                design,
                result,
                pe_frequency_mhz=pe_frequency_mhz,
                force_dimension=force_dimension,
            )
        with self._lock:
            return self._results.setdefault(key, result)

    @property
    def simulations_executed(self) -> int:
        """Simulations actually run (model-level cache misses) so far.

        Counts every distinct ``(kind, design)`` simulation executed by any
        model owned by this context, including the nested routing simulations
        end-to-end strategies trigger; cache hits do not increment it.
        """
        with self._lock:
            return sum(model.simulations_executed for model in self._models.values())

    @property
    def disk_stats(self) -> CacheStats:
        """Hit/miss counters of the persistent cache (zeros when disabled)."""
        if self.disk_cache is None:
            return CacheStats()
        return self.disk_cache.stats
