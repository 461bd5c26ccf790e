"""Every metric the benchmark reports, and the statistics behind them.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` keeps the two
in step.  Each per-layer metric names the end-to-end metric it should move
and the workloads it should move it on; on every other workload the
prediction is no change.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence

from perfbench.checks import EXPERIMENTS


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: str


#: Untraced metrics: every workload reports all of them.  The latency
#: percentiles and throughput of ``serve`` are per-layer ``serve.*``
#: metrics: a batch workload runs too few CLI passes for a tail or a rate.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "fresh interpreter until the entry point is ready, or until `repro serve` "
             "answers /healthz (median of the run's launches)"),
    EndToEnd("cold_s", "s", "lower", 0.25,
             "the job on empty caches: a CLI pass, or the median request for a scenario the "
             "server has not answered yet (mean over the run's passes or server instances)"),
    EndToEnd("warm_s", "s", "lower", 0.25,
             "the job again on the caches it left: a CLI pass, or the median request for an "
             "answered scenario (mean over the run's passes or server instances)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25,
             "peak resident memory of the process under test and its workers"),
]

_REPRO = "reproduce"
_SWEEP = "sweep-freq"
_SERVE = "serve"
_CACHED = "sweep-freq, serve"
_ALL = "all"

#: Traced metrics: self time of the named spans, or counts.
PER_LAYER: List[PerLayer] = [
    PerLayer("capsnet.conv_fwd_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.conv_bwd_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.primary_fwd_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.primary_bwd_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.predict_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.routing_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.caps_bwd_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.step_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.train_steps_n", "count", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.dataset_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("capsnet.eval_s", "s", "lower", "cold_s", _REPRO),
    PerLayer("cache.model_get_s", "s", "lower", "warm_s, cold_s", _REPRO),
    PerLayer("cache.model_put_s", "s", "lower", "warm_s, cold_s", _REPRO),
    PerLayer("cache.model_hits_n", "count", "higher", "warm_s, cold_s", _REPRO),
    PerLayer("cache.model_misses_n", "count", "lower", "warm_s, cold_s", _REPRO),
    *[PerLayer(f"experiments.{name}_s", "s", "lower", "warm_s", _REPRO) for name in EXPERIMENTS],
    PerLayer("report.render_s", "s", "lower", "warm_s", _REPRO),
    PerLayer("sweep.vectorized_s", "s", "lower", "cold_s", _SWEEP),
    PerLayer("cache.sim_get_s", "s", "lower", "warm_s", _CACHED),
    PerLayer("cache.sim_put_s", "s", "lower", "cold_s", _CACHED),
    PerLayer("cache.sim_flush_s", "s", "lower", "cold_s", _CACHED),
    PerLayer("cache.sim_bytes", "B", "lower", "cold_s", _CACHED),
    PerLayer("core.simulate_s", "s", "lower", "cold_s", _SERVE),
    PerLayer("core.model_build_s", "s", "lower", "cold_s", _SERVE),
    PerLayer("core.models_n", "count", "lower", "cold_s", _SERVE),
    PerLayer("engine.context_s", "s", "lower", "warm_s", _SERVE),
    PerLayer("api.scenario_s", "s", "lower", "warm_s", _SERVE),
    PerLayer("sweep.expand_s", "s", "lower", "warm_s", _SWEEP),
    PerLayer("sweep.render_s", "s", "lower", "warm_s, cold_s", _SWEEP),
    PerLayer("sweep.cells_n", "count", "higher", "warm_s, cold_s", _SWEEP),
    PerLayer("sweep.cells_per_sim", "ratio", "higher", "warm_s, cold_s", _SWEEP),
    PerLayer("engine.simulations_n", "count", "lower", "cold_s", _ALL),
    PerLayer("cache.sim_hits_n", "count", "higher", "warm_s", _ALL),
    PerLayer("cache.sim_misses_n", "count", "lower", "cold_s", _ALL),
    PerLayer("api.session_run_s", "s", "lower", "warm_s", _SERVE),
    # Client-side figures of the trace run's untraced closed loop.
    PerLayer("serve.p50_ms", "ms", "lower", "warm_s", _SERVE),
    PerLayer("serve.p99_ms", "ms", "lower", "cold_s", _SERVE),
    PerLayer("serve.rps", "1/s", "higher", "warm_s, cold_s", _SERVE),
    PerLayer("serve.hot_p50_ms", "ms", "lower", "warm_s", _SERVE),
    PerLayer("serve.novel_p50_ms", "ms", "lower", "cold_s", _SERVE),
    PerLayer("serve.novel_p99_ms", "ms", "lower", "cold_s", _SERVE),
    PerLayer("serve.server_p50_ms", "ms", "lower", "warm_s", _SERVE),
    PerLayer("serve.transport_p50_ms", "ms", "lower", "warm_s", _SERVE),
    PerLayer("serve.sessions_evicted_n", "count", "lower", "cold_s", _SERVE),
    PerLayer("serve.runs_coalesced_n", "count", "higher", "cold_s", _SERVE),
    PerLayer("setup.numpy_s", "s", "lower", "setup_s", _ALL),
    PerLayer("setup.repro_s", "s", "lower", "setup_s", _ALL),
    PerLayer("trace.coverage", "ratio", "higher", "(check: >= 0.95 on cold reproduce)", _REPRO),
    PerLayer("trace.overhead_s", "s", "lower", "(traced minus untraced cold_s)", _ALL),
    PerLayer("trace.main_layer_share", "ratio", "lower", "cold_s", _ALL),
    PerLayer("failed_frac", "ratio", "lower", "(failed / attempted operations)", _ALL),
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[int(index)]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def mean(samples: Sequence[float]) -> float:
    return statistics.fmean(samples)


def layer_metrics(self_times: Dict[str, float], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from span self times and counters (0 = unused)."""
    values = {metric.name: 0.0 for metric in PER_LAYER}
    for span, seconds in self_times.items():
        name = f"{span}_s"
        if name in values:
            values[name] += seconds
    for name, count in counts.items():
        if name in values:
            values[name] += count
    return values
