"""Tests for :mod:`repro.sweep.vectorized` (bit-exact plane batching)."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Scenario
from repro.api.scenario import preset_names
from repro.core.accelerator import DesignPoint, PIMCapsNet
from repro.core.pipeline import PipelineTiming
from repro.engine.diskcache import CACHE_SCHEMA_VERSION, Block, SimulationCache
from repro.engine.strategies import (
    DesignPointStrategy,
    register_strategy,
    unregister_strategy,
)
from repro.hmc.config import HMCConfig
from repro.hmc.power import HMCPowerModel
from repro.sweep import (
    SweepRunner,
    SweepSpec,
    VectorizedMismatchError,
    evaluate_grid,
    vectorization_blocker,
)
from repro.sweep import vectorized as vectorized_module
from repro.sweep.vectorized import _assert_results_equal

FREQUENCIES = [156.25, 312.5, 625.0, 1250.0]

#: Every built-in non-baseline design point: covers the GPU strategy, all
#: three PIM-pipelined placements, the scheduler-policy variants and the
#: all-in-PIM offload.
ALL_DESIGNS = (
    "gpu-icp",
    "pim-capsnet",
    "pim-intra",
    "pim-inter",
    "all-in-pim",
    "rmas-pim",
    "rmas-gpu",
)


def _spec(kind="routing", benchmarks=("Caps-MN1", "Caps-SV2"), designs=ALL_DESIGNS):
    return SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": FREQUENCIES},
        benchmarks=benchmarks,
        designs=designs,
        kind=kind,
    )


def _run(spec, base=None, **kwargs):
    kwargs.setdefault("use_cache", False)
    kwargs.setdefault("jobs", 1)
    return SweepRunner(spec, base, **kwargs).run()


# --------------------------------------------------------------- equivalence


@pytest.mark.parametrize("preset", preset_names())
@pytest.mark.parametrize("kind", ["routing", "end-to-end"])
def test_vectorized_equals_scalar_on_every_preset(preset, kind):
    """Cell metrics match the scalar path exactly on every preset scenario.

    ``verify="full"`` additionally re-simulates *every* grid point through
    the scalar path inside the evaluator and requires exact equality of all
    result fields (components, dimensions, timings) -- so a clean run is
    itself the bit-exactness proof; the to_dict comparison then pins the
    aggregated output too.
    """
    base = Scenario.preset(preset)
    spec = _spec(kind=kind)
    vectorized = _run(spec, base, backend="vectorized", verify="full")
    scalar = _run(spec, base, backend="scalar")
    assert vectorized.executor_used == "vectorized"
    assert vectorized.to_dict() == scalar.to_dict()
    assert vectorized.format_report() == scalar.format_report()


def test_vectorized_covers_every_table1_workload():
    """All 12 Table-1 benchmarks, all built-in designs, exact equality."""
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 1250.0]}, designs=ALL_DESIGNS
    )
    vectorized = _run(spec, backend="vectorized", verify="full")
    scalar = _run(spec, backend="scalar")
    assert all(
        len({cell.benchmark for cell in point.cells}) == 12 for point in vectorized.points
    )
    assert vectorized.to_dict() == scalar.to_dict()


@pytest.mark.parametrize("kind", ["routing", "end-to-end"])
def test_vectorized_handles_em_routing_workloads(kind):
    """EM routing (Hinton et al.) flows through the batched path bit-exact."""
    base = Scenario.default().with_workloads(
        [
            {
                "name": "Caps-EM",
                "dataset": "MNIST",
                "batch_size": 64,
                "num_low_capsules": 512,
                "num_high_capsules": 10,
                "routing": "em",
            }
        ]
    )
    spec = _spec(kind=kind, benchmarks=("Caps-EM",))
    vectorized = _run(spec, base, backend="vectorized", verify="full")
    scalar = _run(spec, base, backend="scalar")
    assert vectorized.to_dict() == scalar.to_dict()


BATCH_FREQUENCIES = [100.0, 312.5, 1250.0, 2500.0]
BATCH_PES = [4, 8, 16, 32]

#: Grids whose PE counts batch with their frequencies, in both axis orders;
#: the ``pipeline_batches`` axis splits a sweep into several batches, each
#: spanning one shard per PE count.
BATCHED_GRIDS = {
    "pes-then-frequency": {
        "hmc.pes_per_vault": BATCH_PES,
        "hmc.pe_frequency_mhz": BATCH_FREQUENCIES,
    },
    "frequency-then-pes": {
        "hmc.pe_frequency_mhz": BATCH_FREQUENCIES,
        "hmc.pes_per_vault": BATCH_PES,
    },
    "three-axes": {
        "pipeline_batches": [4, 16],
        "hmc.pe_frequency_mhz": BATCH_FREQUENCIES,
        "hmc.pes_per_vault": BATCH_PES,
    },
    "three-axes-interleaved": {
        "hmc.pes_per_vault": BATCH_PES,
        "pipeline_batches": [4, 16],
        "hmc.pe_frequency_mhz": BATCH_FREQUENCIES,
    },
}


def test_vectorized_matches_across_plane_axes():
    """Multi-axis grids (several shards per batch, several batches per sweep)
    stay exact in every axis order, for both kinds and every design."""
    for axes in BATCHED_GRIDS.values():
        for kind in ("routing", "end-to-end"):
            spec = SweepSpec.from_axes(
                axes, benchmarks=("Caps-MN1", "Caps-EN1"), designs=ALL_DESIGNS, kind=kind
            )
            vectorized = _run(spec, backend="vectorized", verify="full")
            scalar = _run(spec, backend="scalar")
            assert vectorized.executor_used == "vectorized"
            assert vectorized.to_dict() == scalar.to_dict()
            assert vectorized.format_report() == scalar.format_report()


@pytest.mark.parametrize("kind", ["routing", "end-to-end"])
def test_one_batch_holds_pe_counts_with_different_winning_dimensions(kind):
    """At 625 MHz Caps-EN1 distributes along L with 8 PEs per vault and along
    H with 16: one batch holds both winners, and each point keeps its own PE
    count's dimension (``verify="full"`` re-checks it at every point)."""
    dimensions = {
        pes: PIMCapsNet(
            "Caps-EN1", hmc_config=HMCConfig(pe_frequency_mhz=625.0, pes_per_vault=pes)
        ).distributor.best_dimension()
        for pes in (8, 16)
    }
    assert dimensions[8] != dimensions[16]
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [625.0], "hmc.pes_per_vault": [8, 16]},
        benchmarks=("Caps-EN1",),
        designs=ALL_DESIGNS,
        kind=kind,
    )
    vectorized = _run(spec, backend="vectorized", verify="full")
    assert vectorized.to_dict() == _run(spec, backend="scalar").to_dict()


def test_a_warm_rerun_over_a_batched_cache_simulates_nothing(tmp_path):
    spec = SweepSpec.from_axes(
        BATCHED_GRIDS["three-axes"],
        benchmarks=("Caps-MN1", "Caps-EN1"),
        designs=ALL_DESIGNS,
        kind="end-to-end",
    )
    cold = SweepRunner(spec, jobs=1, cache_dir=tmp_path, backend="vectorized", verify="full").run()
    # One shard per PE count per pipeline depth.
    assert len(list(tmp_path.glob(f"v{CACHE_SCHEMA_VERSION}/**/*.json"))) == 2 * len(BATCH_PES)
    for backend in ("vectorized", "scalar"):
        warm = SweepRunner(spec, jobs=1, cache_dir=tmp_path, backend=backend).run()
        assert warm.simulations_executed == 0
        assert (warm.cache.hits, warm.cache.misses) == (cold.cache.misses, 0)
        assert json.dumps(warm.to_dict()) == json.dumps(cold.to_dict())
        assert warm.format_report() == cold.format_report()


def _count_models(monkeypatch) -> list:
    """Record the ``force_dimension`` of every ``PIMCapsNet`` built from now on."""
    built = []
    init = PIMCapsNet.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("force_dimension"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(PIMCapsNet, "__init__", counting)
    return built


def test_a_batch_builds_one_score_model_per_benchmark(monkeypatch):
    """A cold frequency x PE grid is one batch: per benchmark, one score model
    over every point plus one model per winning dimension, not one score
    model per PE count."""
    benchmarks = ("Caps-MN1", "Caps-EN1", "Caps-EN3")
    frequencies = [100.0, 200.0, 625.0, 1250.0]
    winners = {
        name: {
            PIMCapsNet(
                name, hmc_config=HMCConfig(pe_frequency_mhz=mhz, pes_per_vault=pes)
            ).distributor.best_dimension()
            for mhz in frequencies
            for pes in BATCH_PES
        }
        for name in benchmarks
    }
    assert max(map(len, winners.values())) > 1
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": frequencies, "hmc.pes_per_vault": BATCH_PES},
        benchmarks=benchmarks,
        designs=("pim-capsnet", "all-in-pim"),
        kind="end-to-end",
    )
    built = _count_models(monkeypatch)
    _run(spec, backend="vectorized", verify="off")
    assert built.count(None) == len(benchmarks)
    assert sorted(map(str, filter(None, built))) == sorted(
        str(dimension) for dimensions in winners.values() for dimension in dimensions
    )


def test_sample_verify_rechecks_the_first_and_last_fresh_frequency_of_each_shard(
    monkeypatch, tmp_path
):
    """The scalar re-check covers each PE count's frequency plane (one cache
    shard) on its own: its first and last fresh frequency, 8 points for 4 PE
    counts in one batch."""
    frequencies = [round(200.0 + 10.5 * i, 1) for i in range(100)]
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": frequencies, "hmc.pes_per_vault": BATCH_PES},
        benchmarks=("Caps-MN1", "Caps-EN1"),
        designs=("pim-capsnet", "rmas-gpu"),
        kind="end-to-end",
    )
    # Warm the first ten frequencies of two shards: their first fresh
    # frequency is then the eleventh.
    warm = dataclasses.replace(
        spec,
        axes=(
            dataclasses.replace(spec.axes[0], values=tuple(frequencies[:10])),
            dataclasses.replace(spec.axes[1], values=(4, 16)),
        ),
    )
    SweepRunner(warm, jobs=1, cache_dir=tmp_path, backend="vectorized").run()
    seen = []
    verify_point = vectorized_module._verify_point

    def spy(spec, base, assignment, *args):
        seen.append(assignment)
        return verify_point(spec, base, assignment, *args)

    monkeypatch.setattr(vectorized_module, "_verify_point", spy)
    result = SweepRunner(spec, jobs=1, cache_dir=tmp_path, backend="vectorized").run()
    first = {4: frequencies[10], 8: frequencies[0], 16: frequencies[10], 32: frequencies[0]}
    assert seen == [
        {"hmc.pe_frequency_mhz": mhz, "hmc.pes_per_vault": pes}
        for pes in BATCH_PES
        for mhz in (first[pes], frequencies[-1])
    ]
    assert result.cache.hits == 2 * 10 * 2 * 3
    cold = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "cold", backend="vectorized").run()
    assert result.to_dict() == cold.to_dict()


def _perfbench_inputs():
    """``perfbench/inputs.py``, which draws the benchmark's sweep grids."""
    path = Path(__file__).resolve().parents[2] / "perfbench" / "inputs.py"
    loader = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_the_perfbench_grid_keeps_its_cold_and_warm_counts(tmp_path):
    """Seed 5 of perfbench ``sweep-freq``: 100 frequencies x 4 PE counts, 12
    benchmarks, 4 designs, one batch.  The stats line counts 24,000 computed
    cells plus 672 scalar re-check simulations (8 points x 12 benchmarks x 7
    simulations: 5 end-to-end, 2 routing)."""
    spec = SweepSpec.from_dict(_perfbench_inputs().sweep_freq_spec(5))
    cold = SweepRunner(spec, jobs=1, cache_dir=tmp_path).run()
    assert cold.describe_stats().startswith(
        "sweep 'perfbench-freq-5': 400 points, 19200 cells, 24672 simulations "
        "executed, disk cache: 0 hits, 24000 misses, "
    )
    warm = SweepRunner(spec, jobs=1, cache_dir=tmp_path).run()
    assert warm.describe_stats().startswith(
        "sweep 'perfbench-freq-5': 400 points, 19200 cells, 0 simulations "
        "executed, disk cache: 24000 hits, 0 misses, "
    )
    assert warm.format_report() == cold.format_report()


def test_huge_pe_counts_are_computed_shard_by_shard():
    """A PE count past 2**53 does not fit the batch's int64 arithmetic; its
    shard is computed with the count as a Python int, as the scalar path
    does."""
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625.0], "hmc.pes_per_vault": [8, 2**70, 16]},
        benchmarks=("Caps-MN1",),
        designs=("pim-capsnet", "all-in-pim"),
    )
    vectorized = _run(spec, backend="vectorized", verify="full")
    assert vectorized.to_dict() == _run(spec, backend="scalar").to_dict()


def test_vectorized_reproduces_the_dimension_flip():
    """The Fig. 18 effect: the chosen distribution dimension flips with
    frequency, and the batched argmax picks the same winner as the scalar
    ``best_plan`` at every point (ties included)."""
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [100.0, 200.0, 312.5, 625.0, 1250.0, 2500.0]},
        benchmarks=("Caps-MN1", "Caps-CF3", "Caps-EN3", "Caps-SV3"),
        designs=("pim-capsnet",),
    )
    # verify="full" re-checks RoutingComparison.dimension at every point.
    result = _run(spec, backend="vectorized", verify="full")
    assert result.executor_used == "vectorized"


def _scale_vault_energy(monkeypatch):
    energy = HMCPowerModel.energy

    def scaled(self, *args, **kwargs):
        breakdown = energy(self, *args, **kwargs)
        return dataclasses.replace(breakdown, vault=breakdown.vault * 1.5)

    monkeypatch.setattr(HMCPowerModel, "energy", scaled)


def _scale_total_time(monkeypatch):
    total_time = PipelineTiming.total_time.fget
    monkeypatch.setattr(
        PipelineTiming, "total_time", property(lambda self: total_time(self) * 1.25)
    )


@pytest.mark.parametrize("patch", [_scale_vault_energy, _scale_total_time])
@pytest.mark.parametrize("kind", ["routing", "end-to-end"])
def test_vectorized_path_follows_the_model(monkeypatch, patch, kind):
    """A changed model method changes both backends alike: the vectorized
    evaluator runs the registered strategies, not a copy of their arithmetic."""
    patch(monkeypatch)
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625.0, 1250.0]},
        benchmarks=("Caps-MN1", "Caps-EN1"),
        designs=("pim-capsnet", "pim-intra", "all-in-pim", "rmas-gpu"),
        kind=kind,
    )
    vectorized = _run(spec, backend="vectorized", verify="full")
    assert vectorized.to_dict() == _run(spec, backend="scalar").to_dict()


@pytest.mark.parametrize(
    "frequencies",
    [[312.5, 0, -5, 625], [312.5, float("nan")], [312.5, float("inf")]],
    ids=["non-positive", "nan", "inf"],
)
@pytest.mark.parametrize("backend", ["vectorized", "scalar"])
def test_both_backends_reject_the_same_axis_values(backend, frequencies):
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": frequencies}, benchmarks=("Caps-MN1",)
    )
    with pytest.raises(ValueError, match="PE frequency must be finite and positive"):
        _run(spec, backend=backend)


# ------------------------------------------------------- eligibility/fallback


def test_auto_backend_vectorizes_eligible_sweeps(tmp_path):
    result = SweepRunner(
        _spec(benchmarks=("Caps-MN1",), designs=("pim-capsnet",)),
        jobs=1,
        cache_dir=tmp_path,
    ).run()
    assert result.executor_used == "vectorized"


def test_sweeps_without_a_frequency_axis_fall_back_to_scalar(tmp_path):
    spec = SweepSpec.from_axes(
        {"hmc.pes_per_vault": [8, 16]}, benchmarks=("Caps-MN1",)
    )
    assert "hmc.pe_frequency_mhz" in vectorization_blocker(spec)
    result = SweepRunner(spec, jobs=1, cache_dir=tmp_path).run()
    assert result.executor_used != "vectorized"
    with pytest.raises(ValueError, match="cannot be vectorized"):
        SweepRunner(spec, jobs=1, cache_dir=tmp_path, backend="vectorized").run()


def test_selection_axes_block_vectorization():
    spec = SweepSpec.from_axes(
        {
            "hmc.pe_frequency_mhz": [312.5, 625.0],
            "benchmarks": ["Caps-MN1", "Caps-SV1"],
        }
    )
    assert "selection" in vectorization_blocker(spec)


def test_scalar_backend_requests_keep_the_scalar_path(tmp_path):
    spec = _spec(benchmarks=("Caps-MN1",), designs=("pim-capsnet",))
    result = SweepRunner(
        spec, jobs=1, backend="scalar", cache_dir=tmp_path
    ).run()
    assert result.executor_used == "serial"


@pytest.fixture
def custom_design():
    """A registered strategy the vectorized backend does not understand."""

    class TweakedStrategy(DesignPointStrategy):
        key = "test-vec-custom"

        def simulate_routing(self, model, design=None):
            from repro.engine.design_points import routing_on_hmc

            result = routing_on_hmc(model, design or self.key)
            return dataclasses.replace(result, time_seconds=1.5 * result.time_seconds)

        def simulate_end_to_end(self, model, design=None):
            from repro.engine.strategies import get_strategy

            delegate = get_strategy(DesignPoint.PIM_CAPSNET)
            return delegate.simulate_end_to_end(model, design or self.key)

    strategy = TweakedStrategy()
    register_strategy(strategy)
    yield strategy.key
    unregister_strategy(strategy.key)


def test_custom_strategies_trigger_the_scalar_fallback(tmp_path, custom_design):
    spec = _spec(benchmarks=("Caps-MN1",), designs=("pim-capsnet", custom_design))
    blocker = vectorization_blocker(spec)
    assert "custom strategy" in blocker and custom_design in blocker
    auto = SweepRunner(spec, jobs=1, cache_dir=tmp_path / "auto").run()
    assert auto.executor_used != "vectorized"  # fallback engaged
    scalar = SweepRunner(
        spec, jobs=1, backend="scalar", cache_dir=tmp_path / "scalar"
    ).run()
    assert auto.to_dict() == scalar.to_dict()
    with pytest.raises(ValueError, match="custom strategy"):
        SweepRunner(spec, jobs=1, backend="vectorized").run()


def test_unknown_backend_and_verify_are_rejected():
    spec = _spec(benchmarks=("Caps-MN1",), designs=("pim-capsnet",))
    with pytest.raises(ValueError, match="unknown backend"):
        SweepRunner(spec, backend="simd")
    with pytest.raises(ValueError, match="unknown verify mode"):
        SweepRunner(spec, verify="sometimes")
    with pytest.raises(ValueError, match="unknown verify mode"):
        evaluate_grid(spec, verify="sometimes")


# ----------------------------------------------------------- equivalence gate


def test_mismatch_gate_raises_on_divergence():
    model = PIMCapsNet("Caps-MN1")
    reference = model.simulate_routing(DesignPoint.PIM_CAPSNET)
    tampered = dataclasses.replace(
        reference, time_seconds=reference.time_seconds * (1.0 + 1e-15)
    )
    with pytest.raises(VectorizedMismatchError, match="time_seconds"):
        _assert_results_equal(tampered, reference, "unit test")
    # Identical results pass silently.
    _assert_results_equal(
        model.simulate_routing(DesignPoint.PIM_CAPSNET), reference, "unit test"
    )


# ----------------------------------------------------------- cache integration


def test_plane_hashes_equal_full_scenario_hashes():
    """The vectorized backend files a plane under its anchor's plane hash;
    the scalar path files each point under the full variant's: they agree,
    so both backends read and write one shard per plane."""
    spec = _spec(benchmarks=("Caps-MN1",), designs=("pim-capsnet",))
    base = Scenario.default()
    anchor = spec.scenario_for(base, {"hmc.pe_frequency_mhz": FREQUENCIES[0]})
    variants = [
        spec.scenario_for(base, {"hmc.pe_frequency_mhz": mhz}) for mhz in FREQUENCIES
    ]
    assert [variant.plane_hash() for variant in variants] == [anchor.plane_hash()] * len(
        FREQUENCIES
    )
    # Only the frequency is left out of the plane hash.
    assert len({variant.hardware_hash() for variant in variants}) == len(FREQUENCIES)
    other = base.with_overrides({"hmc.pes_per_vault": 8})
    assert other.plane_hash() != anchor.plane_hash()


def test_vectorized_and_scalar_share_one_cache(tmp_path):
    """Entries written by either backend are warm hits for the other."""
    spec = _spec(benchmarks=("Caps-MN1",), designs=("pim-capsnet", "all-in-pim"))
    cold = SweepRunner(
        spec, jobs=1, backend="scalar", cache_dir=tmp_path
    ).run()  # scalar writes
    warm = SweepRunner(
        spec, jobs=1, backend="vectorized", cache_dir=tmp_path
    ).run()  # vectorized reads
    assert cold.simulations_executed > 0
    assert warm.simulations_executed == 0
    assert warm.cache.misses == 0
    assert warm.cache.hits == cold.cache.misses
    assert warm.to_dict() == cold.to_dict()
    assert warm.format_report() == cold.format_report()
    # And the reverse direction: vectorized writes, scalar reads.
    other = tmp_path / "reverse"
    SweepRunner(spec, jobs=1, backend="vectorized", cache_dir=other).run()
    scalar_warm = SweepRunner(
        spec, jobs=1, backend="scalar", cache_dir=other
    ).run()
    assert scalar_warm.simulations_executed == 0
    assert scalar_warm.cache.misses == 0


def test_partial_cache_only_computes_missing_points(tmp_path):
    narrow = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": FREQUENCIES[:2]},
        benchmarks=("Caps-MN1",),
        designs=("pim-capsnet",),
    )
    wide = dataclasses.replace(
        narrow,
        axes=(
            dataclasses.replace(narrow.axes[0], values=tuple(FREQUENCIES)),
        ),
    )
    SweepRunner(narrow, jobs=1, backend="vectorized", cache_dir=tmp_path).run()
    result = SweepRunner(wide, jobs=1, backend="vectorized", cache_dir=tmp_path).run()
    # 2 cached points x (baseline + design) hit; 2 new points miss.
    assert result.cache.hits == 4
    assert result.cache.misses == 4


@pytest.mark.parametrize("kind", ["routing", "end-to-end"])
def test_plane_block_round_trips_bit_exactly_across_a_dimension_flip(tmp_path, kind):
    """Caps-EN1's winning dimension flips inside this plane.  Each block a
    vectorized sweep writes reads back from disk, and through JSON again,
    equal to a fresh scalar simulation at every frequency, bit for bit."""
    frequencies = [100.0, 312.5, 1250.0, 2500.0]
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": frequencies},
        benchmarks=("Caps-EN1",),
        designs=ALL_DESIGNS,
        kind=kind,
    )
    SweepRunner(spec, jobs=1, backend="vectorized", cache_dir=tmp_path).run()
    base = Scenario.default()
    config = base.catalog.benchmark("Caps-EN1")
    cache_kind = "routing" if kind == "routing" else "end_to_end"
    cache = SimulationCache(tmp_path)
    dimensions = set()
    for design in (DesignPoint.BASELINE_GPU.value, *ALL_DESIGNS):
        [block] = cache.get_many(
            [(base.plane_hash(), config, cache_kind, design, np.array(frequencies))]
        )
        assert block.frequencies.tolist() == frequencies
        copy = Block.from_json(*json.loads(json.dumps([block.shape, block.packed()])))
        assert copy.matrix.tobytes() == block.matrix.tobytes()
        for j, mhz in enumerate(frequencies):
            model = PIMCapsNet("Caps-EN1", hmc_config=base.hmc.with_pe_frequency(mhz))
            reference = (
                model.simulate_routing(design)
                if kind == "routing"
                else model.simulate_end_to_end(design)
            )
            assert block.row(j) == reference == copy.row(j)
            dimensions.add(getattr(reference, "dimension", None))
    assert cache.stats.misses == 0
    if kind == "routing":
        assert len(dimensions - {None}) > 1


def test_bulk_cache_roundtrip_matches_single_entry_api(tmp_path):
    scenario = Scenario.default()
    model = PIMCapsNet("Caps-MN1")
    routing = model.simulate_routing(DesignPoint.PIM_CAPSNET)
    config = model.benchmark
    cache = SimulationCache(tmp_path)
    stored = cache.put_many(
        [(scenario, config, "routing", DesignPoint.PIM_CAPSNET, routing)]
    )
    assert stored == 1
    cache.flush()
    fresh = SimulationCache(tmp_path)
    # get_many accepts full scenarios and bare plane-hash strings (which
    # name their frequency) alike, returns one slot per request in order,
    # and misses surface as None.
    frequency = scenario.hmc.pe_frequency_mhz
    results = fresh.get_many(
        [
            (scenario, config, "routing", DesignPoint.PIM_CAPSNET),
            (scenario.plane_hash(), config, "routing", DesignPoint.PIM_CAPSNET, frequency),
            (scenario, config, "routing", DesignPoint.ALL_IN_PIM),
        ]
    )
    assert results[2] is None
    for got in results[:2]:
        assert got.time_seconds == routing.time_seconds
        assert got.energy_joules == routing.energy_joules
        assert got.time_components == routing.time_components
    assert fresh.stats.hits == 2 and fresh.stats.misses == 1
    single = fresh.get(scenario, config, "routing", DesignPoint.PIM_CAPSNET)
    assert single.time_seconds == routing.time_seconds


def test_a_cold_vectorized_sweep_does_not_import_numpy_ma(tmp_path):
    """Grouping a plane's points stays off ``np.unique``, which imports numpy.ma."""
    code = (
        "import sys; from repro.cli import main; "
        "main(['sweep', '--axis', 'hmc.pe_frequency_mhz=312.5,625,1250', "
        "'--axis', 'hmc.pes_per_vault=8,16', '--benchmarks', 'Caps-MN1', 'Caps-EN1', "
        f"'--cache-dir', {str(tmp_path)!r}, '--output', {str(tmp_path / 'out.txt')!r}]); "
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert "(vectorized, jobs=1)" in result.stderr
    assert result.stdout.splitlines()[-1] == "False"
