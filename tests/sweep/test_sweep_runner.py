"""Tests for :mod:`repro.sweep.runner` (execution, caching, worker processes)."""

import pytest

from repro.api import Scenario, Session
from repro.sweep import SweepRunner, SweepSpec, run_sweep


@pytest.fixture
def small_spec():
    return SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625.0]},
        name="small",
        benchmarks=("Caps-MN1", "Caps-SV1"),
    )


def test_sweep_runs_the_whole_grid(tmp_path, small_spec):
    result = SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    assert len(result.points) == 2
    assert result.benchmarks == ["Caps-MN1", "Caps-SV1"]
    for point in result.points:
        assert len(point.cells) == 2  # one design x two benchmarks
        for cell in point.cells:
            assert cell.speedup > 0
    # Higher PE frequency accelerates routing across the board (Fig. 18).
    assert result.points[1].average_speedup() > result.points[0].average_speedup()


def test_warm_cache_executes_zero_simulations(tmp_path, small_spec):
    cold = SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    warm = SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    assert cold.simulations_executed > 0
    assert warm.simulations_executed == 0
    assert warm.cache.misses == 0
    assert warm.cache.hits == cold.cache.misses


def test_warm_and_cold_reports_are_byte_identical(tmp_path, small_spec):
    cold = SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    warm = SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    assert warm.format_report() == cold.format_report()
    assert warm.to_dict() == cold.to_dict()


def test_overlapping_sweeps_are_incremental(tmp_path):
    first = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625.0]}, benchmarks=("Caps-MN1",)
    )
    wider = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625.0, 1250.0]}, benchmarks=("Caps-MN1",)
    )
    SweepRunner(first, jobs=1, cache_dir=tmp_path).run()
    result = SweepRunner(wider, jobs=1, cache_dir=tmp_path).run()
    # Only the new 1250 MHz point simulates; the shared points hit the cache.
    assert result.cache.hits == 4
    assert result.cache.misses == 2


def test_executors_produce_identical_output(tmp_path, small_spec):
    # backend="scalar": the frequency axis would otherwise vectorize.
    outputs = []
    for jobs in (1, 2):
        result = SweepRunner(
            small_spec,
            jobs=jobs,
            backend="scalar",
            cache_dir=tmp_path / str(jobs),  # separate cold caches
        ).run()
        outputs.append((result.format_report(), result.to_dict()))
    assert outputs[0] == outputs[1]


def test_sweeps_run_in_process_without_a_process_pool(
    tmp_path, small_spec, monkeypatch
):
    import repro.sweep.queue as queue_module
    import repro.sweep.runner as runner_module
    from repro.sweep import run_queued_sweep

    reference = SweepRunner(
        small_spec, jobs=1, backend="scalar", cache_dir=tmp_path / "ref"
    ).run()

    def no_process_pool(*args, **kwargs):
        raise OSError("process pools are unavailable on this platform")

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_process_pool)
    monkeypatch.setattr(queue_module, "ProcessPoolExecutor", no_process_pool)
    scalar = SweepRunner(
        small_spec, jobs=2, backend="scalar", cache_dir=tmp_path / "scalar"
    ).run()
    queued = run_queued_sweep(
        small_spec,
        workers=2,
        shard_size=1,
        backend="scalar",
        cache_dir=tmp_path / "queued",
    )
    assert scalar.executor_used == "serial"
    assert queued.executor_used == "queue-serial"
    assert scalar.format_report() == reference.format_report()
    assert queued.format_report() == reference.format_report()


def test_schema_version_bump_invalidates_sweep_cache(tmp_path, small_spec):
    SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    bumped = SweepRunner(
        small_spec, jobs=1, cache_dir=tmp_path, cache_version=99
    ).run()
    assert bumped.cache.hits == 0
    assert bumped.simulations_executed > 0


def test_different_base_scenario_misses_the_cache(tmp_path, small_spec):
    SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    other = Scenario.preset("hmc-8pe")
    result = SweepRunner(small_spec, other, jobs=1, cache_dir=tmp_path).run()
    assert result.cache.hits == 0
    assert result.simulations_executed > 0


def test_disabled_cache_always_simulates(tmp_path, small_spec):
    SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    result = SweepRunner(
        small_spec, jobs=1, cache_dir=tmp_path, use_cache=False
    ).run()
    assert result.cache.requests == 0
    assert result.simulations_executed > 0


def test_unknown_benchmark_fails_before_execution(tmp_path):
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [625.0]}, benchmarks=("Caps-XYZ",)
    )
    with pytest.raises(ValueError, match=r"unknown benchmark\(s\) \['Caps-XYZ'\]"):
        SweepRunner(spec, cache_dir=tmp_path)


def test_end_to_end_kind_and_multiple_designs(tmp_path):
    spec = SweepSpec.from_axes(
        {"pipeline_batches": [4, 8]},
        name="e2e",
        benchmarks=("Caps-MN1",),
        designs=("pim-capsnet", "all-in-pim"),
        kind="end-to-end",
    )
    result = SweepRunner(spec, jobs=1, cache_dir=tmp_path).run()
    designs = {cell.design for point in result.points for cell in point.cells}
    assert designs == {"pim-capsnet", "all-in-pim"}
    report = result.format_report()
    assert "end-to-end speedup" in report
    assert "avg all-in-pim" in report


def test_custom_workloads_flow_through_the_sweep(tmp_path):
    base = Scenario.default().with_workloads(
        [
            {
                "name": "Caps-Sweep",
                "dataset": "MNIST",
                "batch_size": 64,
                "num_low_capsules": 512,
                "num_high_capsules": 10,
            }
        ]
    )
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [312.5, 625.0]}, benchmarks=("Caps-Sweep",)
    )
    # Custom workloads must survive the (JSON) process boundary too;
    # backend="scalar" keeps the frequency axis from vectorizing.
    result = SweepRunner(
        spec, base, jobs=2, backend="scalar", cache_dir=tmp_path
    ).run()
    assert result.benchmarks == ["Caps-Sweep"]
    assert all(cell.speedup > 0 for point in result.points for cell in point.cells)


def test_run_sweep_and_session_sweep_agree(tmp_path, small_spec):
    direct = run_sweep(small_spec, jobs=1, cache_dir=tmp_path)
    session = Session().sweep(small_spec, jobs=1, cache_dir=tmp_path)
    assert session.format_report() == direct.format_report()
    # The session run was fully warm: the direct run populated the cache.
    assert session.simulations_executed == 0


def test_stats_are_excluded_from_structured_output(tmp_path, small_spec):
    result = SweepRunner(small_spec, jobs=1, cache_dir=tmp_path).run()
    payload = result.to_dict()
    assert set(payload) == {"spec", "base_scenario", "points"}
    stats = result.describe_stats()
    assert "simulations executed" in stats
    assert "disk cache" in stats


def test_selection_axes_share_one_shard_without_losing_entries(tmp_path):
    # A benchmarks axis keeps the hardware hash constant, so every grid
    # point writes the same cache shard; the warm run must still be free.
    spec = SweepSpec.from_axes({"benchmarks": ["Caps-MN1", "Caps-SV1"]})
    # The two points are written from two worker processes.
    cold = SweepRunner(spec, jobs=2, cache_dir=tmp_path).run()
    warm = SweepRunner(spec, jobs=2, cache_dir=tmp_path).run()
    assert cold.simulations_executed > 0
    assert warm.simulations_executed == 0
    assert warm.cache.misses == 0
