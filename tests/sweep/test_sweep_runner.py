"""Tests for :mod:`repro.sweep.runner` (execution, caching, worker processes)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import Scenario, Session
from repro.faults import FaultPlan, FaultRule, injected
from repro.sweep import SweepRunner, SweepSpec, run_queued_sweep, run_sweep
from repro.sweep.runner import (
    SweepCell,
    SweepPoint,
    SweepResult,
    energy_saving_of,
    speedup_of,
)
from repro.sweep.spec import _format_value


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
    for point in result.points:
        # One design x two benchmarks.
        assert [cell.benchmark for cell in point.cells] == ["Caps-MN1", "Caps-SV1"]
        for cell in point.cells:
            assert cell.speedup > 0
    # Higher PE frequency accelerates routing across the board (Fig. 18).
    slow, fast = result.points
    assert all(
        faster.speedup > slower.speedup for slower, faster in zip(slow.cells, fast.cells)
    )


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
    import repro.sweep.runner as runner_module
    from repro.sweep import run_queued_sweep

    reference = SweepRunner(
        small_spec, jobs=1, backend="scalar", cache_dir=tmp_path / "ref"
    ).run()

    def no_process_pool(*args, **kwargs):
        raise OSError("process pools are unavailable on this platform")

    # One pool helper serves both the --jobs chunks and the queue workers.
    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_process_pool)
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
    assert {cell.benchmark for point in result.points for cell in point.cells} == {"Caps-Sweep"}
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


# ------------------------------------------- report against a per-cell reference


def _reference_speedup(cell):
    if cell.time_seconds <= 0:
        return float("inf")
    return cell.baseline_time_seconds / cell.time_seconds


def _reference_energy_saving(cell):
    if cell.baseline_energy_joules <= 0:
        return 0.0
    return 1.0 - cell.energy_joules / cell.baseline_energy_joules


def _reference_average(point, design):
    speedups = [_reference_speedup(cell) for cell in point.cells if cell.design == design]
    if not speedups:
        raise KeyError(design)
    # Left to right, as sum() adds floats through Python 3.11 (3.12 compensates).
    total = 0.0
    for speedup in speedups:
        total += speedup
    return total / len(speedups)


def _reference_text(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def _reference_table(headers, rows, title):
    texts = [[_reference_text(cell) for cell in row] for row in rows]
    widths = [max([len(header)] + [len(row[i]) for row in texts]) for i, header in enumerate(headers)]
    lines = [title, "  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines += ["  ".join(t.ljust(w) for t, w in zip(row, widths)) for row in texts]
    return "\n".join(lines)


def _reference_report(result):
    """The sweep report rendered one cell and one row at a time."""
    spec = result.spec
    metric = "RP speedup" if spec.kind == "routing" else "end-to-end speedup"
    keys = list(spec.axis_keys)
    labels = [[_format_value(point.assignment[key]) for key in keys] for point in result.points]
    rows = [
        label
        + [cell.benchmark, cell.design, _reference_speedup(cell), _reference_energy_saving(cell)]
        for label, point in zip(labels, result.points)
        for cell in point.cells
    ]
    averages = [
        [_reference_average(point, design) for point in result.points]
        for design in spec.designs
    ]
    averages = [label + list(row) for label, row in zip(labels, zip(*averages))]
    counts = sorted({len({cell.benchmark for cell in point.cells}) for point in result.points})
    counts = counts or [0]
    benchmarks = f"{counts[0]}" if len(counts) == 1 else f"{counts[0]}-{counts[-1]}"
    lines = [
        f"Base scenario: {result.base.describe()}",
        f"Grid: {spec.describe()}",
        "",
        _reference_table(
            keys + ["Benchmark", "Design", "Speedup", "Energy saving"],
            rows,
            f"Sweep {spec.name!r} -- {metric} over the GPU baseline",
        ),
        "",
        _reference_table(
            keys + [f"avg {design}" for design in spec.designs],
            averages,
            f"Per-point average {metric} ({benchmarks} benchmarks)",
        ),
    ]
    if result.failed_shards:
        lines.extend(["", result._format_failed_shards()])
    return "\n".join(lines)


@pytest.mark.parametrize("kind", ["routing", "end-to-end"])
def test_vectorized_report_matches_the_per_cell_reference(kind):
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [100, 312.5, 1250, 2500], "hmc.pes_per_vault": [8, 16]},
        designs=("pim-capsnet", "all-in-pim", "rmas-gpu"),
        kind=kind,
    )
    result = SweepRunner(spec, backend="vectorized", verify="off", use_cache=False).run()
    assert result.executor_used == "vectorized"
    assert result.format_report() == _reference_report(result)


def test_selection_axis_report_with_unequal_points_matches_the_reference():
    spec = SweepSpec.from_axes(
        {"benchmarks": ["Caps-MN1", "Caps-MN1,Caps-SV1,Caps-EN1", "Caps-SV3,Caps-MN2"]},
        designs=("pim-capsnet", "all-in-pim"),
    )
    result = SweepRunner(spec, jobs=1, backend="scalar", use_cache=False).run()
    assert [len(point.cells) for point in result.points] == [2, 6, 4]
    assert result.format_report() == _reference_report(result)
    assert "Per-point average RP speedup (1-3 benchmarks)" in result.format_report()


def test_partial_result_report_matches_the_reference(tmp_path):
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [156.25, 312.5, 625.0, 1250.0]},
        designs=("pim-capsnet", "all-in-pim"),
    )
    rule = FaultRule(point="queue.shard.execute", error="EIO", times=1)
    with injected(FaultPlan(rules=(rule,))):
        partial = run_queued_sweep(
            spec, workers=1, shard_size=1, use_cache=False, workdir=tmp_path, max_attempts=1
        )
    assert len(partial.failed_shards) == 1 and len(partial.points) == 3
    assert partial.format_report() == _reference_report(partial)


#: Cell fields on and around every rule of the speedup and saving formulas.
EDGE_FIELDS = [0.0, -0.0, -1.0, 1e-300, 5e-324, 0.5, 2.0, 1e300, math.nan, math.inf, -math.inf]
FIELDS = st.one_of(st.sampled_from(EDGE_FIELDS), st.floats(), st.floats(0.001, 1000.0))


def _hand_built(points_cells, designs=("pim-capsnet", "all-in-pim")):
    spec = SweepSpec.from_axes(
        {"hmc.pe_frequency_mhz": [100.0 + index for index in range(max(1, len(points_cells)))]},
        designs=designs,
    )
    points = [
        SweepPoint(index, {"hmc.pe_frequency_mhz": 100.0 + index}, f"p{index}", cells)
        for index, cells in enumerate(points_cells)
    ]
    return SweepResult(spec=spec, base=Scenario.default(), points=points)


def test_hand_built_degenerate_cells_match_the_reference():
    cells = [
        SweepCell("Caps-MN1", design, time, energy, 2.0, baseline_energy)
        for time in (0.0, -1.0, math.nan, 0.5)
        for baseline_energy in (0.0, -1.0, math.nan, 4.0)
        for energy, design in ((1.0, "pim-capsnet"), (math.nan, "all-in-pim"))
    ]
    for count in (2, len(cells)):
        result = _hand_built([cells[:count], cells[count // 2 :]])
        assert result.format_report() == _reference_report(result)
    assert "inf" in result.format_report() and "nan" in result.format_report()


def test_point_averages_add_in_cell_order():
    # 1 + 1e16 rounds back to 1e16, so added in cell order the three
    # speedups average 0; added in any other order they average 1/3.
    cells = [
        SweepCell(name, design, 1.0, 1.0, baseline, 1.0)
        for name, baseline in (("Caps-MN1", 1.0), ("Caps-SV1", 1e16), ("Caps-EN1", -1e16))
        for design in ("pim-capsnet", "all-in-pim")
    ]
    result = _hand_built([cells])
    assert result.format_report() == _reference_report(result)
    assert result.format_report().splitlines()[-1].split() == ["100", "0", "0"]


@st.composite
def _cell_lists(draw):
    benchmarks = ["Caps-MN1", "Caps-SV1", "Caps-EN1"]
    designs = ["pim-capsnet", "all-in-pim", "rmas-gpu"]
    cell = st.builds(
        SweepCell,
        st.sampled_from(benchmarks),
        st.sampled_from(designs),
        FIELDS,
        FIELDS,
        FIELDS,
        FIELDS,
    )
    return draw(st.lists(st.lists(cell, max_size=30), min_size=1, max_size=5))


@given(_cell_lists())
def test_any_cells_render_like_the_reference(points_cells):
    result = _hand_built(points_cells, designs=("pim-capsnet", "all-in-pim", "rmas-gpu"))
    try:
        expected = _reference_report(result)
    except KeyError as error:  # a point without a cell of some design
        with pytest.raises(KeyError) as raised:
            result.format_report()
        assert raised.value.args == error.args
        return
    assert result.format_report() == expected


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@given(st.lists(st.tuples(FIELDS, FIELDS, FIELDS, FIELDS), min_size=1, max_size=40))
def test_cell_properties_equal_the_column_helpers(fields):
    cells = [SweepCell("Caps-MN1", "pim-capsnet", *values) for values in fields]
    seconds, joules, baseline_seconds, baseline_joules = (
        np.array([values[index] for values in fields]) for index in range(4)
    )
    assert _bits([cell.speedup for cell in cells]) == _bits(
        speedup_of(baseline_seconds, seconds)
    )
    assert _bits([cell.energy_saving for cell in cells]) == _bits(
        energy_saving_of(joules, baseline_joules)
    )
    for cell in cells:
        assert _bits([cell.speedup]) == _bits([_reference_speedup(cell)])
        assert _bits([cell.energy_saving]) == _bits([_reference_energy_saving(cell)])
