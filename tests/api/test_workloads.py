"""Tests for workload-first scenarios: specs threaded through the engine."""

import json

import pytest

from repro.api import Scenario, Session, WorkloadSpec, compare_scenarios
from repro.engine.context import SimulationContext
from repro.workloads.benchmarks import benchmark_names

CUSTOM = WorkloadSpec(
    name="Caps-TS43",
    dataset={"name": "TRAFFIC-SIGNS", "image_shape": (3, 48, 48), "num_classes": 43},
    batch_size=64,
    num_low_capsules=2048,
    num_high_capsules=43,
    routing_iterations=4,
)


def test_scenario_accepts_spec_dicts_and_files(tmp_path):
    path = tmp_path / "caps-file.json"
    path.write_text(json.dumps(CUSTOM.to_dict()), encoding="utf-8")
    scenario = Scenario(
        workloads=(
            CUSTOM.to_dict(),  # inline dictionary
            str(path),  # file reference
        )
    )
    assert all(isinstance(spec, WorkloadSpec) for spec in scenario.workloads)
    assert scenario.workloads[0] == CUSTOM


def test_scenario_catalog_merges_workloads():
    scenario = Scenario(workloads=(CUSTOM,))
    assert scenario.catalog.names() == benchmark_names() + ["Caps-TS43"]
    # The default scenario resolves through the shared Table-1 catalog.
    assert Scenario.default().catalog.names() == benchmark_names()


def test_benchmarks_selection_canonicalized_case_insensitively():
    scenario = Scenario(workloads=(CUSTOM,), benchmarks=("caps-ts43", "CAPS-MN1"))
    assert scenario.benchmarks == ("Caps-TS43", "Caps-MN1")


def test_unknown_benchmark_error_lists_custom_workloads():
    with pytest.raises(ValueError, match="Caps-TS43"):
        Scenario(workloads=(CUSTOM,), benchmarks=("Caps-XYZ",))


def test_scenario_with_workloads_roundtrips_through_json(tmp_path):
    scenario = Scenario(name="custom", workloads=(CUSTOM,), benchmarks=("Caps-TS43",))
    path = tmp_path / "scenario.json"
    scenario.to_file(path)
    assert Scenario.from_file(path) == scenario


def test_scenario_file_resolves_workload_paths_relative_to_itself(tmp_path):
    (tmp_path / "caps-rel.json").write_text(
        json.dumps({k: v for k, v in CUSTOM.to_dict().items() if k != "name"}),
        encoding="utf-8",
    )
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"workloads": ["caps-rel.json"]}), encoding="utf-8")
    scenario = Scenario.from_file(scenario_path)
    assert scenario.workloads[0].name == "caps-rel"


def test_scenario_file_resolves_scalar_workload_reference(tmp_path):
    (tmp_path / "caps-rel.json").write_text(json.dumps(CUSTOM.to_dict()), encoding="utf-8")
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"workloads": "caps-rel.json"}), encoding="utf-8")
    assert Scenario.from_file(scenario_path).workloads[0] == CUSTOM


def test_scenario_sibling_workload_wins_over_cwd_decoy(tmp_path, monkeypatch):
    sibling_dir = tmp_path / "configs"
    sibling_dir.mkdir()
    (sibling_dir / "caps.json").write_text(json.dumps(CUSTOM.to_dict()), encoding="utf-8")
    scenario_path = sibling_dir / "scenario.json"
    scenario_path.write_text(json.dumps({"workloads": ["caps.json"]}), encoding="utf-8")
    decoy = dict(CUSTOM.to_dict(), name="Caps-Decoy")
    (tmp_path / "caps.json").write_text(json.dumps(decoy), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert Scenario.from_file(scenario_path).workloads[0].name == "Caps-TS43"


def test_with_workloads_and_set_override():
    scenario = Scenario.default().with_workloads([CUSTOM])
    assert scenario.catalog.names()[-1] == "Caps-TS43"
    variant = scenario.with_set(["benchmarks=caps-ts43"])
    assert variant.benchmarks == ("Caps-TS43",)


def test_workloads_are_hashable_scenario_fields():
    assert hash(Scenario(workloads=(CUSTOM,))) == hash(Scenario(workloads=(CUSTOM,)))


def test_context_resolves_custom_workloads():
    ctx = SimulationContext(scenario=Scenario(workloads=(CUSTOM,)))
    assert ctx.select_benchmarks() == benchmark_names() + ["Caps-TS43"]
    config = ctx.benchmark_config("caps-ts43")
    assert config.num_high_capsules == 43
    model = ctx.model("Caps-TS43")
    assert model.benchmark is config


def test_custom_workload_appears_in_experiments():
    from repro.experiments import fig04_layer_breakdown, fig15_rp_acceleration

    ctx = SimulationContext(scenario=Scenario(workloads=(CUSTOM,)))
    fig04 = fig04_layer_breakdown.run(benchmarks=["Caps-TS43"], context=ctx)
    assert fig04.rows[0].benchmark == "Caps-TS43"
    assert fig04.rows[0].total_time_s > 0
    fig15 = fig15_rp_acceleration.run(benchmarks=["Caps-TS43", "Caps-MN1"], context=ctx)
    assert [row.benchmark for row in fig15.rows] == ["Caps-TS43", "Caps-MN1"]


def test_session_runs_custom_workload_only():
    scenario = Scenario(name="ts43-only", workloads=(CUSTOM,), benchmarks=("Caps-TS43",))
    result = Session(scenario).run(["fig15"])
    rows = result.results["fig15"].rows
    assert [row.benchmark for row in rows] == ["Caps-TS43"]


def test_compare_scenarios_aligns_custom_workloads():
    base = Scenario(name="base", workloads=(CUSTOM,), benchmarks=("Caps-TS43",))
    fast = base.with_set(["hmc.pe_frequency_mhz=625"])
    comparison = compare_scenarios([base, fast], only=["fig15"])
    assert "Caps-TS43" not in comparison.labels  # labels are scenario names
    report = comparison.format_report()
    assert "average_speedup" in report
