"""Tests for the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_parser_requires_a_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_characterize_subset(capsys):
    assert main(["characterize", "--benchmarks", "Caps-MN1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 4" in out
    assert "Fig. 7" in out
    assert "Caps-MN1" in out


def test_evaluate_subset(capsys):
    assert main(["evaluate", "--benchmarks", "Caps-SV1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 15" in out
    assert "Fig. 17" in out


def test_sweep_single_benchmark(capsys):
    # argparse's prefix matching reads --benchmark as --benchmarks.
    assert main(["sweep", "--benchmark", "Caps-SV1"]) == 0
    captured = capsys.readouterr()
    assert "Fig. 18" in captured.out
    assert "312" in captured.out


def test_sweep_benchmarks_plural(capsys):
    assert main(["sweep", "--benchmarks", "Caps-SV1", "Caps-MN1"]) == 0
    captured = capsys.readouterr()
    assert "Caps-SV1" in captured.out
    assert "Caps-MN1" in captured.out
    assert "deprecated" not in captured.err


def test_reproduce_only_overhead(capsys):
    assert main(["reproduce", "--only", "overhead"]) == 0
    out = capsys.readouterr().out
    assert "mm^2" in out


def test_unknown_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["characterize", "--benchmarks", "Caps-XYZ"])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["reproduce", "--only", "fig99"])


def test_reproduce_json_format(capsys):
    assert main(["reproduce", "--only", "overhead", "--format", "json"]) == 0
    out = capsys.readouterr().out
    import json

    payload = json.loads(out)
    assert set(payload) == {"overhead"}
    assert payload["overhead"]["experiment"] == "overhead"
    assert payload["overhead"]["data"]["total_area_mm2"] > 0


def test_evaluate_json_format(capsys):
    assert main(["evaluate", "--benchmarks", "Caps-MN1", "--format", "json"]) == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"fig15", "fig16", "fig17"}


def test_output_writes_file(tmp_path, capsys):
    target = tmp_path / "overhead.txt"
    assert main(["reproduce", "--only", "overhead", "--output", str(target)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert "mm^2" in target.read_text(encoding="utf-8")


def test_serial_jobs_flag(capsys):
    # Experiments always run in the calling thread; only sweep sizes a pool.
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--benchmarks", "Caps-MN1", "--jobs", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_build_parser_does_not_import_experiment_modules():
    # Satellite of the scenario redesign: CLI startup must stay lazy --
    # --skip/--only are validated after parsing, not via parser choices.
    src = Path(repro.__file__).parent.parent
    code = (
        "import sys; from repro.cli import build_parser; build_parser(); "
        "loaded = [m for m in sys.modules if m.startswith('repro.experiments')]; "
        "print(','.join(loaded))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.check_output([sys.executable, "-c", code], env=env, text=True)
    assert out.strip() == ""


def test_custom_experiment_passes_only_validation(capsys):
    from repro.engine import experiment as experiment_module
    from repro.engine.experiment import Experiment, register_experiment

    @register_experiment
    class CustomExperiment(Experiment):
        name = "custom-smoke"
        title = "custom"

        def run(self, context, benchmarks=None):
            return {"ok": True}

        def format_report(self, result):
            return "custom-smoke ran"

    try:
        assert main(["reproduce", "--only", "custom-smoke"]) == 0
        assert "custom-smoke ran" in capsys.readouterr().out
    finally:
        experiment_module._REGISTRY.pop("custom-smoke", None)


def test_scenario_preset_and_set_flags(capsys):
    assert (
        main(
            [
                "evaluate",
                "--benchmarks",
                "Caps-MN1",
                "--scenario",
                "paper-default",
                "--set",
                "hmc.pe_frequency_mhz=625",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"fig15", "fig16", "fig17"}


def test_scenario_file_flag(tmp_path, capsys):
    scenario_file = tmp_path / "v100.json"
    scenario_file.write_text('{"gpu": "V100"}', encoding="utf-8")
    assert main(["characterize", "--benchmarks", "Caps-MN1", "--scenario", str(scenario_file)]) == 0
    assert "Fig. 4" in capsys.readouterr().out


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["evaluate", "--scenario", "no-such-scenario"])


def test_unknown_set_key_rejected():
    with pytest.raises(SystemExit, match="unknown scenario key"):
        main(["evaluate", "--set", "hmc.nope=1"])  # repro: allow(RPR-C001)


def test_malformed_set_rejected():
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        main(["evaluate", "--set", "hmc.pe_frequency_mhz"])


def test_non_finite_pe_frequency_rejected(capsys):
    argv = ["reproduce", "--only", "fig15", "--benchmarks", "Caps-MN1", "--no-cache"]
    with pytest.raises(SystemExit, match="PE frequency must be finite and positive"):
        main(argv + ["--set", "hmc.pe_frequency_mhz=nan"])
    assert capsys.readouterr().out == ""


def test_compare_base_vs_set_variant(capsys):
    assert (
        main(
            [
                "compare",
                "--scenario",
                "paper-default",
                "--set",
                "hmc.pe_frequency_mhz=625",
                "--only",
                "fig15",
                "--benchmarks",
                "Caps-MN1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Scenario comparison" in out
    assert "paper-default+hmc.pe_frequency_mhz=625" in out
    assert "average_speedup" in out


def test_compare_json_two_scenarios(capsys):
    assert (
        main(
            [
                "compare",
                "--scenario",
                "paper-default",
                "--scenario",
                "v100-host",
                "--only",
                "fig15",
                "--benchmarks",
                "Caps-MN1",
                "--format",
                "json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert [scenario["name"] for scenario in payload["scenarios"]] == [
        "paper-default",
        "v100-host",
    ]
    assert payload["metrics"]
    assert set(payload["experiments"]) == {"paper-default", "v100-host"}


def test_compare_requires_two_scenarios():
    with pytest.raises(SystemExit, match="at least two"):
        main(["compare", "--only", "fig15"])


@pytest.fixture()
def workload_file(tmp_path):
    path = tmp_path / "caps-ts43.json"
    path.write_text(
        json.dumps(
            {
                "name": "Caps-TS43",
                "dataset": {
                    "name": "TRAFFIC-SIGNS",
                    "image_shape": [3, 48, 48],
                    "num_classes": 43,
                },
                "batch_size": 64,
                "num_low_capsules": 2048,
                "num_high_capsules": 43,
                "routing_iterations": 4,
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def test_workloads_list_shows_table1(capsys):
    assert main(["workloads", "list"]) == 0
    out = capsys.readouterr().out
    assert "Workload catalog (12 networks" in out
    assert "Caps-MN1" in out and "Caps-SV3" in out


def test_workloads_list_includes_workload_flag(workload_file, capsys):
    assert main(["workloads", "list", "--workload", workload_file]) == 0
    out = capsys.readouterr().out
    assert "Workload catalog (13 networks" in out
    assert "Caps-TS43" in out


def test_workloads_show_case_insensitive(workload_file, capsys):
    assert main(["workloads", "show", "caps-ts43", "--workload", workload_file]) == 0
    out = capsys.readouterr().out
    assert "Caps-TS43" in out
    assert "43 classes (custom)" in out


def test_workloads_show_json(capsys):
    assert main(["workloads", "show", "Caps-MN1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "Caps-MN1"
    assert payload["routing"] == "dynamic"


def test_workloads_show_requires_name():
    with pytest.raises(SystemExit, match="NAME"):
        main(["workloads", "show"])


def test_workloads_show_unknown_name_rejected():
    with pytest.raises(SystemExit, match="unknown workload"):
        main(["workloads", "show", "Caps-XYZ"])


def test_run_alias_with_user_json_workload(workload_file, capsys):
    # Acceptance: a workload defined only in a user JSON file (never added to
    # BENCHMARKS) runs through `repro run --workload` and appears in fig04,
    # fig15 and fig17 outputs.
    assert (
        main(
            [
                "run",
                "--only",
                "fig04",
                "fig15",
                "fig17",
                "--workload",
                workload_file,
                "--benchmarks",
                "caps-ts43",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    import repro

    assert "Caps-TS43" not in repro.BENCHMARKS
    for section in ("Fig. 4", "Fig. 15", "Fig. 17"):
        assert section in out
    assert out.count("Caps-TS43") >= 3


def test_evaluate_runs_custom_workload_alongside_table1(workload_file, capsys):
    assert (
        main(
            [
                "evaluate",
                "--workload",
                workload_file,
                "--benchmarks",
                "Caps-TS43",
                "Caps-MN1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Caps-TS43" in out and "Caps-MN1" in out


def test_compare_with_custom_workload(workload_file, capsys):
    assert (
        main(
            [
                "compare",
                "--workload",
                workload_file,
                "--set",
                "hmc.pe_frequency_mhz=625",
                "--only",
                "fig15",
                "--benchmarks",
                "Caps-TS43",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Scenario comparison" in out
    assert "+1 workload(s)" in out


def test_unknown_workload_file_rejected():
    with pytest.raises(SystemExit, match="cannot read workload file"):
        main(["evaluate", "--workload", "/no/such/workload.json"])


def test_workloads_is_not_an_override_key(workload_file):
    with pytest.raises(SystemExit, match="unknown scenario key 'workloads'"):
        main(["evaluate", "--set", f"workloads={workload_file}"])


@pytest.mark.parametrize(
    "command, payload",
    [
        (["reproduce", "--only", "overhead", "--scenario"], {"pipeline_batches": None}),
        (["reproduce", "--only", "overhead", "--scenario"], {"hmc": {"num_vaults": [1]}}),
        (["reproduce", "--only", "overhead", "--scenario"], {"designs": 5}),
        (["sweep", "--spec"], {"axes": {"hmc.pe_frequency_mhz": 5}}),
        (["sweep", "--spec"], {"axes": {"hmc.pe_frequency_mhz": [625]}, "designs": 5}),
    ],
)
def test_wrongly_typed_json_files_exit_with_a_message(tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(command + [str(path), "--no-cache"])
    assert isinstance(exit_info.value.code, str) and exit_info.value.code


def test_same_unknown_benchmark_message_on_every_subcommand(tmp_path, capsys):
    axis = ["--axis", "hmc.pe_frequency_mhz=625", "--cache-dir", str(tmp_path)]
    for argv in (
        ["evaluate"],
        ["compare", "--set", "pipeline_batches=4"],
        ["sweep", *axis],
        ["optimize", "--objective", "fig15.average_speedup", *axis],
    ):
        with pytest.raises(SystemExit, match=r"^unknown benchmark\(s\) \['Caps-Nope'\]; choose from"):
            main(argv + ["--benchmarks", "Caps-Nope"])


def test_empty_experiment_selection_exits_with_a_message(capsys):
    from repro.engine.experiment import experiment_names

    with pytest.raises(SystemExit, match="the experiment selection matches no experiments"):
        main(["reproduce", "--skip", *experiment_names()])
    assert capsys.readouterr().out == ""


# ------------------------------------------------------- generalized sweeps


def test_sweep_axis_grid(capsys, tmp_path):
    assert main([
        "sweep",
        "--axis", "hmc.pe_frequency_mhz=312.5,625",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path),
    ]) == 0
    captured = capsys.readouterr()
    assert "Sweep 'cli-sweep'" in captured.out
    assert "312.5" in captured.out and "625" in captured.out
    # Execution statistics go to stderr, never stdout.
    assert "disk cache" in captured.err
    assert "disk cache" not in captured.out


def test_sweep_warm_cache_runs_zero_simulations(capsys, tmp_path):
    argv = [
        "sweep",
        "--axis", "hmc.pe_frequency_mhz=312.5,625",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out  # byte-identical report
    assert "0 simulations executed" in warm.err
    assert "0 misses" in warm.err


def test_sweep_spec_preset(capsys, tmp_path):
    assert main([
        "sweep", "--spec", "fig18-frequency",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path),
        "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["name"] == "fig18-frequency"
    frequencies = [point["assignment"]["hmc.pe_frequency_mhz"] for point in payload["points"]]
    assert frequencies == [312.5, 625.0, 937.5]


def test_sweep_spec_file_with_extra_axis(capsys, tmp_path):
    spec_path = tmp_path / "mine.json"
    spec_path.write_text(json.dumps({"axes": {"hmc.pe_frequency_mhz": [312.5, 625]}}))
    assert main([
        "sweep", "--spec", str(spec_path),
        "--axis", "hmc.pes_per_vault=8,16",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path / "cache"),
        "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 4


def test_sweep_rejects_bad_axis_and_unknown_spec(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--axis", "nonsense", "--cache-dir", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["sweep", "--axis", "hmc.warp=1,2", "--cache-dir", str(tmp_path)])  # repro: allow(RPR-C001)
    with pytest.raises(SystemExit):
        main(["sweep", "--spec", "no-such-sweep", "--cache-dir", str(tmp_path)])


def test_sweep_no_cache_flag(capsys, tmp_path):
    argv = [
        "sweep",
        "--axis", "hmc.pe_frequency_mhz=312.5",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path),
        "--no-cache",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "0 hits, 0 misses" in warm.err  # cache disabled: nothing persisted


def test_classic_sweep_unchanged_without_spec_or_axis(capsys):
    assert main(["sweep", "--benchmarks", "Caps-MN1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 18" in out


# ---------------------------------------------------------- --jobs validation


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_jobs_rejects_non_positive_values(capsys, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--axis", "hmc.pes_per_vault=8,16", "--jobs", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "positive integer" in err


def test_jobs_rejected_across_subcommands(capsys):
    # Only sweep sizes a worker pool; every other subcommand has no --jobs.
    for argv in (
        ["characterize", "--jobs", "2"],
        ["reproduce", "--jobs", "2"],
        ["compare", "--jobs", "2"],
        ["optimize", "--jobs", "2"],
        ["serve", "--jobs", "2"],
        ["workloads", "list", "--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--jobs", "0"])
    assert exit_info.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_jobs_one_still_accepted(tmp_path, capsys):
    argv = [
        "sweep",
        "--axis",
        "hmc.pes_per_vault=8,16",
        "--benchmarks",
        "Caps-MN1",
        "--cache-dir",
        str(tmp_path),
    ]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr()
    assert "(serial, jobs=1)" in serial.err
    assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
    parallel = capsys.readouterr()
    assert parallel.out == serial.out


def test_sweep_bad_axis_value_exits_cleanly(capsys, tmp_path):
    # Axis values only coerce when each point's overrides apply; the CLI
    # must turn that ValueError into a clean exit, not a traceback.
    with pytest.raises(SystemExit):
        main([
            "sweep", "--axis", "hmc.num_vaults=8,abc",
            "--benchmarks", "Caps-MN1", "--cache-dir", str(tmp_path),
        ])


# ------------------------------------------------------------- --version


def test_version_flag_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.strip() == f"repro {repro.__version__}"


def test_version_matches_pyproject():
    import re

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    match = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.M)
    assert match is not None, "pyproject.toml lost its version field"
    assert match.group(1) == repro.__version__


# ------------------------------------------------------------------ serve


def test_serve_subcommand_is_wired():
    parser = build_parser()
    args = parser.parse_args(["serve", "--port", "0", "--max-sessions", "4"])
    assert args.port == 0
    assert args.max_sessions == 4
    assert args.host == "127.0.0.1"
    assert args.drain_timeout == 30.0


def test_serve_rejects_bad_max_sessions(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--max-sessions", "0"])
    assert "positive integer" in capsys.readouterr().err


# --------------------------------------------------------------- optimize


def test_optimize_axis_search(capsys, tmp_path):
    assert main([
        "optimize",
        "--objective", "fig15.average_speedup",
        "--axis", "hmc.pe_frequency_mhz=312.5,625,1250",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path),
    ]) == 0
    captured = capsys.readouterr()
    assert "Optimization 'optimize'" in captured.out
    assert "Pareto frontier" in captured.out
    assert "Best probe per objective" in captured.out
    # Execution statistics go to stderr, never stdout.
    assert "disk cache" in captured.err
    assert "disk cache" not in captured.out


def test_optimize_warm_rerun_is_byte_identical(capsys, tmp_path):
    argv = [
        "optimize",
        "--objective", "fig15.average_speedup",
        "--axis", "hmc.pe_frequency_mhz=312.5,625,1250",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out  # byte-identical report
    assert "0 simulations executed" in warm.err
    assert "0 misses" in warm.err


def test_optimize_json_constrained_query(capsys, tmp_path):
    assert main([
        "optimize",
        "--objective", "overhead.total_area_mm2:min",
        "--constraint", "fig15.average_speedup:within_pct_of_best=5",
        "--axis", "hmc.pe_frequency_mhz=625,1250",
        "--axis", "hmc.pes_per_vault=8,16",
        "--driver", "exhaustive",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path),
        "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    best = payload["best"]["overhead.total_area_mm2"]
    assert set(best["assignment"]) == {
        "hmc.pe_frequency_mhz", "hmc.pes_per_vault",
    }
    (threshold,) = payload["thresholds"]
    assert threshold["op"] == ">="
    assert payload["grid_size"] == 4
    assert payload["budget_exhausted"] is False


def test_optimize_objective_spec_file(capsys, tmp_path):
    objective_path = tmp_path / "problem.json"
    objective_path.write_text(json.dumps({
        "objectives": ["fig15.average_speedup"],
        "constraints": ["fig15.average_speedup:min=0"],
    }))
    assert main([
        "optimize",
        "--objective", str(objective_path),
        "--axis", "hmc.pe_frequency_mhz=625,1250",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    out = capsys.readouterr().out
    assert "Optimization 'problem'" in out  # name from the file stem


def test_optimize_budget_flag(capsys, tmp_path):
    assert main([
        "optimize",
        "--objective", "fig15.average_speedup",
        "--axis", "hmc.pe_frequency_mhz=312.5,625,1250",
        "--budget", "2",
        "--driver", "exhaustive",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "probes: 2 of 3 grid points (budget exhausted)" in out


def test_optimize_rejects_bad_arguments(tmp_path):
    # No search space at all.
    with pytest.raises(SystemExit):
        main([
            "optimize", "--objective", "fig15.average_speedup",
            "--cache-dir", str(tmp_path),
        ])
    # No objective.
    with pytest.raises(SystemExit):
        main([
            "optimize", "--axis", "hmc.pe_frequency_mhz=625",
            "--cache-dir", str(tmp_path),
        ])
    # Unknown driver is rejected by argparse choices.
    with pytest.raises(SystemExit):
        main([
            "optimize", "--objective", "fig15.average_speedup",
            "--axis", "hmc.pe_frequency_mhz=625",
            "--driver", "annealing",
            "--cache-dir", str(tmp_path),
        ])
    # A metric typo surfaces as a clean exit, not a traceback.
    with pytest.raises(SystemExit):
        main([
            "optimize", "--objective", "fig15.nope",  # repro: allow(RPR-C002)
            "--axis", "hmc.pe_frequency_mhz=625",
            "--benchmarks", "Caps-MN1",
            "--cache-dir", str(tmp_path),
        ])


def test_sweep_json_output_file_roundtrips(capsys, tmp_path):
    """Satellite check: sweep --format json --output dumps loadable points."""
    out_path = tmp_path / "sweep.json"
    assert main([
        "sweep",
        "--axis", "hmc.pe_frequency_mhz=312.5,625",
        "--benchmarks", "Caps-MN1",
        "--cache-dir", str(tmp_path / "cache"),
        "--format", "json",
        "--output", str(out_path),
    ]) == 0
    payload = json.loads(out_path.read_text())
    assert len(payload["points"]) == 2
    # The dump feeds the offline frontier path.
    from repro.optimize import sweep_frontier

    frontier = sweep_frontier(payload, "speedup")
    assert frontier["frontier"]
