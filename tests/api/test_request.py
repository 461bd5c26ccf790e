"""The request schema the CLI and ``repro serve`` share (``repro.api.request``).

The fuzz test is the first slice of boundary fuzzing: every field of a run,
compare, sweep and optimize body -- nested scenario and spec fields too --
is replaced by ``null``, a number, a string, a list or an object, and the
body must resolve or raise :class:`RequestError`; any other exception is
what a front end would turn into a traceback or a 500.  The file loaders
are patched to fail the test, so a request can never make the program read
a file.
"""

from __future__ import annotations

import contextlib
import copy
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.request import (
    FIELDS,
    RequestError,
    compare_request,
    optimize_request,
    run_request,
    scenario_from,
    sweep_request,
)
from repro.api.scenario import Scenario
from repro.optimize.objective import ObjectiveSpec
from repro.sweep.spec import SweepSpec, sweep_presets
from repro.workloads.catalog import WorkloadSpec, default_catalog

WORKLOAD = {
    "name": "Caps-Fuzz",
    "dataset": {"name": "FUZZ", "image_shape": [1, 28, 28], "num_classes": 10},
    "batch_size": 32,
    "num_low_capsules": 512,
    "num_high_capsules": 10,
    "routing": "dynamic",
}
SCENARIO = {
    "name": "fuzz",
    "hmc": {"pe_frequency_mhz": 625.0, "num_vaults": 32},
    "gpu": {"memory_bandwidth_gbs": 900.0, "memory_technology": "HBM2"},
    "gpu_params": {"routing_alu_efficiency": 0.4},
    "pipeline_batches": 8,
    "rmas_queue_depth": 8.0,
    "designs": ["pim-capsnet"],
    "benchmarks": ["Caps-MN1"],
    "workloads": [WORKLOAD],
}
SPEC = {
    "name": "fuzz",
    "axes": {"hmc.pe_frequency_mhz": [312.5, 625.0]},
    "benchmarks": ["Caps-MN1"],
    "designs": ["pim-capsnet"],
    "kind": "routing",
}
SCENARIO_FIELDS = {"scenario": SCENARIO, "workloads": [WORKLOAD], "set": ["hmc.pes_per_vault=8"]}
SWEEP_FIELDS = {
    **SCENARIO_FIELDS,
    "spec": SPEC,
    "axes": {"hmc.num_vaults": [16, 32]},
    "benchmarks": ["Caps-MN1"],
}
BODIES = {
    "run": (
        run_request,
        {**SCENARIO_FIELDS, "experiments": ["fig15"], "skip": ["fig16"], "benchmarks": ["Caps-MN1"]},
    ),
    "compare": (
        compare_request,
        {
            "scenarios": ["paper-default", SCENARIO],
            "set": ["gpu=V100"],
            "workloads": [WORKLOAD],
            "experiments": ["fig15"],
            "skip": ["fig16"],
            "benchmarks": ["Caps-MN1"],
        },
    ),
    "sweep": (sweep_request, SWEEP_FIELDS),
    "optimize": (
        optimize_request,
        {
            **SWEEP_FIELDS,
            "objective": "fig15.average_speedup",
            "objectives": [
                "fig15.average_speedup:max",
                {"metric": "overhead.total_area_mm2", "sense": "min"},
            ],
            "constraints": [
                "fig15.average_speedup:within_pct_of_best=5",
                {"metric": "fig17.average_speedup", "min_value": 1.0},
            ],
            "budget": 3,
            "driver": "exhaustive",
            "refine": 1,
        },
    ),
}


def _paths(value, prefix=()):
    """Every key/index path into a JSON-shaped body, outermost first."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(body, path, value):
    body = copy.deepcopy(body)
    holder = body
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return body


def _read_a_file(*args, **kwargs):
    raise AssertionError(f"request resolution read a file: {args!r}")


@contextlib.contextmanager
def _no_file_reads():
    with contextlib.ExitStack() as stack:
        for owner in (Scenario, WorkloadSpec, SweepSpec, ObjectiveSpec):
            stack.enter_context(mock.patch.object(owner, "from_file", _read_a_file))
        stack.enter_context(mock.patch.object(Path, "read_text", _read_a_file))
        stack.enter_context(mock.patch.object(Path, "read_bytes", _read_a_file))
        yield


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.text(max_size=12),
    st.sampled_from(["/etc/hostname", "caps.json", "Caps-MN1", "fig15", "hmc.num_vaults=0"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=12), SCALARS, max_size=3),
)


@pytest.mark.parametrize("kind", sorted(BODIES))
def test_templates_cover_every_field_and_resolve(kind):
    resolve, body = BODIES[kind]
    assert sorted(body) == sorted(FIELDS[kind])
    with _no_file_reads():
        resolve(body)


@pytest.mark.parametrize("kind", sorted(BODIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_field_of_any_type_resolves_or_is_a_request_error(kind, data):
    sweep_presets()  # its lazy experiment import stays outside the patch
    resolve, template = BODIES[kind]
    path = data.draw(st.sampled_from(list(_paths(template))), label="path")
    body = _replaced(template, path, data.draw(VALUES, label="value"))
    with _no_file_reads():
        try:
            request = resolve(body)
            if kind in ("sweep", "optimize"):
                # Streamed sweeps build every point's scenario up front.
                base, spec = request[0], request[1]
                for assignment in spec.assignments():
                    spec.scenario_for(base, assignment)
        except RequestError:
            pass


# ------------------------------------------------------------- the file rule


def test_workload_entries_must_be_inline_objects(tmp_path):
    path = tmp_path / "secret.json"
    path.write_text('{"name": "Caps-Secret", "dataset": "MNIST", "batch_size": 8, '
                    '"num_low_capsules": 64, "num_high_capsules": 10}', encoding="utf-8")
    bodies = [
        {"workloads": [str(path)]},
        {"scenario": {"workloads": [str(path)]}},
        {"scenario": {"workloads": str(path)}},
    ]
    for body in bodies:
        with pytest.raises(RequestError) as error:
            scenario_from(body)
        assert error.value.code == "invalid_workloads"
    with pytest.raises(RequestError) as error:
        scenario_from({"set": [f"workloads={path}"]})
    assert error.value.code == "invalid_override"
    with pytest.raises(RequestError) as error:
        sweep_request({"axes": {"workloads": [str(path)]}})
    assert error.value.code == "invalid_axis"


# ------------------------------------------------------------ one code each


@pytest.mark.parametrize(
    "fields, code",
    [
        ({"scenario": "warp-drive"}, "unknown_scenario"),
        ({"scenario": 5}, "invalid_scenario"),
        ({"scenario": {"hmc": {"pe_frequency_mhz": None}}}, "invalid_scenario"),
        ({"scenario": {"hmc": {"num_vaults": [1]}}}, "invalid_scenario"),
        ({"scenario": {"designs": 5}}, "invalid_scenario"),
        ({"scenario": {"pipeline_batches": None}}, "invalid_scenario"),
        ({"scenario": {"workloads": 5}}, "invalid_workloads"),
        ({"workloads": [{"name": "x"}]}, "invalid_workloads"),
        ({"set": "hmc.pes_per_vault=8"}, "invalid_field"),
        ({"set": ["hmc.warp=9"]}, "invalid_override"),
        ({"experiments": ["fig99"]}, "unknown_experiment"),
        ({"experiments": ["fig15"], "skip": ["fig15"]}, "empty_selection"),
        ({"benchmarks": ["Caps-Nope", "caps-mn1", "Caps-Nix"]}, "unknown_benchmark"),
    ],
)
def test_run_rejections_carry_their_code(fields, code):
    with pytest.raises(RequestError) as error:
        run_request(fields)
    assert error.value.code == code


@pytest.mark.parametrize(
    "fields, code",
    [
        ({}, "missing_spec"),
        ({"spec": "not-a-sweep"}, "unknown_sweep"),
        ({"spec": 5}, "invalid_spec"),
        ({"spec": {"axes": {"hmc.pe_frequency_mhz": [625]}, "designs": 5}}, "invalid_spec"),
        ({"spec": {"axes": {"hmc.pe_frequency_mhz": [625]}, "benchmarks": 5}}, "invalid_spec"),
        ({"spec": {"axes": {"hmc.pe_frequency_mhz": 5}}}, "invalid_spec"),
        ({"axes": {"hmc.pe_frequency_mhz": 5}}, "invalid_axis"),
        ({"axes": []}, "invalid_axis"),
        ({"axes": {"hmc.warp": [1]}}, "invalid_axis"),
        ({"axes": {"hmc.pe_frequency_mhz": [1]}, "benchmarks": ["Caps-Nope"]}, "unknown_benchmark"),
    ],
)
def test_sweep_rejections_carry_their_code(fields, code):
    with pytest.raises(RequestError) as error:
        sweep_request(fields)
    assert error.value.code == code


def test_bad_axis_values_fail_as_invalid_axis_only_in_combination():
    base, spec, _ = sweep_request({"axes": {"hmc.pe_frequency_mhz": ["abc"]}})
    with pytest.raises(RequestError, match="invalid value for 'hmc.pe_frequency_mhz'") as error:
        spec.scenario_for(base, spec.assignments()[0])
    assert error.value.code == "invalid_axis"
    # A 512-byte block alone is invalid against the base's 256-byte maximum;
    # with the maximum raised first, the grid point is valid.
    base, spec, _ = sweep_request(
        {"axes": {"hmc.max_block_bytes": [1024], "hmc.block_bytes": [512]}}
    )
    assert spec.scenario_for(base, spec.assignments()[0]).hmc.block_bytes == 512


@pytest.mark.parametrize(
    "fields, code",
    [
        ({}, "missing_objective"),
        ({"objective": 5}, "invalid_objective"),
        ({"objective": "fig15.x", "constraints": 5}, "invalid_constraint"),
        ({"objective": "fig15.x", "budget": 0}, "invalid_budget"),
        ({"objective": "fig15.x", "budget": True}, "invalid_budget"),
        ({"objective": "fig15.x", "driver": 5}, "invalid_driver"),
        ({"objective": "fig15.x", "refine": -1}, "invalid_refine"),
    ],
)
def test_optimize_rejections_carry_their_code(fields, code):
    fields = {"axes": {"hmc.pe_frequency_mhz": [625.0]}, **fields}
    with pytest.raises(RequestError) as error:
        optimize_request(fields)
    assert error.value.code == code


def test_compare_pairs_one_base_with_its_variant():
    scenarios, only, skip, benchmarks = compare_request(
        {"set": ["hmc.pe_frequency_mhz=625"], "benchmarks": ["caps-mn1"]}
    )
    assert [s.name for s in scenarios] == [
        "paper-default",
        "paper-default+hmc.pe_frequency_mhz=625",
    ]
    assert (only, skip, benchmarks) == (None, None, ["Caps-MN1"])
    scenarios = compare_request(
        {"scenarios": ["paper-default", "v100-host"], "set": ["pipeline_batches=4"]}
    ).scenarios
    assert [s.pipeline_batches for s in scenarios] == [4, 4]
    with pytest.raises(RequestError, match="at least two") as error:
        compare_request({"scenarios": ["paper-default"]})
    assert error.value.code == "invalid_scenario"


def test_catalog_resolve_lists_every_unknown_name():
    catalog = default_catalog()
    assert catalog.resolve(["caps-mn1", "CAPS-SV1"]) == ["Caps-MN1", "Caps-SV1"]
    with pytest.raises(ValueError) as error:
        catalog.resolve(["Caps-Nope", "Caps-MN1", "Caps-Nix"])
    assert str(error.value) == (
        f"unknown benchmark(s) ['Caps-Nope', 'Caps-Nix']; choose from {catalog.names()}"
    )
