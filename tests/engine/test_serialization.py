"""Tests for the structured (JSON) experiment output."""

import json

import pytest

from repro.engine.context import SimulationContext
from repro.engine.experiment import get_experiment
from repro.engine.serialize import to_jsonable

BENCHMARKS = ["Caps-MN1", "Caps-SV1"]


@pytest.fixture(scope="module")
def context():
    return SimulationContext()


@pytest.fixture(scope="module")
def fig15_payload(context):
    experiment = get_experiment("fig15")
    return experiment.to_dict(experiment.run(context, benchmarks=BENCHMARKS))


@pytest.fixture(scope="module")
def fig17_payload(context):
    experiment = get_experiment("fig17")
    return experiment.to_dict(experiment.run(context, benchmarks=BENCHMARKS))


def test_fig15_schema(fig15_payload):
    assert fig15_payload["experiment"] == "fig15"
    assert fig15_payload["title"]
    data = fig15_payload["data"]
    assert set(data) == {
        "rows",
        "average_speedup",
        "max_speedup",
        "average_energy_saving",
        "designs",
    }
    assert data["designs"] == ["baseline", "gpu-icp", "pim-capsnet"]
    assert [row["benchmark"] for row in data["rows"]] == BENCHMARKS
    for row in data["rows"]:
        assert set(row) == {"benchmark", "speedup", "normalized_energy", "chosen_dimension"}
        # DesignPoint keys must be lowered to their string values.
        assert set(row["speedup"]) == {"baseline", "gpu-icp", "pim-capsnet"}
        assert row["speedup"]["baseline"] == pytest.approx(1.0)
    assert data["average_speedup"] > 1.0


def test_fig17_schema(fig17_payload):
    data = fig17_payload["data"]
    assert set(data) == {
        "rows",
        "average_speedup",
        "max_speedup",
        "average_energy_saving",
        "average_all_in_pim_speedup",
        "designs",
    }
    for row in data["rows"]:
        assert set(row["speedup"]) == {
            "baseline",
            "all-in-pim",
            "rmas-pim",
            "rmas-gpu",
            "pim-capsnet",
        }
        assert set(row["normalized_energy"]) == set(row["speedup"])


def test_payloads_are_json_serializable(fig15_payload, fig17_payload):
    for payload in (fig15_payload, fig17_payload):
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload


def test_to_jsonable_lowers_enum_and_tuple_keys(context):
    experiment = get_experiment("fig18")
    result = experiment.run(context, benchmarks=["Caps-MN1"])
    data = experiment.to_dict(result)["data"]
    # best_dimension is keyed by (benchmark, frequency) tuples.
    assert all("/" in key for key in data["best_dimension"])
    json.dumps(data)


def test_to_jsonable_falls_back_to_str():
    class Opaque:
        def __repr__(self):
            return "<opaque>"

    assert to_jsonable({("a", 1): Opaque()}) == {"a/1": "<opaque>"}


def test_to_jsonable_maps_non_finite_floats_to_none():
    lowered = to_jsonable(
        {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf"), "ok": 1.5}
    )
    assert lowered == {"nan": None, "inf": None, "ninf": None, "ok": 1.5}
    # The emitted JSON must be strict (json.dumps would otherwise print NaN).
    assert json.dumps(lowered, allow_nan=False)


def test_to_jsonable_guards_against_cycles():
    cyclic = {"name": "root"}
    cyclic["self"] = cyclic
    looped = ["a"]
    looped.append(looped)
    assert to_jsonable(cyclic) == {"name": "root", "self": None}
    assert to_jsonable(looped) == ["a", None]


def test_to_jsonable_keeps_shared_acyclic_objects():
    shared = {"value": 3.0}
    assert to_jsonable({"first": shared, "second": shared}) == {
        "first": {"value": 3.0},
        "second": {"value": 3.0},
    }


def test_tuple_keys_with_separator_components_do_not_collide():
    # Regression: ("a/b", "c") and ("a", "b/c") used to both serialize to
    # "a/b/c"; user-named WorkloadSpecs make slashes in components reachable.
    lowered = to_jsonable({("a/b", "c"): 1, ("a", "b/c"): 2})
    assert len(lowered) == 2
    assert lowered == {"a\\/b/c": 1, "a/b\\/c": 2}


def test_tuple_key_backslashes_are_escaped():
    lowered = to_jsonable({("a\\b", "c"): 1})
    assert lowered == {"a\\\\b/c": 1}


def test_plain_tuple_keys_keep_their_classic_form():
    # The golden reports rely on ("Caps-MN1", 312.5) -> "Caps-MN1/312.5".
    assert to_jsonable({("Caps-MN1", 312.5): 1}) == {"Caps-MN1/312.5": 1}


def test_string_key_with_separator_does_not_collide_with_tuple_key():
    # A plain "a/b" string key and the ("a", "b") tuple key must both survive.
    lowered = to_jsonable({("a", "b"): 1, "a/b": 2})
    assert lowered == {"a/b": 1, "a\\/b": 2}
