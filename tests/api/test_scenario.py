"""Tests for the typed hardware scenario layer (repro.api.Scenario)."""

import dataclasses

import pytest

from repro.api import PRESETS, Scenario, override_keys, preset_names
from repro.gpu.devices import GPU_DEVICES
from repro.hmc.config import HMCConfig


def test_default_equals_paper_default_preset():
    assert Scenario() == Scenario.preset("paper-default")
    assert Scenario.default() == PRESETS["paper-default"]


def test_presets_are_valid_and_named():
    for name in preset_names():
        scenario = Scenario.preset(name)
        assert scenario.name == name or name == "paper-default"


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown scenario preset"):
        Scenario.preset("nope")


def test_scenarios_are_frozen_and_hashable():
    scenario = Scenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.name = "other"
    assert hash(scenario) == hash(Scenario())
    assert hash(scenario) != hash(scenario.with_overrides({"pipeline_batches": 16}))


def test_content_hash_is_memoized_and_never_stale():
    import pickle

    from repro.engine.diskcache import canonical_digest

    scenario = Scenario.default().with_set(["hmc.pe_frequency_mhz=625"])
    digest = scenario.content_hash()
    assert scenario.__dict__["_content_hash"] == digest
    assert scenario.content_hash() is digest  # the stored digest, not a new one
    fresh = Scenario.from_dict(scenario.to_dict())
    assert "_content_hash" not in fresh.__dict__
    assert fresh.content_hash() == digest
    payload = scenario.to_dict()
    payload.pop("name")
    assert digest == canonical_digest(payload)
    # Derived scenarios are built anew: none carries the stored digest.
    for derived in (
        dataclasses.replace(scenario, pipeline_batches=16),
        scenario.with_set(["hmc.pe_frequency_mhz=937.5"]),
    ):
        assert "_content_hash" not in derived.__dict__
        assert derived.content_hash() != digest
    assert dataclasses.replace(scenario, name="renamed").content_hash() == digest
    copied = pickle.loads(pickle.dumps(scenario))
    assert copied == scenario and copied.content_hash() == digest


def test_to_dict_from_dict_round_trip():
    scenario = Scenario(
        name="custom",
        hmc=HMCConfig().with_pe_frequency(625.0),
        gpu=GPU_DEVICES["V100"],
        pipeline_batches=16,
        benchmarks=("Caps-MN1", "Caps-SV1"),
        designs=("baseline", "pim-capsnet"),
    )
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_from_dict_partial_and_gpu_by_name():
    scenario = Scenario.from_dict({"gpu": "V100", "hmc": {"pe_frequency_mhz": 625}})
    assert scenario.gpu == GPU_DEVICES["V100"]
    assert scenario.hmc.pe_frequency_mhz == 625.0
    # Untouched fields keep the paper defaults.
    assert scenario.hmc.num_vaults == 32
    assert scenario.gpu_params == Scenario().gpu_params


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scenario key"):
        Scenario.from_dict({"hmcc": {}})
    with pytest.raises(ValueError, match="unknown hmc key"):
        Scenario.from_dict({"hmc": {"vaults": 64}})


def test_from_file_names_scenario_after_file(tmp_path):
    path = tmp_path / "fast-hmc.json"
    path.write_text('{"hmc": {"pe_frequency_mhz": 937.5}}', encoding="utf-8")
    scenario = Scenario.from_file(path)
    assert scenario.name == "fast-hmc"
    assert scenario.hmc.pe_frequency_mhz == 937.5


def test_load_resolves_presets_and_files(tmp_path):
    assert Scenario.load("paper-default") == Scenario()
    path = tmp_path / "s.json"
    Scenario(name="saved", pipeline_batches=4).to_file(path)
    assert Scenario.load(str(path)).pipeline_batches == 4
    with pytest.raises(ValueError, match="unknown scenario"):
        Scenario.load("no-such-preset-or-file")


def test_with_overrides_coerces_types():
    scenario = Scenario().with_overrides(
        {
            "hmc.pe_frequency_mhz": "625",
            "hmc.pes_per_vault": "8",
            "gpu.memory_bandwidth_gbs": "897.0",
            "pipeline_batches": "16",
            "benchmarks": "Caps-MN1,Caps-SV1",
        }
    )
    assert scenario.hmc.pe_frequency_mhz == 625.0
    assert scenario.hmc.pes_per_vault == 8
    assert scenario.gpu.memory_bandwidth_gbs == 897.0
    assert scenario.pipeline_batches == 16
    assert scenario.benchmarks == ("Caps-MN1", "Caps-SV1")


def test_with_overrides_gpu_by_catalog_name():
    assert Scenario().with_overrides({"gpu": "V100"}).gpu == GPU_DEVICES["V100"]
    with pytest.raises(ValueError, match="unknown GPU"):
        Scenario().with_overrides({"gpu": "NoSuchGPU"})


def test_with_overrides_rejects_unknown_keys():
    for key in ("nope", "hmc.nope", "gpu_params.nope", "hmc.pe_frequency_mhz.x"):
        with pytest.raises(ValueError, match="scenario key"):
            Scenario().with_overrides({key: "1"})


def test_with_overrides_validates_values():
    for frequency in ("-1", "nan", "inf"):
        with pytest.raises(ValueError):
            Scenario().with_overrides({"hmc.pe_frequency_mhz": frequency})
    with pytest.raises(ValueError, match="invalid value"):
        Scenario().with_overrides({"hmc.pes_per_vault": "eight"})
    with pytest.raises(ValueError):
        Scenario().with_overrides({"benchmarks": "Caps-XYZ"})


def test_with_set_parses_and_renames():
    scenario = Scenario().with_set(["hmc.pe_frequency_mhz=625", "pipeline_batches=4"])
    assert scenario.hmc.pe_frequency_mhz == 625.0
    assert scenario.pipeline_batches == 4
    assert scenario.name == "paper-default+hmc.pe_frequency_mhz=625,pipeline_batches=4"
    # An explicit name assignment wins over the automatic suffix.
    named = Scenario().with_set(["name=mine", "pipeline_batches=4"])
    assert named.name == "mine"


def test_with_set_rejects_malformed_assignments():
    for bad in ("pipeline_batches", "=5", ""):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            Scenario().with_set([bad])


def test_override_keys_cover_nested_fields():
    keys = override_keys()
    assert "hmc.pe_frequency_mhz" in keys
    assert "gpu.memory_bandwidth_gbs" in keys
    assert "gpu_params.routing_alu_efficiency" in keys
    assert "benchmarks" in keys


def test_validation_rejects_bad_selections():
    with pytest.raises(ValueError, match="unknown benchmark"):
        Scenario(benchmarks=("Caps-XYZ",))
    with pytest.raises(ValueError, match="unknown design point"):
        Scenario(designs=("typo-design",))
    # Empty selections are rejected rather than silently meaning "all".
    for attr in ("benchmarks", "designs"):
        with pytest.raises(ValueError, match="non-empty"):
            Scenario(**{attr: ()})
    with pytest.raises(ValueError):
        Scenario(pipeline_batches=0)
    with pytest.raises(ValueError):
        Scenario(rmas_queue_depth=0.0)


def test_custom_registered_design_passes_validation():
    from repro.engine.strategies import DesignPointStrategy, register_strategy, unregister_strategy

    class ScenarioProbe(DesignPointStrategy):
        key = "scenario-probe"

    register_strategy(ScenarioProbe())
    try:
        assert Scenario(designs=("scenario-probe",)).designs == ("scenario-probe",)
    finally:
        unregister_strategy("scenario-probe")


def test_from_dict_rejects_bad_values():
    with pytest.raises(ValueError, match="unknown GPU"):
        Scenario.from_dict({"gpu": "A100"})
    with pytest.raises(ValueError, match="integer"):
        Scenario.from_dict({"pipeline_batches": 8.5})
    # JSON-typical integral floats are normalized to int.
    assert Scenario.from_dict({"pipeline_batches": 16.0}).pipeline_batches == 16


def test_default_model_kwargs_are_empty():
    # The golden-report invariant: the default scenario builds models with the
    # bare constructor call of the pre-scenario engine.
    assert Scenario().model_kwargs() == {}


def test_model_kwargs_carry_deviations():
    scenario = Scenario().with_overrides({"hmc.pe_frequency_mhz": 625, "gpu": "V100"})
    kwargs = scenario.model_kwargs()
    assert kwargs["hmc_config"].pe_frequency_mhz == 625.0
    assert kwargs["gpu_device"] == GPU_DEVICES["V100"]
    assert "gpu_params" not in kwargs
    # Explicit sweep frequency overrides the scenario's own frequency.
    sweep = scenario.model_kwargs(pe_frequency_mhz=937.5)
    assert sweep["hmc_config"].pe_frequency_mhz == 937.5
