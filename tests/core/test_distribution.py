"""Tests for the inter-vault workload distributor and execution score."""

import pytest

from repro.core.distribution import ExecutionScoreModel, WorkloadDistributor
from repro.hmc.config import HMCConfig
from repro.hmc.crossbar import Crossbar
from repro.hmc.pe import PEDatapath, PEOperation
from repro.workloads.benchmarks import BENCHMARKS
from repro.workloads.parallelism import Dimension


@pytest.fixture
def distributor():
    return WorkloadDistributor(BENCHMARKS["Caps-MN1"])


def test_plans_exist_for_every_dimension(distributor):
    plans = distributor.all_plans()
    assert set(plans) == set(Dimension)


def test_plan_dimension_field_matches_key(distributor):
    for dimension, plan in distributor.all_plans().items():
        assert plan.dimension is dimension


def test_per_vault_operations_smaller_than_total(distributor):
    for plan in distributor.all_plans().values():
        assert plan.per_vault_operations.total_operations < plan.total_operations.total_operations


def test_per_vault_work_roughly_one_vault_share(distributor):
    # The critical vault should carry roughly 1/num_vaults of the total work
    # (plus the non-parallelizable remainder), never less.
    hmc = HMCConfig()
    for plan in distributor.all_plans().values():
        share = plan.per_vault_operations.total_operations / plan.total_operations.total_operations
        if plan.vaults_used == hmc.num_vaults:
            assert share >= 1.0 / hmc.num_vaults - 1e-9
            assert share < 6.0 / hmc.num_vaults


def test_batch_dimension_communication_matches_eq8_structure(distributor):
    plan = distributor.plan_for_dimension(Dimension.BATCH)
    hmc = HMCConfig()
    config = BENCHMARKS["Caps-MN1"]
    expected_packets = (
        config.routing_iterations
        * 2
        * (hmc.num_vaults - 1)
        * config.num_low_capsules
        * config.num_high_capsules
    )
    assert plan.crossbar_packets == expected_packets
    assert plan.crossbar_payload_bytes == expected_packets * 4


def test_low_dimension_communication_matches_eq10_structure(distributor):
    plan = distributor.plan_for_dimension(Dimension.LOW)
    hmc = HMCConfig()
    config = BENCHMARKS["Caps-MN1"]
    expected_packets = (
        config.routing_iterations
        * 2
        * config.batch_size
        * (hmc.num_vaults - 1)
        * config.num_high_capsules
    )
    assert plan.crossbar_packets == expected_packets
    assert plan.crossbar_payload_bytes == expected_packets * config.high_dim * 4


def test_high_dimension_uses_only_nh_vaults(distributor):
    plan = distributor.plan_for_dimension(Dimension.HIGH)
    assert plan.vaults_used == BENCHMARKS["Caps-MN1"].num_high_capsules


def test_high_dimension_has_smallest_communication(distributor):
    plans = distributor.all_plans()
    # The H-dimension only exchanges the b/c rows needed by the softmax
    # (Eq. 12), which is far less than either other dimension.
    assert plans[Dimension.HIGH].crossbar_payload_bytes < plans[Dimension.LOW].crossbar_payload_bytes
    assert plans[Dimension.HIGH].crossbar_payload_bytes < plans[Dimension.BATCH].crossbar_payload_bytes
    assert plans[Dimension.HIGH].crossbar_packets < plans[Dimension.LOW].crossbar_packets
    # The B-dimension exchanges per-element packets and therefore moves the
    # largest packet count (Eq. 8).
    assert plans[Dimension.BATCH].crossbar_packets > plans[Dimension.LOW].crossbar_packets


def test_best_plan_is_argmax_of_scores(distributor):
    scores = distributor.scores()
    best = distributor.best_plan()
    assert scores[best.dimension] == max(scores.values())


def test_plans_are_built_and_picked_once(distributor):
    plans = distributor.all_plans()
    for dimension, plan in plans.items():
        assert distributor.plan_for_dimension(dimension) is plan
    best = distributor.best_plan()
    assert best is plans[best.dimension]
    assert distributor.best_plan() is best


def test_best_dimension_for_mn1_is_low(distributor):
    # With the default 312.5 MHz HMC, the L dimension wins for Caps-MN1
    # (B moves too many packets, H leaves 22 of 32 vaults idle).
    assert distributor.best_dimension() is Dimension.LOW


def test_en3_prefers_high_dimension():
    # Caps-EN3 has 62 high-level capsules (> 32 vaults), making the
    # H-dimension distribution attractive (tiny communication, full vault use).
    distributor = WorkloadDistributor(BENCHMARKS["Caps-EN3"])
    assert distributor.best_dimension() is Dimension.HIGH


def test_score_model_alpha_beta_positive():
    hmc = HMCConfig()
    model = ExecutionScoreModel(
        config=hmc,
        datapath=PEDatapath(frequency_hz=hmc.pe_frequency_hz),
        crossbar=Crossbar(hmc),
    )
    assert model.alpha > 0
    assert model.beta > 0


def test_score_is_reciprocal_of_estimated_time(distributor):
    plan = distributor.best_plan()
    model = distributor.score_model
    assert model.score(plan) == pytest.approx(1.0 / model.estimated_time(plan))


def test_higher_frequency_changes_alpha():
    hmc = HMCConfig()
    slow = ExecutionScoreModel(
        config=hmc, datapath=PEDatapath(frequency_hz=312.5e6), crossbar=Crossbar(hmc)
    )
    fast = ExecutionScoreModel(
        config=hmc, datapath=PEDatapath(frequency_hz=937.5e6), crossbar=Crossbar(hmc)
    )
    assert fast.alpha < slow.alpha
    assert fast.beta == pytest.approx(slow.beta)


def test_total_dram_bytes_exceed_prediction_vector_size(distributor):
    plan = distributor.best_plan()
    predictions = BENCHMARKS["Caps-MN1"].prediction_vector_count * 16 * 4
    assert plan.total_dram_bytes > predictions


def test_operations_contain_special_functions(distributor):
    plan = distributor.best_plan()
    assert plan.total_operations.counts[PEOperation.EXP] > 0
    assert plan.total_operations.counts[PEOperation.INV_SQRT] > 0


def test_unknown_dimension_rejected(distributor):
    with pytest.raises(ValueError):
        distributor.plan_for_dimension("diagonal")  # type: ignore[arg-type]


def test_small_hmc_configuration_supported(tiny_benchmark, small_hmc_config):
    distributor = WorkloadDistributor(tiny_benchmark, small_hmc_config)
    plan = distributor.best_plan()
    assert plan.vaults_used <= small_hmc_config.num_vaults
    assert plan.per_vault_operations.total_operations > 0
