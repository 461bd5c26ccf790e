"""Tests for intra-vault operation lowering and PE utilization."""

import pytest

from repro.core.intra_vault import (
    IntraVaultDistributor,
    lower_routing_to_operations,
    softmax_operation_mix,
    squash_operation_mix,
)
from repro.hmc.pe import PEOperation


def test_squash_mix_contents():
    mix = squash_operation_mix(count=10, high_dim=16)
    assert mix.counts[PEOperation.MAC] == 160
    assert mix.counts[PEOperation.INV_SQRT] == 10
    assert mix.counts[PEOperation.DIV] == 10
    assert mix.counts[PEOperation.MUL] == 170


def test_squash_mix_rejects_negative():
    with pytest.raises(ValueError):
        squash_operation_mix(-1, 16)


def test_softmax_mix_contents():
    mix = softmax_operation_mix(rows=5, row_length=10)
    assert mix.counts[PEOperation.EXP] == 50
    assert mix.counts[PEOperation.DIV] == 50
    assert mix.counts[PEOperation.ADD] == 45


def test_softmax_mix_rejects_negative():
    with pytest.raises(ValueError):
        softmax_operation_mix(-1, 4)


def test_lower_routing_mac_count(tiny_benchmark):
    mix = lower_routing_to_operations(
        tiny_benchmark,
        eq1_pairs=10,
        eq2_macs=100,
        eq3_squashes=0,
        eq4_dots=5,
        eq4_accumulations=7,
        eq5_rows=0,
    )
    expected_macs = 10 * tiny_benchmark.low_dim * tiny_benchmark.high_dim + 100 + 5 * tiny_benchmark.high_dim
    assert mix.counts[PEOperation.MAC] == expected_macs
    assert mix.counts[PEOperation.ADD] == 7


def test_lower_routing_includes_special_functions(tiny_benchmark):
    mix = lower_routing_to_operations(
        tiny_benchmark,
        eq1_pairs=0,
        eq2_macs=0,
        eq3_squashes=4,
        eq4_dots=0,
        eq4_accumulations=0,
        eq5_rows=3,
    )
    assert mix.counts[PEOperation.EXP] == 3 * tiny_benchmark.num_high_capsules
    assert mix.counts[PEOperation.INV_SQRT] == 4


def test_utilization_full_when_enough_suboperations():
    distributor = IntraVaultDistributor(pes_per_vault=16)
    assert distributor.utilization(32) == 1.0
    assert distributor.effective_pes(32) == 16


def test_utilization_partial_without_secondary_dimension():
    distributor = IntraVaultDistributor(pes_per_vault=16, allow_secondary_dimension=False)
    assert distributor.utilization(4) == pytest.approx(0.25)
    assert distributor.effective_pes(4) == 4


def test_secondary_dimension_recovers_utilization():
    # The paper's fallback: re-partition along another dimension when the
    # primary dimension does not produce enough parallel sub-operations.
    distributor = IntraVaultDistributor(pes_per_vault=16)
    assert distributor.utilization(1, secondary_parallelism=100) == 1.0


def test_utilization_zero_suboperations_minimal():
    distributor = IntraVaultDistributor(pes_per_vault=16)
    assert distributor.utilization(0) == pytest.approx(1.0 / 16)
    assert distributor.effective_pes(0) == 1


def test_utilization_rejects_invalid_arguments():
    distributor = IntraVaultDistributor()
    with pytest.raises(ValueError):
        distributor.utilization(-1)
    with pytest.raises(ValueError):
        distributor.utilization(1, secondary_parallelism=0)
