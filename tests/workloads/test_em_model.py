"""Tests for the EM routing workload model."""

import pytest

from repro.workloads.benchmarks import BENCHMARKS
from repro.workloads.em_model import EMRoutingWorkload
from repro.workloads.rp_model import RoutingWorkload


@pytest.fixture
def em_mn1():
    return EMRoutingWorkload(BENCHMARKS["Caps-MN1"])


def test_vote_tensor_same_size_as_dynamic_predictions(em_mn1):
    dynamic = RoutingWorkload(BENCHMARKS["Caps-MN1"])
    assert em_mn1.footprint().votes == dynamic.footprint().predictions


def test_responsibilities_are_per_batch(em_mn1):
    dynamic = RoutingWorkload(BENCHMARKS["Caps-MN1"])
    # EM keeps per-batch responsibilities: NB x the dynamic-routing coefficients.
    assert em_mn1.footprint().responsibilities == 100 * dynamic.footprint().coefficients


def test_intermediates_exceed_onchip_storage(em_mn1):
    assert em_mn1.footprint().intermediate_bytes > 16 * 1024 * 1024


def test_vote_flops_match_eq1(em_mn1):
    dynamic = RoutingWorkload(BENCHMARKS["Caps-MN1"])
    assert em_mn1.flops_votes() == dynamic.flops_prediction()


def test_total_flops_structure(em_mn1):
    assert em_mn1.total_flops() == em_mn1.flops_votes() + 3 * em_mn1.iteration_flops()
    assert em_mn1.iteration_flops() == em_mn1.flops_e_step() + em_mn1.flops_m_step()


def test_em_iteration_costs_more_than_dynamic_iteration(em_mn1):
    # The Gaussian E/M steps do more arithmetic per vote than Eq. 2/4.
    dynamic = RoutingWorkload(BENCHMARKS["Caps-MN1"])
    assert em_mn1.iteration_flops() > dynamic.iteration_flops()


def test_traffic_dominated_by_votes(em_mn1):
    fp = em_mn1.footprint()
    assert em_mn1.iteration_traffic_bytes() > 2 * fp.votes
    assert em_mn1.total_traffic_bytes() > em_mn1.iterations * 2 * fp.votes


def test_special_function_counts_positive(em_mn1):
    counts = em_mn1.special_function_counts()
    assert counts["exp"] > 0
    assert counts["div"] > 0
    assert counts["inv_sqrt"] == 0


def test_aggregations_scale_with_iterations():
    sv1 = EMRoutingWorkload(BENCHMARKS["Caps-SV1"])
    sv3 = EMRoutingWorkload(BENCHMARKS["Caps-SV3"])
    assert sv3.total_aggregations() == 3 * sv1.total_aggregations()


def test_flops_scale_with_network_size():
    cf1 = EMRoutingWorkload(BENCHMARKS["Caps-CF1"])
    cf3 = EMRoutingWorkload(BENCHMARKS["Caps-CF3"])
    assert cf3.total_flops() > cf1.total_flops()
