"""Tests for the analytic routing-procedure workload model."""

import pytest

from repro.workloads.benchmarks import BENCHMARKS, BenchmarkConfig
from repro.workloads.parallelism import RoutingEquation
from repro.workloads.rp_model import FP32_BYTES, RoutingWorkload


@pytest.fixture
def mn1_workload():
    return RoutingWorkload(BENCHMARKS["Caps-MN1"])


def test_footprint_prediction_vector_bytes(mn1_workload):
    fp = mn1_workload.footprint()
    assert fp.predictions == 100 * 1152 * 10 * 16 * FP32_BYTES


def test_footprint_weight_bytes(mn1_workload):
    fp = mn1_workload.footprint()
    assert fp.weights == 1152 * 10 * 8 * 16 * FP32_BYTES


def test_footprint_coefficients_and_logits_equal(mn1_workload):
    fp = mn1_workload.footprint()
    assert fp.logits == fp.coefficients == 1152 * 10 * FP32_BYTES


def test_intermediate_bytes_excludes_inputs_and_weights(mn1_workload):
    fp = mn1_workload.footprint()
    assert fp.intermediate_bytes == (
        fp.predictions + fp.logits + fp.coefficients + fp.weighted_sums + fp.high_capsules
    )
    assert fp.total_bytes == fp.intermediate_bytes + fp.low_capsules + fp.weights


def test_intermediates_far_exceed_onchip_storage(mn1_workload):
    # The paper's Fig. 6(a): the intermediates exceed on-chip storage by 40x+
    # even for the largest GPU (16 MB).
    fp = mn1_workload.footprint()
    assert fp.ratio_to_storage(16 * 1024 * 1024) > 4.0
    assert fp.ratio_to_storage(int(1.73 * 1024 * 1024)) > 40.0


def test_ratio_rejects_non_positive_storage(mn1_workload):
    with pytest.raises(ValueError):
        mn1_workload.footprint().ratio_to_storage(0)


def test_footprint_as_dict_keys(mn1_workload):
    assert set(mn1_workload.footprint().as_dict()) == {"u", "W", "u_hat", "b", "c", "s", "v"}


def test_flops_prediction_formula(mn1_workload):
    # Eq. 1: NB*NL*NH*CH*(2CL-1).
    assert mn1_workload.flops_prediction() == 100 * 1152 * 10 * 16 * 15


def test_flops_weighted_sum_formula(mn1_workload):
    assert mn1_workload.flops_weighted_sum() == 100 * 10 * 16 * (2 * 1152 - 1)


def test_flops_squash_formula(mn1_workload):
    assert mn1_workload.flops_squash() == 100 * 10 * (3 * 16 + 19)


def test_total_flops_includes_all_iterations(mn1_workload):
    per_eq = mn1_workload.flops_per_equation()
    assert mn1_workload.total_flops() == sum(per_eq.values())
    assert per_eq[RoutingEquation.WEIGHTED_SUM] == 3 * mn1_workload.flops_weighted_sum()


def test_flops_scale_with_iterations():
    sv1 = RoutingWorkload(BENCHMARKS["Caps-SV1"])
    sv3 = RoutingWorkload(BENCHMARKS["Caps-SV3"])
    # SV3 has 3x the iterations of SV1 with everything else equal.
    assert sv3.iteration_flops() == sv1.iteration_flops()
    assert sv3.total_flops() - sv3.flops_prediction() == 3 * (
        sv1.total_flops() - sv1.flops_prediction()
    )


def test_traffic_per_equation_prediction_dominates(mn1_workload):
    traffic = mn1_workload.traffic_per_equation()
    assert traffic[RoutingEquation.PREDICTION].write_bytes == mn1_workload.footprint().predictions
    # Eq. 2 and Eq. 4 both re-read the prediction vectors.
    assert traffic[RoutingEquation.WEIGHTED_SUM].read_bytes > mn1_workload.footprint().predictions
    assert traffic[RoutingEquation.AGREEMENT].read_bytes > mn1_workload.footprint().predictions


def test_total_traffic_exceeds_iteration_traffic(mn1_workload):
    assert mn1_workload.total_traffic_bytes() > mn1_workload.iteration_traffic_bytes()
    assert (
        mn1_workload.total_traffic_bytes()
        == mn1_workload.traffic_per_equation()[RoutingEquation.PREDICTION].total_bytes
        + 3 * mn1_workload.iteration_traffic_bytes()
    )


def test_special_function_counts(mn1_workload):
    counts = mn1_workload.special_function_counts()
    assert counts["exp"] == 3 * 1152 * 10
    assert counts["inv_sqrt"] == 3 * 100 * 10


def test_aggregation_points(mn1_workload):
    points = mn1_workload.aggregation_points()
    assert points["eq2_reduce_over_L"] == 3 * 100 * 10
    assert points["eq4_reduce_over_B"] == 3 * 1152 * 10
    assert mn1_workload.total_aggregations() == sum(points.values())


def test_synchronization_groups_scale_with_batch():
    mn1 = RoutingWorkload(BENCHMARKS["Caps-MN1"])
    mn3 = RoutingWorkload(BENCHMARKS["Caps-MN3"])
    # The paper's Observation 1: batching does not amortize the RP.
    ratio = mn3.total_synchronization_groups() / mn1.total_synchronization_groups()
    assert ratio > 2.0


def test_synchronization_groups_rejects_bad_warp(mn1_workload):
    with pytest.raises(ValueError):
        mn1_workload.synchronization_groups(warp_size=0)


def test_footprints_for_helper():
    footprints = {name: RoutingWorkload(cfg).footprint() for name, cfg in BENCHMARKS.items()}
    assert set(footprints) == set(BENCHMARKS)
    assert footprints["Caps-CF3"].predictions > footprints["Caps-CF1"].predictions


def test_tiny_benchmark_consistency(tiny_benchmark: BenchmarkConfig):
    workload = RoutingWorkload(tiny_benchmark)
    assert workload.total_flops() > 0
    assert workload.footprint().intermediate_bytes > 0
