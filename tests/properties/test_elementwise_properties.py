"""Property-based tests for :mod:`repro.elementwise`.

On Python floats every helper must return exactly what the builtin
expression it replaced returns, and never a numpy value; on float64 arrays
every element must equal the scalar result bit for bit.  The array range
checks of the models must raise when any element is out of range.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import PipelineModel
from repro.core.rmas import ContentionModel
from repro.elementwise import (
    all_true,
    any_true,
    first_minimum,
    maximum,
    reciprocal_or_inf,
)
from repro.gpu.energy import GPUEnergyModel
from repro.hmc.config import HMCConfig
from repro.hmc.pe import PEDatapath

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
#: Few distinct values, so lists of costs tie often.
TIED_COSTS = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf]), min_size=1, max_size=12
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _scan_optimal_share(host_time, routing_time, targeted_vaults, contention):
    """The strict-``<`` scan ``ContentionModel.optimal_share`` used to run."""
    best_share = 0.0
    best_cost = float("inf")
    for n_h in range(0, targeted_vaults + 1):
        share = n_h / targeted_vaults
        host_slowdown, pim_slowdown = contention.slowdowns_for_share(share)
        cost = max(host_time * host_slowdown, routing_time * pim_slowdown)
        if cost < best_cost:
            best_cost = cost
            best_share = share
    return best_share


# ------------------------------------------------------------ Python floats


@settings(max_examples=200, deadline=None)
@given(ANY_FLOAT, ANY_FLOAT)
@example(-0.0, 0.0)
@example(0.0, -0.0)
@example(math.nan, 1.0)
@example(1.0, math.nan)
def test_maximum_is_the_builtin_max_on_floats(a, b):
    got = maximum(a, b)
    assert got is max(a, b)
    assert type(got) is float


def test_maximum_keeps_the_first_of_two_zeros():
    assert math.copysign(1.0, maximum(-0.0, 0.0)) == -1.0
    # np.maximum would give +0.0 here; the helper keeps the builtin's answer.
    assert _bits(maximum(np.array([-0.0]), 0.0)) == _bits([-0.0])


@settings(max_examples=200, deadline=None)
@given(ANY_FLOAT)
@example(0.0)
@example(-0.0)
def test_reciprocal_or_inf_is_the_conditional_expression(value):
    got = reciprocal_or_inf(value)
    assert type(got) is float
    assert _bits(got) == _bits(1.0 / value if value > 0 else float("inf"))


@settings(max_examples=200, deadline=None)
@given(st.one_of(TIED_COSTS, st.lists(st.floats(allow_nan=False), min_size=1)))
def test_first_minimum_is_the_builtin_min_on_floats(costs):
    candidates = [index / len(costs) for index in range(len(costs))]
    got = first_minimum(candidates, costs)
    assert got is candidates[min(range(len(costs)), key=costs.__getitem__)]
    assert type(got) is float
    # The first minimum on ties, like the strict-< scan it replaced.
    first = next(i for i, cost in enumerate(costs) if cost == min(costs))
    assert got is candidates[first]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([0.0, 1e-4, 1e-3]) | st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1e-4, 1e-3]) | st.floats(0.0, 1.0),
    st.integers(min_value=1, max_value=64),
)
def test_optimal_share_equals_the_strict_scan(host_time, routing_time, vaults):
    contention = ContentionModel()
    got = contention.optimal_share(host_time, routing_time, vaults)
    assert got == _scan_optimal_share(host_time, routing_time, vaults, contention)
    assert type(got) is float


@given(st.booleans())
def test_reducers_pass_bools_through(condition):
    assert any_true(condition) is condition
    assert all_true(condition) is condition


# ----------------------------------------------------------- float64 arrays


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT), min_size=1, max_size=16))
def test_maximum_on_arrays_is_elementwise(pairs):
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    want = _bits([maximum(x, y) for x, y in pairs])
    assert _bits(maximum(a, b)) == want
    # A float on either side broadcasts like its per-element repetition.
    assert _bits(maximum(a, pairs[0][1])) == _bits([maximum(x, pairs[0][1]) for x in a.tolist()])
    assert _bits(maximum(pairs[0][0], b)) == _bits([maximum(pairs[0][0], y) for y in b.tolist()])


@settings(max_examples=200, deadline=None)
@given(st.lists(ANY_FLOAT, min_size=1, max_size=16))
def test_reciprocal_or_inf_on_arrays_is_elementwise(values):
    got = reciprocal_or_inf(np.array(values))
    assert _bits(got) == _bits([reciprocal_or_inf(value) for value in values])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda width: st.lists(
            st.lists(
                st.sampled_from([0.0, 1.0, 2.5, math.inf]) | st.floats(allow_nan=False),
                min_size=width,
                max_size=width,
            ),
            min_size=1,
            max_size=10,
        )
    )
)
def test_first_minimum_on_arrays_is_elementwise(rows):
    candidates = [index / len(rows) for index in range(len(rows))]
    got = first_minimum(candidates, [np.array(row) for row in rows])
    want = [
        first_minimum(candidates, [row[element] for row in rows])
        for element in range(len(rows[0]))
    ]
    assert _bits(got) == _bits(want)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.lists(st.sampled_from([0.0, 1e-4, 1e-3]) | st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=64),
)
def test_optimal_share_on_arrays_is_elementwise(host_time, routing_times, vaults):
    contention = ContentionModel()
    got = contention.optimal_share(host_time, np.array(routing_times), vaults)
    want = [contention.optimal_share(host_time, t, vaults) for t in routing_times]
    assert _bits(got) == _bits(want)


# ------------------------------------------------------ array range checks


def _with_one(bad, good, position):
    values = [good] * 4
    values[position] = bad
    return np.array(values)


BAD_FREQUENCIES = [0.0, -5.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", BAD_FREQUENCIES)
@pytest.mark.parametrize("position", [0, 3])
def test_frequency_checks_reject_any_bad_element(bad, position):
    frequencies = _with_one(bad, 312.5, position)
    with pytest.raises(ValueError, match="finite and positive"):
        HMCConfig(pe_frequency_mhz=frequencies)
    with pytest.raises(ValueError, match="finite and positive"):
        PEDatapath(frequency_hz=frequencies * 1e6)
    with pytest.raises(ValueError, match="finite and positive"):
        HMCConfig(pe_frequency_mhz=bad)


def test_frequency_checks_accept_good_arrays():
    frequencies = np.array([100.0, 312.5, 2500.0])
    assert HMCConfig(pe_frequency_mhz=frequencies).pe_frequency_hz.tolist() == [
        1e8,
        3.125e8,
        2.5e9,
    ]
    PEDatapath(frequency_hz=frequencies * 1e6)


@pytest.mark.parametrize("bad", [-0.25, 1.5, math.nan])
def test_share_check_rejects_any_bad_element(bad):
    contention = ContentionModel()
    with pytest.raises(ValueError, match="host_share"):
        contention.slowdowns_for_share(_with_one(bad, 0.5, 2))
    host, pim = contention.slowdowns_for_share(np.array([0.0, 0.5, 1.0]))
    assert _bits(host) == _bits([contention.slowdowns_for_share(s)[0] for s in (0.0, 0.5, 1.0)])
    assert _bits(pim) == _bits([contention.slowdowns_for_share(s)[1] for s in (0.0, 0.5, 1.0)])


def test_stage_time_checks_reject_any_negative_element():
    times = _with_one(-1e-6, 1e-3, 1)
    pipeline = PipelineModel()
    energy = GPUEnergyModel()
    with pytest.raises(ValueError, match="stage times"):
        pipeline.serial(times, 1e-3)
    with pytest.raises(ValueError, match="stage times"):
        pipeline.pipelined(1e-3, times)
    with pytest.raises(ValueError, match="stage times"):
        ContentionModel().optimal_share(1e-3, times, 32)
    with pytest.raises(ValueError, match="non-negative"):
        energy.phase_energy(times, 1.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        energy.idle_energy(times)
    good = np.abs(times)
    assert pipeline.pipelined(1e-3, good).total_time.shape == good.shape
    assert energy.idle_energy(good).total.shape == good.shape
