"""Tests for the FP32 bit-level utilities."""

import numpy as np
import pytest

from repro.arithmetic.fp32 import (
    FP32_BIAS,
    FloatFields,
    bits_to_float,
    compose,
    decompose,
    float_to_bits,
)


def test_float_to_bits_round_trip_scalar():
    value = np.float32(3.14159)
    assert bits_to_float(float_to_bits(value)) == value


def test_float_to_bits_round_trip_array():
    values = np.array([0.0, 1.0, -2.5, 1e-20, 1e20], dtype=np.float32)
    np.testing.assert_array_equal(bits_to_float(float_to_bits(values)), values)


def test_float_to_bits_known_pattern_one():
    # 1.0f is exponent 127, fraction 0 -> 0x3F800000.
    assert int(float_to_bits(1.0)) == 0x3F800000


def test_float_to_bits_known_pattern_minus_two():
    # -2.0f is sign 1, exponent 128, fraction 0 -> 0xC0000000.
    assert int(float_to_bits(-2.0)) == 0xC0000000


def test_decompose_one():
    fields = decompose(1.0)
    assert int(fields.sign) == 0
    assert int(fields.exponent) == FP32_BIAS
    assert int(fields.fraction) == 0


def test_decompose_negative_value_sets_sign():
    fields = decompose(-1.5)
    assert int(fields.sign) == 1
    assert int(fields.exponent) == FP32_BIAS
    assert int(fields.fraction) == 1 << 22  # 1.5 = 1.1b


def test_decompose_real_exponent():
    fields = decompose(np.float32(8.0))
    assert int(fields.real_exponent) == 3


def test_decompose_significand_includes_implicit_one():
    fields = decompose(np.float32(1.0))
    assert int(fields.significand) == 1 << 23


def test_compose_inverse_of_decompose():
    values = np.array([1.0, -3.75, 0.15625, 1234.5], dtype=np.float32)
    fields = decompose(values)
    rebuilt = compose(fields.sign, fields.exponent, fields.fraction)
    np.testing.assert_array_equal(rebuilt, values)


def test_compose_masks_overflowing_fields():
    # An exponent larger than 8 bits must be masked, not corrupt the sign.
    value = compose(np.uint32(0), np.uint32(0x1FF), np.uint32(0))
    fields = decompose(value)
    assert int(fields.sign) == 0
    assert int(fields.exponent) == 0xFF


def test_fields_dataclass_is_frozen():
    fields = decompose(1.0)
    assert isinstance(fields, FloatFields)
    with pytest.raises(AttributeError):
        fields.sign = np.uint32(1)  # type: ignore[misc]
