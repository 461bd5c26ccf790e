"""IEEE-754 single precision (FP32) bit-level utilities.

The PIM-CapsNet PE approximations (Sec. 5.2.2, Fig. 12 of the paper) operate
directly on the sign / exponent / fraction fields of FP32 numbers: the
exponential function is evaluated by *constructing* a floating point bit
pattern whose exponent and fraction fields are filled by shifted versions of
an intermediate fixed point value, and the inverse square root / reciprocal
approximations manipulate the exponent field through integer arithmetic.

Everything in this module is vectorized over numpy arrays and is careful to
use explicit 32-bit types so the bit patterns match what a hardware
implementation would see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Number of bits in the FP32 exponent field.
FP32_EXPONENT_BITS = 8
#: Number of bits in the FP32 fraction (mantissa) field.
FP32_FRACTION_BITS = 23
#: Exponent bias of the FP32 format.
FP32_BIAS = 127
#: Mask selecting the fraction field.
FP32_FRACTION_MASK = np.uint32((1 << FP32_FRACTION_BITS) - 1)
#: Mask selecting the (biased) exponent field, already shifted into place.
FP32_EXPONENT_MASK = np.uint32(((1 << FP32_EXPONENT_BITS) - 1) << FP32_FRACTION_BITS)
#: Mask selecting the sign bit.
FP32_SIGN_MASK = np.uint32(1 << (FP32_EXPONENT_BITS + FP32_FRACTION_BITS))


@dataclass(frozen=True)
class FloatFields:
    """Decomposed view of one or more FP32 values.

    Attributes:
        sign: 0 for positive values, 1 for negative values.
        exponent: biased exponent field (0..255).
        fraction: 23-bit fraction field (the leading implicit 1 is *not*
            included).
    """

    sign: np.ndarray
    exponent: np.ndarray
    fraction: np.ndarray

    @property
    def real_exponent(self) -> np.ndarray:
        """Unbiased exponent ``exponent - bias`` (as signed integers)."""
        return self.exponent.astype(np.int32) - FP32_BIAS

    @property
    def significand(self) -> np.ndarray:
        """The 24-bit significand ``1.fraction`` as an integer (1 << 23 | fraction)."""
        return (np.uint32(1) << FP32_FRACTION_BITS) | self.fraction


def as_f32(array: np.ndarray) -> np.ndarray:
    """``array`` as float32 *without copying* when it already is float32.

    The repository-wide no-copy dtype policy: ``ndarray.astype`` copies even
    for a matching dtype, and the CapsNet training hot path paid ~2s per
    cold Table-5 run in such redundant copies.  Non-float32 inputs go
    through :func:`numpy.asarray` (itself copy-free where possible).
    """
    if isinstance(array, np.ndarray) and array.dtype == np.float32:
        return array
    return np.asarray(array, dtype=np.float32)


def float_to_bits(value: np.ndarray | float) -> np.ndarray:
    """Reinterpret FP32 value(s) as their raw 32-bit unsigned representation."""
    arr = np.asarray(value, dtype=np.float32)
    return arr.view(np.uint32)


def bits_to_float(bits: np.ndarray | int) -> np.ndarray:
    """Reinterpret raw 32-bit pattern(s) as FP32 value(s)."""
    arr = np.asarray(bits, dtype=np.uint32)
    return arr.view(np.float32)


def decompose(value: np.ndarray | float) -> FloatFields:
    """Split FP32 value(s) into sign / biased exponent / fraction fields."""
    bits = float_to_bits(value)
    sign = (bits >> np.uint32(FP32_EXPONENT_BITS + FP32_FRACTION_BITS)) & np.uint32(1)
    exponent = (bits & FP32_EXPONENT_MASK) >> np.uint32(FP32_FRACTION_BITS)
    fraction = bits & FP32_FRACTION_MASK
    return FloatFields(sign=sign, exponent=exponent, fraction=fraction)


def compose(sign: np.ndarray, exponent: np.ndarray, fraction: np.ndarray) -> np.ndarray:
    """Assemble FP32 value(s) from sign / biased exponent / fraction fields.

    The fields are masked to their legal widths so callers may pass
    intermediate values that overflow the field (mirroring the "chucked bits"
    behaviour described in the paper's Fig. 12).
    """
    sign_bits = (np.asarray(sign, dtype=np.uint32) & np.uint32(1)) << np.uint32(
        FP32_EXPONENT_BITS + FP32_FRACTION_BITS
    )
    exp_bits = (
        np.asarray(exponent, dtype=np.uint32) & np.uint32((1 << FP32_EXPONENT_BITS) - 1)
    ) << np.uint32(FP32_FRACTION_BITS)
    frac_bits = np.asarray(fraction, dtype=np.uint32) & FP32_FRACTION_MASK
    return bits_to_float(sign_bits | exp_bits | frac_bits)
