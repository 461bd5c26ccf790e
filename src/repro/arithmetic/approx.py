"""Bit-level approximations of the routing procedure's special functions.

The dynamic routing procedure needs three functions that are expensive to
implement as dedicated logic on the HMC logic layer:

* the exponential function (``softmax`` in Eq. 5),
* division (``softmax`` normalization and the ``squash`` in Eq. 3),
* the inverse square root (``squash`` needs ``s / ||s||``).

Section 5.2.2 of the paper replaces them with adder/multiplier/bit-shifter
sequences.  This module provides faithful, vectorized software models of
those datapaths:

* :func:`approx_exp` implements Eq. (13)/(14): ``e^x = 2^(x*log2 e)`` is
  evaluated by building the FP32 bit pattern directly from the fixed point
  value ``log2(e)*x + Avg + bias - 1`` (the well known Schraudolph
  construction, which is exactly the exponent/fraction-field transfer the
  paper describes in Fig. 12).
* :func:`approx_inv_sqrt` implements the classic bit-shift inverse square
  root (Lomont / Quake III) with a configurable number of Newton-Raphson
  refinement steps (each step only needs multiplies and adds, i.e. MAC
  operations the PE already supports).
* :func:`approx_reciprocal` / :func:`approx_div` implement division through
  an exponent-negation bit trick plus Newton refinement.

All functions accept scalars or numpy arrays and always compute in FP32, the
format the paper targets.
"""

from __future__ import annotations

import numpy as np

from repro.arithmetic.fp32 import as_f32, FP32_BIAS, FP32_FRACTION_BITS, bits_to_float, float_to_bits

#: ``log2(e)`` pre-computed offline (Sec. 5.2.2: "a constant that is computed offline").
LOG2_E = float(np.log2(np.e))

#: Average value of ``2^f - f`` for ``f`` uniform in [0, 1), minus 1.
#: The paper derives it by integrating the polynomial over [0, 1):
#: ``integral(2^f) = 1/ln 2`` and ``integral(f) = 1/2`` so
#: ``Avg = 1/ln2 - 1/2 - 1``.
EXP_AVG_CORRECTION = float(1.0 / np.log(2.0) - 0.5 - 1.0)

#: Magic constant of the fast inverse square root (Lomont's analysis).
INV_SQRT_MAGIC = np.uint32(0x5F3759DF)

#: Magic constant for the reciprocal approximation (exponent negation).
RECIPROCAL_MAGIC = np.uint32(0x7EF311C3)

_EXP_MIN_INPUT = -80.0
_EXP_MAX_INPUT = 80.0


def _as_fp32(x: np.ndarray | float) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


# ---------------------------------------------------------------------------
# Exact reference implementations (what the GPU / FP32 FPU would compute).
# ---------------------------------------------------------------------------


def exact_exp(x: np.ndarray | float) -> np.ndarray:
    """Reference exponential, computed in FP32 like a GPU special function unit."""
    return np.exp(_as_fp32(x), dtype=np.float32)


def exact_inv_sqrt(x: np.ndarray | float) -> np.ndarray:
    """Reference inverse square root in FP32."""
    return as_f32(np.float32(1.0) / np.sqrt(_as_fp32(x), dtype=np.float32))


def exact_reciprocal(x: np.ndarray | float) -> np.ndarray:
    """Reference reciprocal in FP32."""
    return as_f32(np.float32(1.0) / _as_fp32(x))


# ---------------------------------------------------------------------------
# PE datapath approximations.
# ---------------------------------------------------------------------------


def approx_exp(x: np.ndarray | float, correction: float = EXP_AVG_CORRECTION) -> np.ndarray:
    """Approximate ``e^x`` with the PE's add + bit-shift datapath (Eq. 14).

    The computation is ``BS(log2(e) * x + Avg + bias - 1)`` where ``BS``
    denotes placing the fixed point result into the exponent/fraction fields
    of an FP32 word -- equivalently multiplying by ``2^23`` and
    reinterpreting the integer as a float.

    Args:
        x: input value(s).
        correction: the ``Avg`` term; exposed so the calibration code and the
            test-suite can explore its effect.  Defaults to the paper's
            offline-integrated value.

    Returns:
        FP32 approximation of ``exp(x)``.
    """
    x = np.clip(_as_fp32(x), _EXP_MIN_INPUT, _EXP_MAX_INPUT)
    y = np.float64(LOG2_E) * x.astype(np.float64)
    # Fixed point value destined for the exponent/fraction fields.
    fixed = (y + (FP32_BIAS - 1) + 1.0 + correction) * (1 << FP32_FRACTION_BITS)
    fixed = np.clip(fixed, 1.0, np.float64(0x7F7FFFFF))
    bits = fixed.astype(np.uint32)
    return as_f32(bits_to_float(bits))


def approx_inv_sqrt(x: np.ndarray | float, newton_steps: int = 1) -> np.ndarray:
    """Approximate ``1/sqrt(x)`` with the bit-shift trick plus Newton steps.

    Args:
        x: strictly positive input value(s).
        newton_steps: number of Newton-Raphson refinements.  Each step uses
            only multiply/add operations, matching the PE flow
            ``3 -> 2 -> 1 -> 2 -> 1`` described in the paper.

    Returns:
        FP32 approximation of ``1/sqrt(x)``.
    """
    x = _as_fp32(x)
    half = np.float32(0.5) * x
    bits = float_to_bits(x)
    bits = INV_SQRT_MAGIC - (bits >> np.uint32(1))
    y = as_f32(bits_to_float(bits))
    for _ in range(max(0, int(newton_steps))):
        y = y * (np.float32(1.5) - half * y * y)
    return as_f32(y)


def approx_reciprocal(x: np.ndarray | float, newton_steps: int = 1) -> np.ndarray:
    """Approximate ``1/x`` for positive ``x`` via exponent negation + Newton.

    The initial guess is obtained by subtracting the operand's bit pattern
    from a magic constant (a pure integer subtraction, i.e. realizable with
    the PE adder operating on the raw FP32 word), then refined with
    ``y <- y * (2 - x*y)`` Newton steps that use only MACs.
    """
    x = _as_fp32(x)
    sign = np.signbit(x)
    mag = np.abs(x)
    bits = float_to_bits(mag)
    bits = RECIPROCAL_MAGIC - bits
    y = as_f32(bits_to_float(bits))
    for _ in range(max(0, int(newton_steps))):
        y = y * (np.float32(2.0) - mag * y)
    y = np.where(sign, -y, y)
    return as_f32(y)


def approx_div(
    numerator: np.ndarray | float,
    denominator: np.ndarray | float,
    newton_steps: int = 1,
) -> np.ndarray:
    """Approximate ``numerator / denominator`` using :func:`approx_reciprocal`."""
    num = _as_fp32(numerator)
    return as_f32(num * approx_reciprocal(denominator, newton_steps=newton_steps))
