"""Comparisons and roundings that work on Python numbers and on arrays alike.

The analytic models accept the PE frequency as a Python float or as a float64
array, and the PE count per vault as a Python int or as an int64 array
aligned with it (one element per point of a vectorized sweep batch).
Elementwise ``+ - * /`` already give the same bits in both forms; the
builtins ``max``, ``min``, ``round``, ``float`` and conditional expressions do
not accept arrays, so the model uses these helpers instead.  On Python
numbers each helper returns exactly what the builtin expression it replaces
returns and creates no numpy value; on arrays it applies the same rule to
each element.
"""

from __future__ import annotations

import numpy as np


def maximum(a, b):
    """``max(a, b)``: ``b`` where ``b > a``, else ``a`` (NaN and signed zeros included)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.where(b > a, b, a)
    return b if b > a else a


def minimum(a, b):
    """``min(a, b)``: ``b`` where ``b < a``, else ``a``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.where(b < a, b, a)
    return b if b < a else a


def choose(condition, a, b):
    """``a if condition else b``."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


def as_float(value):
    """``float(value)``: an int64 array becomes float64, each element rounded alike."""
    if isinstance(value, np.ndarray):
        return value.astype(np.float64)
    return float(value)


def rounded(value):
    """``int(round(value))``: the nearest integer, ties to even (int64 elements)."""
    if isinstance(value, np.ndarray):
        return np.rint(value).astype(np.int64)
    return int(round(value))


def reciprocal_or_inf(value):
    """``1 / value`` where ``value > 0``, else ``inf`` (NaN included)."""
    if isinstance(value, np.ndarray):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(value > 0, 1.0 / value, np.inf)
    return 1.0 / value if value > 0 else float("inf")


def first_minimum(candidates, costs):
    """The candidate whose cost is smallest, the first one on ties.

    ``costs`` holds one float per candidate, or one float64 array per
    candidate, all of one shape; a candidate is then picked per element.
    Costs must not mix NaN with numbers: ``argmin`` picks the first NaN,
    ``min`` a number after it.
    """
    if isinstance(costs[0], np.ndarray):
        return np.asarray(candidates)[np.array(costs).argmin(axis=0)]
    return candidates[min(range(len(costs)), key=costs.__getitem__)]


def any_true(condition) -> bool:
    """Whether a comparison holds: the bool itself, or any element of a bool array."""
    return bool(condition.any()) if isinstance(condition, np.ndarray) else bool(condition)


def all_true(condition) -> bool:
    """Whether a comparison holds: the bool itself, or every element of a bool array."""
    return bool(condition.all()) if isinstance(condition, np.ndarray) else bool(condition)
