"""Analysis helpers: metrics and plain-text table formatting for experiments."""

from repro.analysis.metrics import (
    energy_saving,
    geometric_mean,
    normalize,
    percentage,
    speedup,
)
from repro.analysis.tables import format_columns, format_table, transpose_rows

__all__ = [
    "energy_saving",
    "geometric_mean",
    "normalize",
    "percentage",
    "speedup",
    "format_columns",
    "format_table",
    "transpose_rows",
]
