"""Plain-text table formatting for experiment reports.

The experiment drivers print the same rows/series the paper's tables and
figures report; this module renders them as aligned monospace tables so the
benchmark harness output is readable in a terminal and in EXPERIMENTS.md.
Tables are formatted column by column: each column is converted to text in
one call chosen by its type, and every row is padded and joined through one
row template.  A column of ``str`` is its own text; a column of Python
``float`` is formatted by one ``%`` template whose per-cell conversion
follows :func:`_stringify`'s rules; every other column (int, bool, numpy
scalars, ``str`` subclasses, mixed types) converts cell by cell through
:func:`_stringify`.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

#: Magnitude bounds of :func:`_stringify`'s float rules: zero, below 0.001,
#: below 1000, and from 1000 on (NaN sorts last).  ``searchsorted(...,
#: side="right")`` gives each magnitude's index into :data:`_FLOAT_CONVERSIONS`.
_FLOAT_BOUNDS = np.array([math.ulp(0.0), 0.001, 1000.0])

#: The ``%`` conversion of each float rule; ``%d`` prints either signed zero
#: as ``0`` and ``%.3e`` prints NaN as ``nan``, as ``%.3f`` does.
_FLOAT_CONVERSIONS = np.array(["%d", "%.3e", "%.3f", "%.3e"])


def _stringify(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def _float_texts(column: Sequence[float]) -> List[str]:
    """:func:`_stringify` of every cell of a column of Python floats, in one call."""
    rule = np.searchsorted(_FLOAT_BOUNDS, np.abs(column), side="right")
    template = "\n".join(_FLOAT_CONVERSIONS[rule].tolist())
    return (template % tuple(column)).split("\n")


def _column_texts(column: Sequence[object]) -> Sequence[str]:
    """The text of every cell of ``column``, converted by the column's type."""
    types = set(map(type, column))
    if types == {str}:
        return column  # type: ignore[return-value]
    if types == {float}:
        return _float_texts(column)  # type: ignore[arg-type]
    return [_stringify(cell) for cell in column]


def format_columns(
    headers: Sequence[str], columns: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render ``columns`` (one sequence of cells per header) as an aligned table.

    Every cell is left-justified to its column's width, the widest of the
    header and the cells' text; columns are separated by two spaces.
    """
    if len(columns) != len(headers):
        raise ValueError("column count does not match header count")
    height = len(columns[0]) if columns else 0
    if any(len(column) != height for column in columns):
        raise ValueError("columns differ in length")
    texts = [_column_texts(column) for column in columns]
    widths = [
        max(len(str(header)), max(map(len, column), default=0))
        for header, column in zip(headers, texts)
    ]
    lines: List[str] = [title] if title else []
    lines.append("  ".join(str(header).ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    if height:
        # One row template for every row, filled with the texts in row order.
        row_major: List[object] = [None] * (height * len(texts))
        for index, column in enumerate(texts):
            row_major[index :: len(texts)] = column
        row = "  ".join(f"%-{width}s" for width in widths)
        lines.append("\n".join([row] * height) % tuple(row_major))
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("row length does not match header length")
    columns = [[row[index] for row in rows] for index in range(len(headers))]
    return format_columns(headers, columns, title)


def transpose_rows(rows: Sequence[Sequence[object]]) -> List[List[object]]:
    """Transpose a rectangular list of rows (utility for series-major figures)."""
    if not rows:
        return []
    length = len(rows[0])
    if any(len(row) != length for row in rows):
        raise ValueError("rows must be rectangular")
    return [[row[i] for row in rows] for i in range(length)]
