"""Plain-text table formatting for experiment reports.

The experiment drivers print the same rows/series the paper's tables and
figures report; this module renders them as aligned monospace tables so the
benchmark harness output is readable in a terminal and in EXPERIMENTS.md.
Tables are formatted column by column: each column's cells are converted to
text in one pass and padded to one width.
"""

from __future__ import annotations

from typing import List, Sequence


def _stringify(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


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
    header_cells: List[str] = []
    rules: List[str] = []
    padded: List[List[str]] = []
    for header, column in zip(headers, columns):
        if len(column) != height:
            raise ValueError("columns differ in length")
        texts = [_stringify(cell) for cell in column]
        width = max(len(str(header)), max(map(len, texts), default=0))
        header_cells.append(str(header).ljust(width))
        rules.append("-" * width)
        padded.append([text.ljust(width) for text in texts])
    lines: List[str] = [title] if title else []
    lines.append("  ".join(header_cells))
    lines.append("  ".join(rules))
    lines.extend(map("  ".join, zip(*padded)))
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
