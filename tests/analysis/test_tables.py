"""Tests for the plain-text table formatter."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.tables import format_columns, format_table, transpose_rows


def test_format_table_contains_headers_and_cells():
    table = format_table(["a", "b"], [[1, 2], [3, 4]])
    assert "a" in table and "b" in table
    assert "1" in table and "4" in table


def test_format_table_title_on_first_line():
    table = format_table(["x"], [[1]], title="My Title")
    assert table.splitlines()[0] == "My Title"


def test_format_table_columns_aligned():
    table = format_table(["name", "v"], [["long-name", 1], ["x", 22]])
    lines = table.splitlines()
    # Separator row has the same width as the header row.
    assert len(lines[1]) == len(lines[0])


def test_format_table_float_formatting():
    table = format_table(["v"], [[0.123456]])
    assert "0.123" in table


def test_format_table_large_float_uses_scientific():
    table = format_table(["v"], [[1.5e9]])
    assert "e+09" in table


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_format_table_empty_rows_ok():
    table = format_table(["a"], [])
    assert "a" in table


def test_transpose_rows():
    assert transpose_rows([[1, 2], [3, 4], [5, 6]]) == [[1, 3, 5], [2, 4, 6]]


def test_transpose_rows_empty():
    assert transpose_rows([]) == []


def test_transpose_rows_rejects_ragged():
    with pytest.raises(ValueError):
        transpose_rows([[1, 2], [3]])


# ---------------------------------------------------- column-wise formatter

#: Floats on and around every rule of the cell format: zero of either sign,
#: both sides of the 0.001 and 1000 thresholds, a value that rounds up to
#: 1000.000, and the non-finite ones.
EDGE_FLOATS = [
    0.0, -0.0, 0.000999, 0.001, 0.0010001, -0.001, 999.999, 999.9995, -999.9995,
    1000.0, 1000.0001, -1000.0, math.nan, math.inf, -math.inf,
]

CELLS = st.one_of(
    st.text(max_size=10),
    st.just(""),
    st.integers(),
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
)


def _reference_cell(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def _reference_table(headers, rows, title=""):
    """The row-by-row rendering, one cell at a time."""
    str_rows = [[_reference_cell(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title] if title else []
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=1, max_value=5))
    headers = draw(st.lists(st.text(max_size=8), min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=8))
    return headers, rows, draw(st.text(max_size=10))


@given(tables())
def test_format_table_matches_the_per_cell_reference(table):
    headers, rows, title = table
    expected = _reference_table(headers, rows, title)
    assert format_table(headers, rows, title) == expected
    columns = [[row[index] for row in rows] for index in range(len(headers))]
    assert format_columns(headers, columns, title) == expected


@given(tables(), st.data())
def test_format_table_rejects_a_row_of_another_length(table, data):
    headers, rows, title = table
    bad = data.draw(st.lists(CELLS, max_size=7).filter(lambda row: len(row) != len(headers)))
    position = data.draw(st.integers(min_value=0, max_value=len(rows)))
    with pytest.raises(ValueError):
        format_table(headers, rows[:position] + [bad] + rows[position:], title)


def test_format_columns_rejects_ragged_or_missing_columns():
    with pytest.raises(ValueError):
        format_columns(["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError):
        format_columns(["a", "b"], [[1, 2]])


# ------------------------------------------------ typed, column-at-a-time path


def _around(value):
    return [math.nextafter(value, -math.inf), value, math.nextafter(value, math.inf)]


#: Floats at every boundary of the cell format, with both signs: the 0.001
#: and 1000 thresholds, the value that rounds up to 1000.000, signed zeros,
#: the subnormal range and the non-finite values.
TYPED_EDGES = [
    sign * value
    for sign in (1.0, -1.0)
    for value in (
        _around(0.001) + _around(1000.0) + _around(999.9995)
        + [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
        + [math.inf, math.nan]
    )
]


def _from_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


FLOAT_CELLS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1).map(_from_bits),
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
    st.sampled_from(TYPED_EDGES),
)


class Label(str):
    """A ``str`` subclass: its columns convert cell by cell."""

    def __str__(self):
        return f"<{str.__str__(self)}>"


#: One strategy per column type: every cell of a drawn column has that type.
COLUMN_CELLS = {
    "float": FLOAT_CELLS,
    "str": st.one_of(st.just(""), st.text(max_size=6)),
    "str and subclass": st.one_of(st.just(""), st.text(max_size=6), st.text(max_size=6).map(Label)),
    "int": st.integers(),
    "bool": st.booleans(),
    "np.float64": FLOAT_CELLS.map(np.float64),
    "mixed": CELLS,
}


@st.composite
def typed_tables(draw):
    """Columns of one type each, as short as an experiment table or as long as a sweep's."""
    height = draw(st.sampled_from([0, 1, 2, 12, 36, 48, 101]))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), min_size=1, max_size=4))
    columns = [
        draw(st.lists(COLUMN_CELLS[kind], min_size=height, max_size=height)) for kind in kinds
    ]
    headers = draw(st.lists(st.text(max_size=8), min_size=len(kinds), max_size=len(kinds)))
    return headers, columns, draw(st.text(max_size=10))


@given(typed_tables())
def test_typed_columns_match_the_per_cell_reference(table):
    headers, columns, title = table
    rows = [list(row) for row in zip(*columns)]
    assert format_columns(headers, columns, title) == _reference_table(headers, rows, title)


def test_long_float_columns_format_like_the_per_cell_rule():
    bits = np.random.default_rng(0).integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
    column = TYPED_EDGES + bits.view(np.float64).tolist()
    expected = _reference_table(["value"], [[value] for value in column])
    assert format_columns(["value"], [column]) == expected
