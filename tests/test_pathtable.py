import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablepaths.errors import BudgetExceededError, DomainError
from tablepaths.pathtable import (
    PathTable,
    build_table,
    enumerate_paths,
    verify_oracle,
)
from tablepaths.docs import parse_document, render_document


def test_first_column_is_all_ones():
    table = build_table(6, 4)
    assert table.column(1) == (1, 1, 1, 1, 1, 1)


def test_three_row_table_matches_hand_computation():
    table = build_table(3, 4)
    assert table.column(1) == (1, 1, 1)
    assert table.column(2) == (2, 3, 2)
    assert table.column(3) == (5, 7, 5)
    assert table.column(4) == (12, 17, 12)
    assert table.column_sums() == (3, 7, 17, 41)


def test_seven_row_table_upper_rows():
    table = build_table(7, 5)
    assert table.row(1) == (1, 2, 5, 13, 35)
    assert table.row(2) == (1, 3, 8, 22, 61)
    assert table.row(3) == (1, 3, 9, 26, 75)
    assert table.row(4) == (1, 3, 9, 27, 79)


def test_five_row_table_column_and_sum():
    table = build_table(5, 4)
    assert table.column(4) == (13, 22, 25, 22, 13)
    assert table.column_sum(4) == 95


def test_reduced_column_keeps_top_half():
    table = build_table(5, 5)
    assert table.reduced_column(3).entries == (5, 8, 9)
    assert table.reduced_column(5).entries == (35, 60, 69)
    assert table.k == 3


def test_cell_recurrence_holds_inside_table():
    table = build_table(6, 8)
    for x in range(1, 8):
        for y in range(1, 7):
            below = table.cell(x, y - 1) if y > 1 else 0
            above = table.cell(x, y + 1) if y < 6 else 0
            assert table.cell(x + 1, y) == below + table.cell(x, y) + above


@given(m=st.integers(1, 9), n=st.integers(1, 12))
def test_rows_are_symmetric(m, n):
    table = build_table(m, n)
    for y in range(1, m + 1):
        assert table.row(y) == table.row(m + 1 - y)


@given(m=st.integers(1, 5), x=st.integers(1, 7))
@settings(deadline=None, max_examples=30)
def test_count_agrees_with_direct_enumeration(m, x):
    table = build_table(m, x)
    for y in range(1, m + 1):
        assert enumerate_paths(m, (x, y)) == table.cell(x, y)


def test_oracle_sweep_reports_no_disagreement():
    assert verify_oracle(m_max=4, x_max=8) is None


def test_enumeration_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_paths(6, (10, 3), node_budget=10)


def test_out_of_range_cell_rejected():
    table = build_table(4, 3)
    with pytest.raises(DomainError):
        table.cell(0, 1)
    with pytest.raises(DomainError):
        table.cell(1, 5)
    with pytest.raises(DomainError):
        table.cell(4, 1)


def test_bad_dimensions_rejected():
    with pytest.raises(DomainError):
        build_table(0, 3)
    with pytest.raises(DomainError):
        build_table(3, 0)


def test_table_document_round_trip():
    table = build_table(5, 6)
    doc = render_document(table)
    assert parse_document(doc) == table
    assert render_document(parse_document(doc)) == doc


def test_table_cells_serialize_as_strings():
    text = render_document(build_table(2, 3))
    doc = json.loads(text)
    assert doc["kind"] == "path_table"
    assert all(isinstance(v, str) for row in doc["cells"] for v in row)
    assert parse_document(text) == build_table(2, 3)
