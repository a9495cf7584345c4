import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablepaths import pathtable
from tablepaths.errors import (BudgetExceededError, DomainError,
                               InternalInconsistencyError)
from tablepaths.pathtable import (
    PathTable,
    _walk_counts,
    build_table,
    enumerate_paths,
    table_strings,
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
    assert table.column_sums()[3] == 95


def test_reduced_column_keeps_top_half():
    table = build_table(5, 5)
    assert table.k == 3
    assert table.column(3)[:table.k] == (5, 8, 9)
    assert table.column(5)[:table.k] == (35, 60, 69)


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
    for m in range(1, 5):
        assert verify_oracle(build_table(m, 8), x_max=8) is None


def test_oracle_fails_where_a_wrong_cell_is():
    cells = [list(row) for row in build_table(3, 14).rows]
    cells[0][2] += 1
    table = PathTable(3, 14, tuple(map(tuple, cells)))
    assert verify_oracle(table, 10) == "m=3 cell(3,1): table 6 != enumeration 5"


def test_oracle_rejects_a_table_narrower_than_x_max():
    with pytest.raises(DomainError, match="^column 4 outside 1..3$"):
        verify_oracle(build_table(3, 3), 5)


def test_enumeration_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_paths(6, (10, 3), node_budget=10)


def test_node_budget_caps_the_walks_of_one_strip():
    # One walk per visited state: the strip's walks are its table's cells
    # summed over columns 1..10.
    table = build_table(6, 10)
    walks = sum(map(sum, table.rows))
    assert walks == 90814
    assert verify_oracle(table, 10, node_budget=walks) is None
    assert enumerate_paths(6, (10, 3), node_budget=walks) == table.cell(10, 3)
    with pytest.raises(BudgetExceededError, match=(
            "^node budget 90813 exceeded in strip m=6 up to column 10$")):
        verify_oracle(table, 10, node_budget=walks - 1)
    with pytest.raises(BudgetExceededError):
        enumerate_paths(6, (10, 3), node_budget=walks - 1)


def reference_walk_counts(m, x_max, node_budget):
    """The depth-first search the level enumeration replaced: one stack
    state per walk, each adding 1 to the cell where its walk ends."""
    # State x * m + y is the cell in 0-based column x and row y.
    children = [tuple(s + m + dy for dy in (-1, 0, 1)
                      if 0 <= s % m + dy < m)
                for s in range((x_max - 1) * m)] + [()] * m
    counts = [0] * (x_max * m)
    stack = list(range(m))
    visited = 0
    while stack:
        s = stack.pop()
        visited += 1
        if visited > node_budget:
            raise BudgetExceededError(f"node budget {node_budget} exceeded "
                                      f"in strip m={m} up to column {x_max}")
        counts[s] += 1
        stack.extend(children[s])
    return [counts[y::m] for y in range(m)]


@given(m=st.integers(1, 8), x_max=st.integers(1, 10))
@settings(deadline=None, max_examples=40)
def test_walk_counts_match_the_depth_first_search(m, x_max):
    assert (_walk_counts(m, x_max, 10**6)
            == reference_walk_counts(m, x_max, 10**6))


@given(x_max=st.integers(1, 4))
@settings(deadline=None, max_examples=4)
def test_walk_counts_past_one_byte_rows(x_max):
    # Rows from 256 on are characters above U+00FF.
    assert (_walk_counts(300, x_max, 10**6)
            == reference_walk_counts(300, x_max, 10**6))


@pytest.mark.parametrize("m", [127, 128, 129])
@pytest.mark.parametrize("x_max", [1, 2, 3, 4])
def test_walk_counts_across_the_ascii_edge(m, x_max):
    # Row 128 is chr(127), the last ASCII character; from m = 129 on,
    # str.translate leaves its ASCII fast path.
    assert (_walk_counts(m, x_max, 10**6)
            == reference_walk_counts(m, x_max, 10**6))


@given(m=st.integers(1, 8), x_max=st.integers(1, 9))
@settings(deadline=None, max_examples=40)
def test_node_budget_boundary_is_exact(m, x_max):
    rows = [list(r) for r in build_table(m, x_max).rows]
    walks = sum(map(sum, rows))
    message = (f"^node budget {walks - 1} exceeded in strip m={m} "
               f"up to column {x_max}$")
    for count in (_walk_counts, reference_walk_counts):
        assert count(m, x_max, walks) == rows
        with pytest.raises(BudgetExceededError, match=message):
            count(m, x_max, walks - 1)


def test_walks_split_into_blocks_past_the_block_size(monkeypatch):
    # m = 6 up to column 10 has 90814 walks; 7-walk blocks split every
    # column past the first.
    monkeypatch.setattr(pathtable, "_BLOCK", 7)
    assert _walk_counts(6, 10, 90814) == reference_walk_counts(6, 10, 90814)
    with pytest.raises(BudgetExceededError):
        _walk_counts(6, 10, 90813)


def test_budget_below_one_walk_per_cell_fails_before_enumerating():
    # Every column holds m walks or more, so m * x_max > budget fails at
    # once, without a table of x_max columns.
    for x in (10**6, 10**8):
        with pytest.raises(BudgetExceededError, match=(
                f"^node budget 5 exceeded in strip m=1 up to column {x}$")):
            enumerate_paths(1, (x, 1), node_budget=5)
    with pytest.raises(BudgetExceededError):
        enumerate_paths(3, (4, 1), node_budget=11)


def test_negative_node_budget_is_rejected():
    with pytest.raises(DomainError):
        enumerate_paths(1, (1, 1), node_budget=-1)
    assert enumerate_paths(1, (1, 1), node_budget=1) == 1


def test_out_of_range_cell_rejected():
    table = build_table(4, 3)
    with pytest.raises(DomainError):
        table.cell(0, 1)
    with pytest.raises(DomainError):
        table.cell(1, 5)
    with pytest.raises(DomainError):
        table.cell(4, 1)


def test_table_stores_m_rows_of_n_max_cells():
    assert build_table(3, 2).rows == ((1, 2), (1, 3), (1, 2))
    with pytest.raises(DomainError):
        PathTable(3, 2, ((1, 2, 5), (1, 3, 7), (1, 2, 5)))
    with pytest.raises(DomainError):
        PathTable(3, 2, ((1, 1, 1), (2, 3, 2)))


def test_bad_dimensions_rejected():
    for make in (build_table, table_strings):
        with pytest.raises(DomainError):
            make(0, 3)
        with pytest.raises(DomainError):
            make(3, 0)


def test_table_strings_are_the_digits_of_the_int_table():
    # m = 1 and m = 2 fold onto one row that has no partner row.
    for m in range(1, 13):
        for n in range(1, 61):
            table = build_table(m, n)
            sums, rows = table_strings(m, n)
            assert sums == tuple(map(str, table.column_sums())), (m, n)
            assert list(rows) == [list(map(str, r)) for r in table.rows], (m, n)


def corrupt_decimal_cell(monkeypatch, row, column):
    """Add 1 to one Decimal cell as its column is made, before any string
    is made from it; the later columns are made from the true cell."""
    decimal_columns = pathtable._decimal_columns

    def corrupted(m, n_max):
        for x, (cells, total) in enumerate(decimal_columns(m, n_max)):
            if x == column:
                cells = list(cells)
                cells[row] += 1
            yield cells, total

    monkeypatch.setattr(pathtable, "_decimal_columns", corrupted)


# With the default budget every top row here is text, so the corrupted cell
# is made a string with its column; with nothing kept its row stays Decimal
# and is converted at each emission.
@pytest.mark.parametrize("m, row, column", [
    (1, 0, 4), (2, 0, 9), (5, 2, 3), (6, 1, 7), (6, 2, 11), (9, 0, 1)])
def test_corrupted_decimal_cell_is_caught(monkeypatch, m, row, column):
    corrupt_decimal_cell(monkeypatch, row, column)
    sums, rows = table_strings(m, 12)
    passed = []
    with pytest.raises(InternalInconsistencyError, match=f"row {row + 1}:"):
        for strings in rows:
            passed.append(strings)
    # Rows are checked before they are handed out.
    assert len(passed) == row


def test_corrupted_decimal_sum_is_caught(monkeypatch):
    decimal_top_rows = pathtable._decimal_top_rows

    def corrupted(m, n_max):
        rows, sums = decimal_top_rows(m, n_max)
        sums[-1] -= 10**9 + 1
        return rows, sums

    monkeypatch.setattr(pathtable, "_decimal_top_rows", corrupted)
    with pytest.raises(InternalInconsistencyError, match="column sums"):
        table_strings(7, 30)


def reference_residue_rows(m, n_max):
    """The list route the packed residue columns replaced: every row and
    the column sums mod 10**9, one int per cell."""
    column = [1] * m
    columns = [column]
    for _ in range(n_max - 1):
        padded = [0, *column, 0]
        column = [(a + b + c) % 10**9
                  for a, b, c in zip(padded, padded[1:], padded[2:])]
        columns.append(column)
    return [list(r) for r in zip(*columns)], [sum(c) % 10**9 for c in columns]


def packed_residue_rows(m, n_max):
    rows, sums = pathtable._residue_rows(m, n_max)
    return [r.tolist() for r in rows], sums


@pytest.mark.parametrize("n", [1, 2, 3, 50, 301])
def test_packed_residue_rows_match_the_list_route(n):
    for m in range(1, 65):
        assert packed_residue_rows(m, n) == reference_residue_rows(m, n), m


@given(m=st.integers(1, 70), n=st.integers(1, 400))
@settings(deadline=None, max_examples=60)
def test_packed_residue_rows_match_the_list_route_anywhere(m, n):
    assert packed_residue_rows(m, n) == reference_residue_rows(m, n)


def corrupt_residue_slot(monkeypatch, row, column):
    residue_rows = pathtable._residue_rows

    def corrupted(m, n_max):
        rows, sums = residue_rows(m, n_max)
        rows[row][column] += 1
        return rows, sums

    monkeypatch.setattr(pathtable, "_residue_rows", corrupted)


# Each row is past its partner m - 1 - row, whose strings it reuses while
# they are kept; with nothing kept it converts its Decimals again.
@pytest.mark.parametrize("kept_chars", [pathtable._KEPT_CHARS, 0])
@pytest.mark.parametrize("m, row, column", [
    (2, 1, 5), (5, 3, 2), (6, 4, 7), (9, 8, 0), (9, 5, 11)])
def test_corrupted_mirror_residue_is_caught(monkeypatch, kept_chars, m, row,
                                            column):
    monkeypatch.setattr(pathtable, "_KEPT_CHARS", kept_chars)
    corrupt_residue_slot(monkeypatch, row, column)
    sums, rows = table_strings(m, 12)
    passed = []
    with pytest.raises(InternalInconsistencyError, match=f"^row {row + 1}:"):
        for strings in rows:
            passed.append(strings)
    table = build_table(m, 12)
    assert passed == [list(map(str, r)) for r in table.rows[:row]]


def test_mirror_rows_converted_again_are_the_digits(monkeypatch):
    monkeypatch.setattr(pathtable, "_KEPT_CHARS", 0)
    for m in range(1, 10):
        for n in (1, 2, 40):
            table = build_table(m, n)
            sums, rows = table_strings(m, n)
            assert list(rows) == [list(map(str, r)) for r in table.rows]


@pytest.mark.parametrize("m, row, column", [(2, 0, 9), (6, 2, 11), (9, 0, 1)])
def test_corrupted_decimal_is_caught_with_nothing_kept(monkeypatch, m, row,
                                                       column):
    monkeypatch.setattr(pathtable, "_KEPT_CHARS", 0)
    test_corrupted_decimal_cell_is_caught(monkeypatch, m, row, column)


def digits_of_powers_of_3(n):
    """The exact bound on a row's digits: sum of the digits of 3**x for
    x < n, a cell of column x + 1 being at most 3**x."""
    power, ten, digits, total = 1, 10, 1, 0
    for _ in range(n):
        while power >= ten:
            ten, digits = ten * 10, digits + 1
        total += digits
        power *= 3
    return total


@given(m=st.integers(3, 64), n=st.integers(1, 400), data=st.data())
@settings(deadline=None, max_examples=40)
def test_text_rows_fit_the_digit_budget(m, n, data):
    k = (m + 1) // 2
    bound = digits_of_powers_of_3(n)
    j = data.draw(st.integers(1, k - 1), label="text rows")
    kept_chars = data.draw(st.integers(j * bound, (j + 1) * bound - 1),
                           label="_KEPT_CHARS")
    table = build_table(m, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pathtable, "_KEPT_CHARS", kept_chars)
        top, _ = pathtable._decimal_top_rows(m, n)
        sums, rows = table_strings(m, n)
        assert list(rows) == [list(map(str, r)) for r in table.rows]
    assert sums == tuple(map(str, table.column_sums()))
    # The first j top rows are text, the rest Decimal.
    text = [isinstance(row[0], str) for row in top]
    assert text == [True] * j + [False] * (k - j)
    assert sum(len(cell) for row in top[:j] for cell in row) <= kept_chars
    for row in table.rows[:k]:
        assert sum(len(str(cell)) for cell in row) <= bound


def test_text_rows_fit_the_digit_budget_at_large_n(monkeypatch):
    # The float bound of the module against the exact one, at the budget's
    # edge, where one digit too few or too many changes the row count.
    for n in (1000, 2220, 3001):
        bound = digits_of_powers_of_3(n)
        for kept_chars, j in ((bound - 1, 0), (bound, 1)):
            monkeypatch.setattr(pathtable, "_KEPT_CHARS", kept_chars)
            top, _ = pathtable._decimal_top_rows(3, n)
            text = [isinstance(row[0], str) for row in top]
            assert text == [True] * j + [False] * (2 - j), (n, kept_chars)


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
