"""Exact walk-count tables for strips of m rows.

A walk starts in any cell of the first column and advances one column per
step, moving to the same row or an adjacent one, never leaving the strip.
The number of walks ending at a cell therefore satisfies

    cell(x+1, y) = cell(x, y-1) + cell(x, y) + cell(x, y+1)

with zero terms outside the strip, and the first column is all ones.

``build_table`` fills the grid by dynamic programming with arbitrary
precision integers.  The brute-force cross-check, deliberately independent
of the recurrence, enumerates every walk of a strip, one character per walk
(the walk's end row), column by column: a block of walks moves one column
on as the block translated one row down, the block itself and the block
translated one row up, each translation a one-to-one ``str.translate``
table, and ``str.count`` counts the walks ending in each cell.  Every walk
counts once for the cell where it ends, and the node budget caps the walks
enumerated in one strip.

``table_strings`` is where table text comes from.  It runs the same
recurrence on the k = ceil(m/2) independent rows (rows y and m+1-y are
equal) in ``decimal`` under an exact context, because converting an int to
decimal digits takes quadratic time and converting a Decimal takes linear
time.  The first top rows, as many as fit a fixed digit budget, become
text as each column is made; the rest stay Decimal and are converted at
each of their two emissions.  A second route, the unfolded recurrence over
all m rows on residues mod 10**9, checks every string it hands out.  It
packs each column into one int of m 64-bit slots, so a column costs a few
big-int operations.  A row is checked by parsing the last nine digits of
each cell, and the mirror of a text row, whose strings have matched its
partner's residues, by comparing the two rows' residues.

Indices are 1-based throughout the public surface: columns run x = 1..n_max
and rows y = 1..m.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Overflow,
                     Rounded, localcontext)
from functools import cached_property
from itertools import repeat
from operator import itemgetter

from .errors import BudgetExceededError, DomainError, InternalInconsistencyError

DEFAULT_NODE_BUDGET = 10**8

# Sums of integers stay exact here; any rounding or overflow raises instead.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX,
                 traps=[Inexact, Rounded, Overflow])
_CHECK_MODULUS = 10**9
_LAST_9 = itemgetter(slice(-9, None))
# Digits of the top rows made text as their columns are made, judged by a
# bound: all top rows up to about 64 x 2900; past that the rest stay
# Decimal, which keeps 64 x 10000 (1.5 G digits) well under 1 GB.
_KEPT_CHARS = 2**26
_LOG10_3 = math.log10(3)
# Cells per chunk of a written row: 1 to 2 MB of text at the n ceiling.
ROW_BLOCK = 400
# Walks per block of the enumeration; a column's walks beyond it are split.
_BLOCK = 2**12


@dataclass(frozen=True)
class PathTable:
    """Immutable m x n_max grid of exact walk counts, stored by rows."""

    m: int
    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.m or any(len(r) != self.n_max
                                           for r in self.rows):
            raise DomainError(
                f"a table needs {self.m} rows of {self.n_max} cells")

    @property
    def k(self) -> int:
        """Number of independent rows, ceil(m/2)."""
        return (self.m + 1) // 2

    def cell(self, x: int, y: int) -> int:
        if not 1 <= x <= self.n_max:
            raise DomainError(f"column {x} outside 1..{self.n_max}")
        if not 1 <= y <= self.m:
            raise DomainError(f"row {y} outside 1..{self.m}")
        return self.rows[y - 1][x - 1]

    def column(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"column {n} outside 1..{self.n_max}")
        return tuple(r[n - 1] for r in self.rows)

    def row(self, y: int) -> tuple[int, ...]:
        if not 1 <= y <= self.m:
            raise DomainError(f"row {y} outside 1..{self.m}")
        return self.rows[y - 1]

    def column_sums(self) -> tuple[int, ...]:
        """The sum of each column, computed once per table."""
        return self._column_sums

    @cached_property
    def _column_sums(self) -> tuple[int, ...]:
        # Kept in the instance __dict__, which equality and hashing never read.
        return tuple(map(sum, zip(*self.rows)))


def _check_size(m: int, n_max: int) -> None:
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")


def build_table(m: int, n_max: int) -> PathTable:
    """Fill the m x n_max count table by the column recurrence, then store
    its rows."""
    _check_size(m, n_max)
    columns = [tuple(1 for _ in range(m))]
    for _ in range(n_max - 1):
        prev = columns[-1]
        nxt = []
        for y in range(m):
            total = prev[y]
            if y > 0:
                total += prev[y - 1]
            if y + 1 < m:
                total += prev[y + 1]
            nxt.append(total)
        columns.append(tuple(nxt))
    return PathTable(m, n_max, tuple(zip(*columns)))


def table_strings(m: int, n_max: int
                  ) -> tuple[tuple[str, ...], Iterator[list[str]]]:
    """Decimal digits of the m x n_max table: its column sums, and a
    generator of its m rows, each a list of n_max cell strings.

    Every string is checked against the residue route before it is handed
    out; a mismatch raises InternalInconsistencyError.  The generator frees
    the rows it has passed, so peak memory is about the text rows, at most
    _KEPT_CHARS digits, plus the rest as Decimals: a json 62 x 2220 table,
    all 31 top rows text (36.4 M digits), peaks at 60 MB of RSS.
    """
    _check_size(m, n_max)
    top, sums = _decimal_top_rows(m, n_max)
    residue_rows, residue_sums = _residue_rows(m, n_max)
    sum_strings = tuple(map(str, sums))
    _check_residues("column sums", sum_strings, residue_sums)
    return sum_strings, _row_strings(m, top, residue_rows)


def joined_blocks(cells: Sequence[str], sep: str,
                  width: int = 0) -> Iterator[str]:
    """sep.join(cells), each cell right-aligned to ``width``, as chunks of
    at most ROW_BLOCK cells, with each separator between two blocks a chunk
    of its own: a writer copies no more than a block at a time, however
    long the row."""
    for start in range(0, len(cells), ROW_BLOCK):
        if start:
            yield sep
        block = cells[start:start + ROW_BLOCK]
        yield sep.join(map(str.rjust, block, repeat(width)) if width else block)


def _decimal_top_rows(m: int, n_max: int) -> tuple[list[list], list[Decimal]]:
    """Rows 1..k and the column sums.  The first j rows, as many as fit
    _KEPT_CHARS, hold each cell's string, made with its column."""
    # A cell of column x + 1 is at most 3**x, of int(x log10 3) + 1 digits.
    row_digits = sum(int(x * _LOG10_3) + 1 for x in range(n_max))
    rows: list[list] = [[] for _ in range((m + 1) // 2)]
    j = min(len(rows), _KEPT_CHARS // row_digits)
    sums = []
    for column, total in _decimal_columns(m, n_max):
        for row, value in zip(rows, [*map(str, column[:j]), *column[j:]]):
            row.append(value)
        sums.append(total)
    return rows, sums


def _decimal_columns(m: int, n_max: int) -> Iterator[tuple[list, Decimal]]:
    """Columns 1..n_max of rows 1..k with their column sums, by the column
    recurrence folded at the row symmetry: row k's missing neighbour k + 1
    is row k when m is even and row k - 1 when m is odd."""
    k = (m + 1) // 2
    column, total = [Decimal(1)] * k, Decimal(m)
    for x in range(n_max):
        if x and m > 1:
            # Entered per column, so the caller never runs under it.
            with localcontext(_EXACT):
                # Rows 1 and m each feed two cells, every other row three.
                total = 3 * total - 2 * column[0]
                padded = [Decimal(0), *column, column[k - 1 - m % 2]]
                column = [a + b + c for a, b, c
                          in zip(padded, padded[1:], padded[2:])]
        yield column, total


def _residue_rows(m: int, n_max: int) -> tuple[list[memoryview], list[int]]:
    """Every row and the column sums mod 10**9, by the unfolded recurrence:
    the independent route that ``table_strings`` checks against.

    A column is one int of m 64-bit slots, slot y holding row y + 1.  Its
    successor is the column plus itself shifted one slot either way; each
    slot then holds less than 3 * 10**9 < 2**32, so adding 2**40 - 10**9 to
    it sets its bit 40 exactly when it is at least 10**9, and two such
    conditional subtractions reduce every slot at once.  The columns are
    written one after another into one buffer of native 64-bit words, read
    back as row y = words[y::m] and column x = words[x*m:(x+1)*m].  On a
    big-endian host the slots of each column come out in reverse order,
    which the row symmetry makes the same rows.
    """
    one = int.from_bytes(bytes([1, 0, 0, 0, 0, 0, 0, 0]) * m, "little")
    low = (1 << 64 * m) - 1
    flag = ((1 << 40) - _CHECK_MODULUS) * one
    column = one
    data = bytearray(column.to_bytes(8 * m, sys.byteorder))
    for _ in range(n_max - 1):
        column = (column + (column << 64) + (column >> 64)) & low
        column -= ((column + flag) >> 40 & one) * _CHECK_MODULUS
        column -= ((column + flag) >> 40 & one) * _CHECK_MODULUS
        data += column.to_bytes(8 * m, sys.byteorder)
    words = memoryview(data).cast("Q")
    return ([words[y::m] for y in range(m)],
            [sum(words[i:i + m]) % _CHECK_MODULUS
             for i in range(0, m * n_max, m)])


def _row_strings(m: int, top: list[list | None],
                 residue_rows: list[memoryview]) -> Iterator[list[str]]:
    """Rows y and m + 1 - y are the same top row i.  A text row is checked
    at its first emission, and its mirror, whose strings have matched row
    i's residues, by comparing its residues with row i's.  A Decimal row is
    converted and checked at each of its emissions."""
    for y in range(m):
        i = min(y, m - 1 - y)
        strings = top[i]
        if y >= m - 1 - y:
            top[i] = None
        text = isinstance(strings[0], str)
        if text and y > i:
            if residue_rows[y] != residue_rows[i]:
                raise _mismatch(f"row {y + 1}")
        else:
            if not text:
                strings = list(map(str, strings))
            _check_residues(f"row {y + 1}", strings, residue_rows[y])
        yield strings


def _check_residues(what: str, strings: list[str], residues) -> None:
    if list(map(int, map(_LAST_9, strings))) != list(residues):
        raise _mismatch(what)


def _mismatch(what: str) -> InternalInconsistencyError:
    return InternalInconsistencyError(
        f"{what}: decimal digits disagree with the residues mod 10**9")


def enumerate_paths(m: int, target: tuple[int, int],
                    node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Count walks ending at ``target`` by enumerating them one by one.

    The count is read from one enumeration of the strip up to the target's
    column, so ``node_budget`` caps the walks of that whole strip: more
    raise BudgetExceededError, and a negative budget DomainError.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    x, y = target
    if x < 1:
        raise DomainError(f"target column {x} outside 1..")
    if not 1 <= y <= m:
        raise DomainError(f"target row {y} outside 1..{m}")
    return _walk_counts(m, x, node_budget)[y - 1][x - 1]


def _walk_counts(m: int, x_max: int, node_budget: int) -> list[list[int]]:
    """Entry [y - 1][x - 1] counts the walks of the m-row strip that end at
    (x, y), x <= x_max.

    A walk is the character chr(y - 1) of its end row.  Column 1 holds one
    walk per row.  A string of walks moves one column on as itself
    translated one row down, itself, and itself translated one row up.
    Each table maps one character to one or drops it (the walks that would
    leave the strip), so for m <= 128 CPython runs it on its ASCII fast
    path, dozens of times faster than a table mapping a character to
    several.  Blocks of at most _BLOCK walks are taken depth-first, so at
    most about 3 * _BLOCK * x_max characters wait at any time, whatever the
    budget.  Every column holds at least m walks, so a budget below
    m * x_max fails before any enumeration.
    """
    if node_budget < 0:
        raise DomainError(f"node budget must be >= 0, got {node_budget}")
    exceeded = BudgetExceededError(f"node budget {node_budget} exceeded "
                                   f"in strip m={m} up to column {x_max}")
    if m * x_max > node_budget:
        raise exceeded
    rows = [chr(y) for y in range(m)]
    # Row y to y - 1 and to y + 1; the row that would leave the strip goes.
    down, up = [None, *range(m - 1)], [*range(1, m), None]
    columns = [[0] * m for _ in range(x_max)]
    pending = [("".join(rows), 0)]
    walks = 0
    while pending:
        block, x = pending.pop()
        walks += len(block)
        if walks > node_budget:
            raise exceeded
        column = columns[x]
        for y, row in enumerate(rows):
            column[y] += block.count(row)
        if x + 1 < x_max:
            block = block.translate(down) + block + block.translate(up)
            pending += [(block[i:i + _BLOCK], x + 1)
                        for i in range(0, len(block), _BLOCK)]
    return [list(row) for row in zip(*columns)]


def verify_oracle(table: PathTable, x_max: int = 10,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> str | None:
    """Compare the table's first x_max columns against one walk enumeration
    of its strip, with ``node_budget`` capping the walks enumerated.  Returns
    None when they agree, else a description of the first disagreement."""
    counts = _walk_counts(table.m, x_max, node_budget)
    for x, counted in enumerate(zip(*counts), 1):
        for y, (cell, walks) in enumerate(zip(table.column(x), counted), 1):
            if cell != walks:
                return (f"m={table.m} cell({x},{y}): table {cell}"
                        f" != enumeration {walks}")
    return None
