"""Exact walk-count tables for strips of m rows.

A walk starts in any cell of the first column and advances one column per
step, moving to the same row or an adjacent one, never leaving the strip.
The number of walks ending at a cell therefore satisfies

    cell(x+1, y) = cell(x, y-1) + cell(x, y) + cell(x, y+1)

with zero terms outside the strip, and the first column is all ones.

``build_table`` fills the grid by dynamic programming with arbitrary
precision integers.  ``enumerate_paths`` recounts a single cell by an
explicit depth-first walk over the step set; it is deliberately independent
of the recurrence and serves as the brute-force cross-check.

Indices are 1-based throughout the public surface: columns run x = 1..n_max
and rows y = 1..m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, DomainError

# Row offsets of the step set; every step advances exactly one column.
STEPS = (-1, 0, 1)

DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class ReducedColumn:
    """Top half of one column: entries y = 1..ceil(m/2)."""

    m: int
    n: int
    entries: tuple[int, ...]


@dataclass(frozen=True)
class PathTable:
    """Immutable m x n_max grid of exact walk counts."""

    m: int
    n_max: int
    columns: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        """Number of independent rows, ceil(m/2)."""
        return (self.m + 1) // 2

    def cell(self, x: int, y: int) -> int:
        if not 1 <= x <= self.n_max:
            raise DomainError(f"column {x} outside 1..{self.n_max}")
        if not 1 <= y <= self.m:
            raise DomainError(f"row {y} outside 1..{self.m}")
        return self.columns[x - 1][y - 1]

    def column(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"column {n} outside 1..{self.n_max}")
        return self.columns[n - 1]

    def row(self, y: int) -> tuple[int, ...]:
        if not 1 <= y <= self.m:
            raise DomainError(f"row {y} outside 1..{self.m}")
        return tuple(col[y - 1] for col in self.columns)

    def column_sum(self, n: int) -> int:
        return sum(self.column(n))

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in self.columns)

    def reduced_column(self, n: int) -> ReducedColumn:
        return ReducedColumn(self.m, n, self.column(n)[: self.k])


def build_table(m: int, n_max: int) -> PathTable:
    """Fill the m x n_max count table by the column recurrence."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
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
    return PathTable(m, n_max, tuple(columns))


def enumerate_paths(m: int, target: tuple[int, int],
                    node_budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Count walks ending at ``target`` by explicit depth-first search.

    Walks are generated one at a time from every first-column start cell;
    nothing is shared between them, so the count is an independent check on
    the dynamic programming table.  Prefixes that provably cannot reach the
    target column-row are pruned, which changes the work done but not the
    count.  Raises BudgetExceededError once more than ``node_budget`` states
    have been visited.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    x, y = target
    if x < 1:
        raise DomainError(f"target column {x} outside 1..")
    if not 1 <= y <= m:
        raise DomainError(f"target row {y} outside 1..{m}")
    count = 0
    visited = 0
    for y0 in range(1, m + 1):
        if abs(y - y0) > x - 1:
            continue
        stack = [(1, y0)]
        while stack:
            cx, cy = stack.pop()
            visited += 1
            if visited > node_budget:
                raise BudgetExceededError(
                    f"node budget {node_budget} exceeded while counting {target}")
            if cx == x:
                if cy == y:
                    count += 1
                continue
            for dy in STEPS:
                ny = cy + dy
                if 1 <= ny <= m and abs(y - ny) <= x - cx - 1:
                    stack.append((cx + 1, ny))
    return count


def verify_oracle(m_max: int = 6, x_max: int = 10,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> str | None:
    """Compare the DP table against the depth-first count, cell by cell.

    Returns None when everything agrees, else a description of the first
    disagreement.
    """
    for m in range(1, m_max + 1):
        table = build_table(m, x_max)
        for x in range(1, x_max + 1):
            for y in range(1, m + 1):
                direct = enumerate_paths(m, (x, y), node_budget)
                if direct != table.cell(x, y):
                    return (f"m={m} cell({x},{y}): table {table.cell(x, y)} "
                            f"!= enumeration {direct}")
    return None
