from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablepaths import pathtable, recurrence
from tablepaths.deltaops import (DeltaPoly, Family, Windows, format_poly,
                                 multiplier, parity_family)
from tablepaths.docs import parse_document, render_document
from tablepaths.errors import DomainError
from tablepaths.pathtable import PathTable, build_table
from tablepaths.recurrence import (
    Recurrence,
    _gauss_jordan,
    _nullspace,
    charpoly,
    det_bareiss,
    det_reduced,
    det_reduced_direct,
    det_reduced_formula,
    minimal_recurrence,
    recurrence_report,
    reduced_matrix,
    row_constant_combinations,
    verify_annihilation,
    verify_charpoly_recursion,
    verify_column_sum_bridge,
    verify_column_sum_formulas,
    verify_constant_combinations,
    verify_determinants,
    verify_minimality,
    verify_polynomial_equivalence,
    verify_row_equivalence,
    verify_table_action,
    verify_transfer,
    verify_window_determinants,
    window_det,
)
from tablepaths.suite import run_suite

# -- matrix templates -----------------------------------------------------------


def test_small_templates_match_hand_written_forms():
    assert reduced_matrix(1) == ((1,),)
    assert reduced_matrix(3) == ((1, 1), (2, 1))
    assert reduced_matrix(5) == ((1, 1, 0), (1, 1, 1), (0, 2, 1))
    assert reduced_matrix(2) == ((2,),)
    assert reduced_matrix(4) == ((1, 1), (1, 2))
    assert reduced_matrix(6) == ((1, 1, 0), (1, 1, 1), (0, 1, 2))


def test_reduced_matrix_dispatches_on_parity():
    # The fold adds one 1 to row k: on the diagonal for even m, left of it
    # for odd m.
    for m in range(2, 13):
        k = (m + 1) // 2
        extra = [[v - (abs(i - j) <= 1) for j, v in enumerate(row)]
                 for i, row in enumerate(reduced_matrix(m))]
        corner = k - 1 - m % 2
        assert extra[k - 1][corner] == 1, m
        assert sum(map(sum, extra)) == 1, m
    assert reduced_matrix(1) == ((1,),)
    with pytest.raises(DomainError):
        reduced_matrix(0)


def entrywise_reduced_matrix(m):
    """``reduced_matrix`` as it was built before it cut rows from one band:
    abs(i - j) <= 1 tested for every entry."""
    k = (m + 1) // 2
    rows = [[1 if abs(i - j) <= 1 else 0 for j in range(k)] for i in range(k)]
    if m > 1:
        rows[k - 1][k - 1 - m % 2] += 1
    return tuple(tuple(r) for r in rows)


def test_reduced_matrix_equals_the_entrywise_construction():
    for m in range(1, 65):
        assert reduced_matrix(m) == entrywise_reduced_matrix(m), m


@given(m=st.integers(1, 12))
def test_reduced_matrix_advances_reduced_columns(m):
    table = build_table(m, 8)
    mat = reduced_matrix(m)
    k = len(mat)
    for n in range(1, 8):
        cur = table.column(n)[:k]
        nxt = table.column(n + 1)[:k]
        assert tuple(sum(r * c for r, c in zip(row, cur)) for row in mat) == nxt


# -- determinants ----------------------------------------------------------------


def test_bareiss_on_known_matrix():
    assert det_bareiss(((2, 5), (3, 7))) == -1
    assert det_bareiss(((1,),)) == 1
    assert det_bareiss(((0, 1), (1, 0))) == -1


def _cofactor_det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * v * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]))


def _fraction_rank(rows):
    a = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c] / a[rank][c]
            a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def _matrices(rows, cols):
    # Small entries make singular and rank-deficient matrices common.
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@given(st.integers(0, 6).flatmap(lambda n: _matrices(n, n)))
def test_bareiss_matches_cofactor_expansion(rows):
    assert det_bareiss(rows) == _cofactor_det(rows)


@given(st.tuples(st.integers(0, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.tuples(_matrices(*shape), st.just(shape[1]))))
def test_nullspace_and_rank_of_the_elimination(case):
    rows, cols = case
    basis = _nullspace(rows, cols)
    for v in basis:
        assert all(sum(r[j] * v[j] for j in range(cols)) == 0 for r in rows)
    # The last nonzero coordinate of each vector is its free column; there
    # it is 1, and every other basis vector is 0.
    free = [max(j for j in range(cols) if v[j]) for v in basis]
    for i, v in enumerate(basis):
        assert [v[f] for f in free] == [int(i == t) for t in range(len(free))]
    rank = len(_gauss_jordan(rows)[1])
    assert rank == _fraction_rank(rows)
    assert rank + len(basis) == cols


def test_reduced_determinants_small_cases():
    assert [det_reduced(m) for m in range(1, 7)] == [1, 2, -1, 1, -2, -1]


def test_determinant_routes_agree_and_cycle():
    for m in range(1, 40):
        assert det_reduced_direct(m) == det_reduced_formula(m)
    # both parity tracks repeat with period six in k
    odd_track = [det_reduced(2 * k - 1) for k in range(1, 14)]
    even_track = [det_reduced(2 * k) for k in range(1, 14)]
    assert odd_track[:6] == [1, -1, -2, -1, 1, 2]
    assert even_track[:6] == [2, 1, -1, -2, -1, 1]
    assert odd_track[6:12] == odd_track[:6]
    assert even_track[6:12] == even_track[:6]


def test_determinant_sweep():
    assert verify_determinants(48) is None
    for m_max in range(1, 101):
        assert verify_determinants(m_max) is None, m_max


@given(st.integers(0, 6).flatmap(lambda n: _matrices(n, n)))
def test_elimination_pivots_are_leading_minors_until_a_swap(rows):
    _, pivots, minors, swaps = _gauss_jordan(rows)
    clean = min([*swaps, len(pivots),
                 *(t for t, c in enumerate(pivots) if c != t)])
    for t in range(clean + 1):
        assert minors[t] == _cofactor_det([r[:t] for r in rows[:t]]), t
    if clean < len(rows):
        leading = [r[:clean + 1] for r in rows[:clean + 1]]
        assert _cofactor_det(leading) == 0


# (m, row, column, change) of each planted entry of reduced_matrix(m) ->
# the detail of verify_determinants(48), recorded while it eliminated every
# reduced matrix on its own.
PLANTED_ENTRIES = {
    # The top matrix of each parity, whose trailing blocks hold every other
    # matrix of that parity.  The first determinant changes; in the second
    # every smaller matrix leaves the nest, the reversed matrix's first
    # elimination step meets a 0 and swaps rows, and the determinant stays.
    ((48, 0, 0, 1),): 'm=48: elimination 0 != formula 1',
    ((48, 23, 23, -2),): None,
    ((47, 23, 22, -1),): 'm=47: elimination 1 != formula 2',
    ((47, 12, 12, 1),): 'm=47: elimination 3 != formula 2',
    # two changes in the top matrix: one row swap, so the last pivot is
    # minus the determinant
    ((48, 23, 23, -2), (48, 21, 21, 1)): 'm=48: elimination 2 != formula 1',
    # one matrix inside the nest: the first, the second and a middle one
    ((1, 0, 0, -1),): 'm=1: elimination 0 != formula 1',
    ((2, 0, 0, 1),): 'm=2: elimination 3 != formula 2',
    ((17, 4, 5, 1),): 'm=17: elimination -4 != formula -2',
    # two matrices: the lower m comes first, whichever parity holds it
    ((9, 0, 0, 1), (30, 14, 14, 1)): 'm=9: elimination 0 != formula 1',
    ((31, 0, 0, 1), (10, 0, 0, 1)): 'm=10: elimination -3 != formula -1',
}


@pytest.mark.parametrize("entries", PLANTED_ENTRIES)
def test_determinant_lemma_reports_a_planted_entry(monkeypatch, entries):
    reduced = recurrence.reduced_matrix

    def planted(m):
        rows = [list(r) for r in reduced(m)]
        for target, i, j, change in entries:
            if m == target:
                rows[i][j] += change
        return tuple(map(tuple, rows))

    monkeypatch.setattr(recurrence, "reduced_matrix", planted)
    assert verify_determinants(48) == PLANTED_ENTRIES[entries]


def test_window_determinants(first_failure):
    assert window_det(build_table(3, 10), 1) == -1
    assert window_det(build_table(5, 10), 2) == 4
    assert first_failure(verify_window_determinants, 8, 10, 10) is None


# -- characteristic polynomial / recurrence ---------------------------------------


def test_charpoly_of_small_templates():
    assert charpoly(reduced_matrix(3)) == (-1, -2, 1)
    assert charpoly(reduced_matrix(5)) == (2, 0, -3, 1)
    assert charpoly(reduced_matrix(6)) == (1, 3, -4, 1)


def reference_charpoly(rows):
    """Faddeev-LeVerrier on lists of ints, one dot product per entry of
    each work matrix: the route the packed rows replaced."""
    k = len(rows)
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    work = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for step in range(1, k + 1):
        cols = list(zip(*work))
        work = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        trace = sum(work[i][i] for i in range(k))
        assert trace % step == 0
        c = -trace // step
        coeffs[k - step] = c
        for i in range(k):
            work[i][i] += c
    return tuple(coeffs)


@st.composite
def square_matrices(draw):
    k = draw(st.integers(0, 10))
    bound = draw(st.sampled_from([1, 3, 10**6]))
    entry = st.integers(-bound, bound)
    return [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(k)]


@given(rows=square_matrices())
@example(rows=[[10**6] * 10] * 10)
@example(rows=[[-10**6] * 10] * 10)
@example(rows=[[(-1) ** (i + j) * 10**6 for j in range(10)] for i in range(10)])
@example(rows=[[0] * 10] * 10)
@settings(deadline=None, max_examples=60)
def test_charpoly_matches_the_list_route(rows):
    got = charpoly(rows)
    assert got == reference_charpoly(rows)
    assert got[0] == (-1) ** len(rows) * det_bareiss(rows)


def test_charpoly_needs_a_square_matrix():
    assert charpoly([]) == (1,)
    for rows in ([[1, 2]], [[1, 2], [3]], [[1], [2]], [[1, 2], [3, 4, 5]]):
        with pytest.raises(DomainError, match="square"):
            charpoly(rows)


def test_charpoly_recursion_sweep():
    assert verify_charpoly_recursion(24) is None


def test_run_suite_computes_each_charpoly_once_per_call(monkeypatch):
    calls = Counter()
    real = recurrence.charpoly

    def counted(rows):
        calls[rows] += 1
        return real(rows)

    monkeypatch.setattr(recurrence, "charpoly", counted)
    # polynomial-equivalence reads m = 1..25, charpoly-recursion m = 1..26
    # (k = 1..13 of each parity).
    want = Counter({reduced_matrix(m): 1 for m in range(1, 27)})
    for _ in range(2):
        calls.clear()
        assert run_suite(25, 12).passed
        assert calls == want
    # A check called on its own computes its own.
    calls.clear()
    assert verify_charpoly_recursion(24) is None
    assert calls == Counter({reduced_matrix(m): 1 for m in range(1, 25)})


def test_minimal_recurrence_tiny_cases():
    assert minimal_recurrence(1).alphas == (1,)
    assert minimal_recurrence(2).alphas == (2,)
    assert minimal_recurrence(3).alphas == (1, 2)
    assert minimal_recurrence(5).alphas == (-2, 0, 3)


def test_recurrence_rendering_and_poly():
    rec = Recurrence((-2, 0, 3))
    assert str(rec) == "a(n+3)=3a(n+2)-2a(n)"
    assert rec.poly() == (2, 0, -3, 1)
    assert str(Recurrence((1, 2))) == "a(n+2)=2a(n+1)+a(n)"
    assert str(Recurrence((1,))) == "a(n+1)=a(n)"


def test_recurrence_satisfied_by_rows_and_sums(recurrence_holds):
    table = build_table(5, 20)
    rec = minimal_recurrence(5)
    for y in range(1, 6):
        assert recurrence_holds(rec, table.row(y), 17)
    assert recurrence_holds(rec, table.column_sums(), 17)
    assert not recurrence_holds(rec, (1, 1, 2, 9, 9, 9), 3)


def test_three_polynomials_agree(first_failure):
    for m in (1, 2, 3, 5, 8, 11):
        report = recurrence_report(m)
        assert report.equal, m
        assert report.charpoly == report.operator_poly == report.recurrence_poly
    assert first_failure(verify_polynomial_equivalence, 20, 0) is None


def test_operator_polynomial_route_is_shift_composed():
    # same object the report builds, spelled out for one case
    poly = multiplier(Family.ODD, 3).compose(DeltaPoly((-1, 1)))
    assert poly.coeffs == charpoly(reduced_matrix(5))


def test_annihilation_and_transfer_sweeps(first_failure):
    assert first_failure(verify_transfer, 10, 20, 20) is None
    assert first_failure(verify_annihilation, 10, 20, 20) is None
    assert first_failure(verify_column_sum_bridge, 10, 20, 20) is None
    assert first_failure(verify_minimality, 8, 0) is None


def test_minimality_rejects_a_table_shorter_than_2k_minus_1():
    # k = 3: the Hankel block reads a(1..5).
    with pytest.raises(DomainError, match="column 5 outside 1..4"):
        verify_minimality(build_table(5, 4))
    assert verify_minimality(build_table(5, 5)) is None


def _minimality_by_rank(table):
    """The reference route: one rank elimination per candidate order below
    k, each on a shift matrix of the first 3k cells of row 1."""
    k, first = table.k, table.rows[0]
    for kp in range(1, k):
        rows = [first[n:n + kp + 1] for n in range(kp + k + 2)]
        if len(_gauss_jordan(rows)[1]) != kp + 1:
            return f"m={table.m}: rank drop at candidate order {kp}"
    return None


def _planted_rows(m, width):
    """Rows 1 of shorter order than k = ceil(m/2), for m >= 3: row 1 of the
    (m - 2)-row table (order k - 1), and the constant row (order 1)."""
    return [build_table(m - 2, width).rows[0], (1,) * width]


@pytest.mark.parametrize("m", range(1, 11))
def test_minimality_agrees_with_the_rank_route(m):
    table = build_table(m, 3 * ((m + 1) // 2))
    assert verify_minimality(table) is None
    assert _minimality_by_rank(table) is None
    for row in _planted_rows(m, table.n_max) if m >= 3 else []:
        planted = PathTable(m, table.n_max, (row, *table.rows[1:]))
        assert verify_minimality(planted) == (
            f"m={m}: Hankel determinant of row 1 is 0")
        assert _minimality_by_rank(planted) is not None


@pytest.mark.parametrize("check, args, message", [
    (verify_constant_combinations, (build_table(5, 9),),
     "column 10 outside 1..9"),
    (verify_polynomial_equivalence, (build_table(9, 5), {}),
     "column 6 outside 1..5"),
])
def test_sliced_checks_reject_a_narrow_table(check, args, message):
    # The first column the check would read past the table's last one.
    with pytest.raises(DomainError, match=f"^{message}$"):
        check(*args)


@pytest.mark.parametrize("m, x, y, details", [
    (7, 5, 2, ("m=7 n=4: (35, 61, 75, 79) != (35, 62, 75, 79)",
               "m=7 row 2 n=1: not annihilated",
               "m=7 n=4: bridge identity fails",
               "m=7 a=1 b=2 n=2: family transport fails",
               "m=7 a=1 b=1 n=5: split fails",
               "m=7 a=1 n=2: partial-sum form fails",
               "window determinant at m=7 shift=1: 2 != -1",
               "m=7: (-1, 4, 2, -4, 1) vs (-1, 4, 2, -4, 1) vs (2, 0, 3, -4, 1)",
               "m=7: nullspace dimension 2 != 3")),
    (3, 3, 1, ("m=3 n=2: (5, 7) != (6, 7)",
               "m=3 row 1 n=1: not annihilated",
               "m=3 n=2: bridge identity fails",
               "m=3 a=1 b=2 n=2: prime transport fails",
               "m=3 a=1 b=1 n=2: split fails",
               "m=3 a=1 n=2: partial-sum form fails",
               "window determinant at m=3 shift=1: -4 != -1",
               "m=3: (-1, -2, 1) vs (-1, -2, 1) vs (-4, -1, 1)",
               "m=3: nullspace dimension 0 != 1")),
    # A wrong cell in lower row 6, which then differs from its mirror row 2:
    # only checks that read the lower rows see it.
    (7, 5, 6, (None,
               "m=7 row 6 n=1: not annihilated",
               "m=7 n=4: bridge identity fails",
               None,
               None,
               "m=7 a=1 n=2: partial-sum form fails",
               None,
               None,
               "m=7: nullspace dimension 2 != 3")),
    # The suite's two window lengths, n_max and min(n_max, 25), are read
    # from one packed window set each; each table is n_max + k columns wide,
    # with n_max = max(12, x + 5).  A wrong cell in lower row 9 of 10, so
    # annihilation packs that row too:
    (10, 28, 9, (None,
                 "m=10 row 9 n=23: not annihilated",
                 "m=10 n=27: bridge identity fails",
                 None,
                 None,
                 "m=10 a=1 n=24: partial-sum form fails",
                 None,
                 None,
                 None)),
    # past every column the length-25 checks read (25 + k - 1 = 28):
    (8, 35, 3, ("m=8 n=34: (1781205892316331, 3347567030312267, "
                "4510157143717134, 5128755742759414) != (1781205892316331, "
                "3347567030312267, 4510157143717135, 5128755742759414)",
                "m=8 row 3 n=31: not annihilated",
                "m=8 n=34: bridge identity fails",
                None,
                None,
                None,
                None,
                None,
                None)),
    # and in row 1, which the bridge compares with the column sums:
    (6, 27, 1, ("m=6 n=26: (233790820762, 421276495414, 525323190505) != "
                "(233790820763, 421276495414, 525323190505)",
                "m=6 row 1 n=24: not annihilated",
                "m=6 n=26: bridge identity fails",
                "m=6 a=1 b=3 n=25: prime transport fails",
                None,
                "m=6 a=1 n=25: partial-sum form fails",
                None,
                None,
                None)),
])
def test_table_checks_fail_where_a_wrong_cell_is(m, x, y, details):
    n_max = max(12, x + 5)
    cells = [list(row) for row in build_table(m, n_max + (m + 1) // 2).rows]
    cells[y - 1][x - 1] += 1
    table = PathTable(m, len(cells[0]), tuple(map(tuple, cells)))
    lengths = (n_max,) * 3 + (min(n_max, 25),) * 3
    got = tuple(check(table, n) for (check, _), n in zip(WINDOWED_CHECKS,
                                                       lengths)) + (
        verify_window_determinants(table, 12),
        verify_polynomial_equivalence(table), verify_constant_combinations(table))
    assert got == details
    # Each windowed check reports what its per-n route reports.
    assert got[:6] == tuple(reference(table, n) for (_, reference), n
                            in zip(WINDOWED_CHECKS, lengths))


# -- the per-n reference routes of the windowed table checks -------------------
#
# The six checks that apply Δ-polynomials to rows and column sums evaluate
# whole packed windows.  These reference routes run the same checks one
# index n at a time through DeltaPoly.apply, in the order (a, b, n) that
# fixes which failure is reported first.


def reference_transfer(table: PathTable, n_max: int = 30) -> str | None:
    """Reduced matrix advances reduced columns."""
    mat = reduced_matrix(table.m)
    for n in range(1, n_max + 1):
        col = table.column(n)
        got = tuple(sum(map(mul, r, col)) for r in mat)
        want = table.column(n + 1)[:len(mat)]
        if got != want:
            return f"m={table.m} n={n}: {got} != {want}"
    return None


def reference_annihilation(table: PathTable, n_max: int = 30) -> str | None:
    """The index-k family member sends every row and the column sums to 0."""
    m, k = table.m, table.k
    poly = multiplier(parity_family(m), k)
    rows = [table.row(y) for y in range(1, m + 1)]
    # A lower row y > k equal to its mirror m + 1 - y has values already
    # checked at the same n, so only lower rows that differ are applied.
    checked = [(y, row) for y, row in enumerate(rows, 1)
               if y <= k or row != rows[m - y]]
    sums = table.column_sums()
    for n in range(1, n_max + 1):
        for y, row in checked:
            if poly.apply(row, n) != 0:
                return f"m={m} row {y} n={n}: not annihilated"
        if poly.apply(sums, n) != 0:
            return f"m={m} sums n={n}: not annihilated"
    return None


def reference_column_sum_bridge(table: PathTable, n_max: int = 30) -> str | None:
    """(2 - D) applied to the column sums equals twice the first row."""
    two_minus_delta = DeltaPoly((2, -1))
    sums = table.column_sums()
    for n in range(1, n_max + 1):
        if two_minus_delta.apply(sums, n) != 2 * table.cell(n, 1):
            return f"m={table.m} n={n}: bridge identity fails"
    return None


def reference_row_equivalence(table: PathTable, n_max: int = 25) -> str | None:
    """Any row determines any other through the two transport identities."""
    m, k = table.m, table.k
    fam = parity_family(m)
    rows = {a: table.row(a) for a in range(1, k + 1)}
    # The pair (b, a) compares the two sequences that (a, b) compares, and
    # (a, a) compares a sequence with itself, so the pairs a < b, taken in
    # order, meet the first failure and compute each transported sequence
    # once.
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            pa = multiplier(fam, k - b)
            pb = multiplier(fam, k - a)
            qa = multiplier(Family.PRIME, b - 1)
            qb = multiplier(Family.PRIME, a - 1)
            for n in range(1, n_max + 1):
                if pa.apply(rows[a], n) != pb.apply(rows[b], n):
                    return f"m={m} a={a} b={b} n={n}: family transport fails"
                if qa.apply(rows[a], n) != qb.apply(rows[b], n):
                    return f"m={m} a={a} b={b} n={n}: prime transport fails"
    return None


def reference_table_action(table: PathTable, n_max: int = 25) -> str | None:
    """Odd(b) applied to row a splits into rows a-b and a+b."""
    k = table.k
    for a in range(1, k + 1):
        row_a = table.row(a)
        for b in range(0, min(a, k - a) + 1):
            poly = multiplier(Family.ODD, b)
            for n in range(1, n_max + 1):
                low = table.cell(n, a - b) if a - b >= 1 else 0
                want = low + table.cell(n, a + b)
                if poly.apply(row_a, n) != want:
                    return f"m={table.m} a={a} b={b} n={n}: split fails"
    return None


def reference_column_sum_formulas(table: PathTable, n_max: int = 25) -> str | None:
    """Column sums are determined by any single row, three ways."""
    m, k = table.m, table.k
    fam = parity_family(m)
    base = 2 if m % 2 else 1
    sums = table.column_sums()
    sum_members = sum((multiplier(fam, j) for j in range(1, k)), DeltaPoly((1,)))
    combined = (multiplier(Family.PRIME, k - 1)
                + (base - 1) * multiplier(Family.PRIME, k - 2))
    if m % 2:
        prime_side = (multiplier(Family.PRIME, k - 1)
                      + 2 * sum((multiplier(Family.PRIME, j)
                                 for j in range(k - 1)), DeltaPoly(())))
    else:
        prime_side = 2 * sum((multiplier(Family.PRIME, j)
                              for j in range(k)), DeltaPoly(()))
    for a in range(1, k + 1):
        row_a = table.row(a)
        lhs_poly = multiplier(fam, k - a)
        prime_lhs = multiplier(Family.PRIME, a - 1)
        for n in range(1, n_max + 1):
            lhs = lhs_poly.apply(sums, n)
            if lhs != 2 * sum_members.apply(row_a, n):
                return f"m={m} a={a} n={n}: partial-sum form fails"
            if lhs != 2 * combined.apply(row_a, n):
                return f"m={m} a={a} n={n}: combined form fails"
            if prime_lhs.apply(sums, n) != prime_side.apply(row_a, n):
                return f"m={m} a={a} n={n}: prime form fails"
    return None


WINDOWED_CHECKS = (
    (verify_transfer, reference_transfer),
    (verify_annihilation, reference_annihilation),
    (verify_column_sum_bridge, reference_column_sum_bridge),
    (verify_row_equivalence, reference_row_equivalence),
    (verify_table_action, reference_table_action),
    (verify_column_sum_formulas, reference_column_sum_formulas),
)


@pytest.mark.parametrize("m, n_max", [*((m, 7) for m in range(1, 10)), (20, 3)])
def test_windowed_checks_report_what_the_per_n_routes_report(m, n_max):
    # n_max + k columns: the last one is the end of the annihilation window,
    # the widest any of the six checks reads.  Every cell of every row, the
    # mirrored lower rows included, is corrupted by +1 and by -2 in turn.
    cells = [list(row) for row in build_table(m, n_max + (m + 1) // 2).rows]
    table = PathTable(m, len(cells[0]), tuple(map(tuple, cells)))
    for check, reference in WINDOWED_CHECKS:
        assert check(table, n_max) is reference(table, n_max) is None
    failures = 0
    for y, row in enumerate(cells, 1):
        for x in range(1, len(row) + 1):
            for delta in (1, -2):
                row[x - 1] += delta
                table = PathTable(m, len(row), tuple(map(tuple, cells)))
                row[x - 1] -= delta
                for check, reference in WINDOWED_CHECKS:
                    want = reference(table, n_max)
                    assert check(table, n_max) == want, (check.__name__, x, y)
                    failures += want is not None
    assert failures


@pytest.mark.parametrize("bits", range(60, 74))
def test_windowed_checks_report_what_the_per_n_routes_report_at_edges(bits):
    # Tables whose cells sit at slot-width edges, so that the sums of rows
    # the transfer and action checks form need wider slots than a cell.
    for m in range(1, 8):
        for edge in ((1 << bits) - 1, -(1 << bits)):
            width = 5 + (m + 1) // 2
            table = PathTable(m, width, ((edge,) * width,) * m)
            for check, reference in WINDOWED_CHECKS:
                assert check(table, 5) == reference(table, 5), check.__name__


@pytest.mark.parametrize("check", [check for check, _ in WINDOWED_CHECKS])
def test_windowed_checks_need_count_plus_k_columns(check):
    # Every check reads the table's shared window set, whose longest
    # polynomial, the index-k family member, reaches column count + k.
    assert check(build_table(7, 10 + 4), 10) is None
    with pytest.raises(DomainError,
                       match="^need sequence values up to index 14, have 13$"):
        check(build_table(7, 10 + 3), 10)


@pytest.fixture
def built_windows(monkeypatch):
    """The window length of each Windows the checks build, in order."""
    built = []

    def counting(count, *args, **kwargs):
        built.append(count)
        return Windows(count, *args, **kwargs)

    monkeypatch.setattr(recurrence, "Windows", counting)
    return built


@pytest.mark.parametrize("m_max, n_max, per_table",
                         [(9, 30, 2), (9, 25, 1), (9, 26, 2), (64, 40, 2)])
def test_suite_packs_each_table_once_per_window_length(built_windows, m_max,
                                                       n_max, per_table):
    # The six windowed checks read n_max and min(n_max, max(25, k)) values
    # of each table from one Windows per length; from m = 51 on, k > 25.
    assert run_suite(m_max, n_max).passed
    assert len(built_windows) == per_table * m_max
    assert built_windows == [
        length for m in range(1, m_max + 1)
        for length in dict.fromkeys((n_max, min(n_max, max(25, (m + 1) // 2))))]


def test_column_sum_formulas_read_k_values_to_prove_their_identity(
        monkeypatch):
    # At m = 64 (k = 32) the column sums' shifts by E^0..E^31 have rank 25
    # at n = 1..25, so a Δ-polynomial P of that nullspace sends the sums to
    # 0 there but not at n = 26.  Planted in the family's X(0), which the
    # a = k formula applies to the sums, P passes at 25 values and fails
    # at k, the count the suite reads at m = 64.
    m, k = 64, 32
    sums = build_table(m, 25 + k).column_sums()
    vector = _nullspace([sums[n:n + k] for n in range(25)], k)[0]
    scale = lcm(*(v.denominator for v in vector))
    planted, power = DeltaPoly(()), DeltaPoly((1,))
    for v in vector:   # P(D) = sum of v_j (D + 1)^j, so P(E - 1) = v . E^j
        planted += int(v * scale) * power
        power *= DeltaPoly((1, 1))
    family = parity_family(m)

    def faulty(fam, n):
        poly = multiplier(fam, n)
        return poly + planted if (fam, n) == (family, 0) else poly

    monkeypatch.setattr(recurrence, "multiplier", faulty)
    assert verify_column_sum_formulas(build_table(m, 25 + k), 25) is None
    assert verify_column_sum_formulas(build_table(m, 2 * k), k) == (
        "m=64 a=32 n=26: partial-sum form fails")


def test_windowed_checks_at_one_length_share_one_windows(built_windows):
    # Called directly at one length, the checks the suite runs at n_max and
    # those it runs at min(n_max, 25) read one Windows.
    table = build_table(9, 40 + 5)
    for check, _ in WINDOWED_CHECKS:
        assert check(table, 40) is None
    assert built_windows == [40]


def test_recurrence_report_round_trip():
    report = recurrence_report(5)
    doc = render_document(report)
    assert parse_document(doc) == report
    assert render_document(parse_document(doc)) == doc


def test_column_sum_formula_sweep(first_failure):
    assert first_failure(verify_column_sum_formulas, 10, 20, 20) is None


@pytest.mark.parametrize("m", [1, 2, 9, 10])
def test_column_sum_formulas_compare_the_closed_form_as_a_polynomial(
        monkeypatch, m):
    # The closed form 2 (Prime(k-1) + (base-1) Prime(k-2)) is one polynomial
    # with twice the partial sum of the family; a Prime member one off makes
    # them differ before any row window is read.
    k = (m + 1) // 2
    table = build_table(m, 12 + k)
    assert verify_column_sum_formulas(table, 12) is None

    def skewed(family, n):
        poly = multiplier(family, n)
        if (family, n) == (Family.PRIME, k - 1):
            return poly + DeltaPoly((1,))
        return poly

    monkeypatch.setattr(recurrence, "multiplier", skewed)
    assert verify_column_sum_formulas(table, 12) == (
        f"m={m}: combined form differs from the partial-sum form")


def test_tables_and_reduced_eliminations_are_computed_once(monkeypatch):
    window_table = build_table(9, 12 + 5)
    calls = {"build_table": 0, "det_bareiss": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in ((pathtable, "build_table"), (recurrence, "build_table"),
                         (recurrence, "det_bareiss")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    # Every m-indexed check reads the suite's one table per m; m_max = 14
    # runs past constant-combinations' last m, 13.  det_bareiss: per window
    # table one reduced matrix and 13 windows, and one Hankel block per
    # minimality table (m <= 10); the determinant lemma reads its 48
    # determinants from one elimination per parity.
    assert run_suite(14, 20).passed
    assert calls == {"build_table": 14, "det_bareiss": 10 * 14 + 10}
    calls.update(build_table=0, det_bareiss=0)
    recurrence_report(5)
    assert calls["build_table"] == 1
    calls.update(build_table=0, det_bareiss=0)
    assert verify_window_determinants(window_table, 12) is None
    assert calls == {"build_table": 0, "det_bareiss": 14}


# -- constant row combinations ------------------------------------------------------


def test_witness_for_five_rows():
    report = row_constant_combinations(5)
    assert report.exists
    assert report.alphas == (1, 0, -1, 0, 1)
    assert report.lam == 1
    assert report.nullspace_dim == 3
    assert report.trivial_dim == 2


def test_witness_for_nine_rows():
    report = row_constant_combinations(9)
    assert report.exists
    assert report.alphas == (1, 0, -1, 0, 1, 0, -1, 0, 1)
    assert report.lam == 1


def test_no_witness_off_the_residue_class():
    for m in (2, 3, 4, 6, 7, 8, 10, 11, 12):
        report = row_constant_combinations(m)
        assert not report.exists, m
        assert report.lam is None
        assert report.alphas == ()
        assert report.nullspace_dim == report.trivial_dim == m // 2


def test_one_row_table_is_the_degenerate_witness():
    # the single row is constant 1,1,1,... so alpha=(1) works with lambda=1
    report = row_constant_combinations(1)
    assert report.exists
    assert report.alphas == (1,)
    assert report.lam == 1


def test_probe_depth_changes_no_basis():
    # The column differences d(n) = T^(n-1) d(1) of the m x m transfer T
    # span their Krylov space within m steps, so every allowed depth from
    # m + 2 on solves the same system.
    for m in range(1, 25):
        bases = {row_constant_combinations(m, p).basis
                 for p in (m + 2, m + 5, m + 20)}
        assert len(bases) == 1, m


def test_probe_depth_validated():
    with pytest.raises(DomainError):
        row_constant_combinations(5, n_probe=5)
    assert row_constant_combinations(5, n_probe=7).n_probe == 7


def test_row_combo_report_round_trip():
    for m in (4, 5):
        report = row_constant_combinations(m)
        doc = render_document(report)
        assert parse_document(doc) == report


def test_constant_combination_sweep(first_failure):
    assert first_failure(verify_constant_combinations, 13, 5) is None


# -- rendering helpers -----------------------------------------------------------


def test_xpoly_rendering():
    assert format_poly((2, 0, -3, 1), "x") == "x^3 - 3x^2 + 2"
    assert format_poly((-1, 1), "x") == "x - 1"
    assert format_poly((1,), "x") == "1"


@given(m=st.integers(1, 10))
@settings(deadline=None)
def test_window_determinant_is_power_of_base(m):
    table = build_table(m, m + 6)
    base = det_reduced(m)
    for shift in range(0, 4):
        assert window_det(table, shift) == base**shift
