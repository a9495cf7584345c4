"""Reduced transfer matrices and minimal recurrences for count tables.

Row symmetry cuts an m-row table down to its top k = ceil(m/2) rows.  The
reduced columns are advanced by the k x k transfer matrix of the strip
folded at that symmetry: ones on the tridiagonal, plus one more 1 in row k,
where its missing neighbour k + 1 mirrors onto row k for even m and onto
row k - 1 for odd m.  This module builds those matrices,
computes their determinants and characteristic polynomials exactly, derives
each table's minimal linear column recurrence, and analyses which constant
linear combinations of full rows exist.  Each m-indexed identity check reads
one table and takes m from it, so that ``suite.run_suite`` can build one
table per m and hand it to every such check, the recurrence and
row-combination checks included.  The six checks that apply Δ-polynomials
to rows and column sums share packed window sets kept on the table
(``_TableWindows``), one per window length, each building a polynomial's
route at its first use.  The orders of
the templates over prime fields are ``singer``'s, which imports nothing
from here.

All linear algebra here is exact and runs through one fraction-free
(Bareiss) Gauss-Jordan elimination over the integers: determinants, the
recurrence solve and nullspaces.  Fractions appear only in the
reported nullspace vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq, mul, sub

from .deltaops import (DeltaPoly, Family, Windows, _shape, _slot_width,
                       base_constant, multiplier, parity_family, strip_charpoly)
from .errors import DomainError, InternalInconsistencyError
from .pathtable import PathTable, build_table


# -- the reduced transfer matrix ---------------------------------------------


def reduced_matrix(m: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the k x k reduced transfer matrix of an m-row table.

    Each of the top k rows takes its left neighbour and that neighbour's
    vertical neighbours: ones on the tridiagonal.  Row k's missing neighbour
    k + 1 is its mirror image, row k itself when m is even and row k - 1
    when m is odd, so one more 1 lands in row k.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    k = (m + 1) // 2
    # Row i is the window of k entries of the band that puts its three ones
    # at columns i - 1, i and i + 1.
    band = (0,) * (k - 1) + (1, 1, 1) + (0,) * (k - 1)
    rows = [band[k - i:2 * k - i] for i in range(k)]
    if m > 1:
        last = list(rows[-1])
        last[k - 1 - m % 2] += 1
        rows[-1] = tuple(last)
    return tuple(rows)


# -- exact elimination -------------------------------------------------------


def _gauss_jordan(rows) -> tuple[list[list[int]], list[int], list[int],
                                 list[int]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns (a, pivots, minors, swaps): a is the last pivot times the
    reduced row echelon form, with row t holding the pivot of column
    pivots[t]; minors is 1 followed by the pivot of each step, so
    minors[-1] is the scale of a; swaps lists the steps that swapped rows.
    Each step replaces every other row by (p * row - row[c] * top) divided
    by the previous pivot; the entries stay integer minors of the input, so
    every division is exact.  The rows below the pivot row are updated as
    in forward Bareiss elimination, so by Sylvester's identity minors[t] is
    the leading principal t x t minor whenever the first t steps took
    columns 0..t-1 and swapped no rows.
    """
    a = [list(r) for r in rows]
    pivots: list[int] = []
    minors = [1]
    swaps: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            swaps.append(r)
        top = a[r]
        p, prev = top[c], minors[-1]
        for i, row in enumerate(a):
            if i == r:
                continue
            f = row[c]
            if f:
                a[i] = [(p * v - f * w) // prev for v, w in zip(row, top)]
            elif p != prev:
                # A zero in column c leaves only the rescaling by p / prev.
                a[i] = [p * v // prev for v in row]
        pivots.append(c)
        minors.append(p)
        if r + 1 == len(a):
            break
    return a, pivots, minors, swaps


def det_bareiss(rows) -> int:
    """Exact determinant: the swap sign times the last fraction-free pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("determinant needs a square matrix")
    _, pivots, minors, swaps = _gauss_jordan(rows)
    return (-1) ** len(swaps) * minors[-1] if len(pivots) == n else 0


def _nullspace(rows, cols: int) -> list[tuple[Fraction, ...]]:
    """Canonical nullspace basis, one vector per free column of the RREF."""
    a, pivots, minors, _ = _gauss_jordan(rows)
    scale = minors[-1]
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, pc in zip(a, pivots):
            v[pc] = Fraction(-row[f], scale)
        basis.append(tuple(v))
    return basis


def det_reduced_direct(m: int) -> int:
    return det_bareiss(reduced_matrix(m))


def det_reduced_formula(m: int) -> int:
    """Closed form of the reduced determinant; period 6 in k."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    k = (m + 1) // 2
    if m % 2:
        sign = -1 if ((k + 1) // 3) % 2 else 1
        return sign * (2 if k % 3 == 0 else 1)
    sign = -1 if (k // 3) % 2 else 1
    return sign * (2 if k % 3 == 1 else 1)


def det_reduced(m: int) -> int:
    """Reduced determinant, computed two ways and cross-checked."""
    direct = det_reduced_direct(m)
    formula = det_reduced_formula(m)
    if direct != formula:
        raise InternalInconsistencyError(
            f"det routes disagree at m={m}: elimination {direct}, "
            f"formula {formula}")
    return direct


# -- characteristic polynomial -----------------------------------------------


def charpoly(rows) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - A), ascending coefficients,
    by Faddeev-LeVerrier; every division is exact for integer matrices.

    Each row of the work matrix is one packed int, so a row of A times the
    work matrix is a sum of packed rows, one per nonzero entry of A.  The
    work matrices are M(1) = I and M(s+1) = A M(s) + c(k-s) I, that is
    M(s) = sum over j < s of c(k-j) A^(s-1-j).  With N the largest absolute
    row sum of A (at least 1), every eigenvalue has modulus at most N, so
    |c(k-j)| <= C(k, j) N^j and the row-sum norm of M(s) is at most
    2^k N^(s-1); every entry of A M(s) is then at most 2^k N^k in size,
    and slots that hold 2^k N^k in their lower half hold every entry.
    """
    k = len(rows)
    if any(len(r) != k for r in rows):
        raise DomainError("characteristic polynomial needs a square matrix")
    norm = max([sum(map(abs, r)) for r in rows] + [1])
    width = _slot_width((2**k * norm**k).bit_length() + 1)
    unit = [1 << 8 * width * i for i in range(k)]
    terms = [[(a, j) for j, a in enumerate(r) if a] for r in rows]
    coeffs = [0] * k + [1]
    work = unit
    # Adding half to a packed row makes every slot c + 2**(bits-1), with no
    # borrow between slots, so slot i is one shift and mask away.
    bits, half = 8 * width, _shape(width, k)[0]
    mask, offset = (1 << bits) - 1, k << bits - 1
    for step in range(1, k + 1):
        work = [sum([a * work[j] for a, j in row]) for row in terms]
        trace = sum([(w + half) >> i * bits & mask
                     for i, w in enumerate(work)]) - offset
        if trace % step:
            raise InternalInconsistencyError(
                f"non-integral trace division at step {step}")
        c = -trace // step
        coeffs[k - step] = c
        work = [w + c * u for w, u in zip(work, unit)]
    return tuple(coeffs)


# -- minimal column recurrence -----------------------------------------------


@dataclass(frozen=True)
class Recurrence:
    """a(n+k) = alphas[0]*a(n) + alphas[1]*a(n+1) + ... + alphas[k-1]*a(n+k-1)."""

    alphas: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.alphas)

    def __str__(self) -> str:
        parts = []
        for j in range(self.k - 1, -1, -1):
            c = self.alphas[j]
            if c == 0:
                continue
            shift = "a(n)" if j == 0 else f"a(n+{j})"
            mag = abs(c)
            body = shift if mag == 1 else f"{mag}{shift}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+{body}" if c > 0 else f"-{body}")
        rhs = "".join(parts) if parts else "0"
        return f"a(n+{self.k})={rhs}"

    def poly(self) -> tuple[int, ...]:
        """x^k minus the recurrence combination, ascending coefficients."""
        return tuple(-a for a in self.alphas) + (1,)


def minimal_recurrence(m: int) -> Recurrence:
    """Minimal linear recurrence advancing the reduced columns of the table.

    Solves [col(1) ... col(k)] alpha = col(k+1) exactly on the top k rows
    of the first k + 1 columns, that system's augmented matrix; the theory
    guarantees integer coefficients with alphas[0] != 0, and both facts are
    asserted rather than assumed.
    """
    return _table_recurrence(build_table(m, (m + 1) // 2 + 1))


def _head(table: PathTable, rows: int, n: int) -> list[tuple[int, ...]]:
    """Rows 1..rows of the table, each cut to columns 1..n.  A table
    narrower than n raises the DomainError of its first missing column."""
    if n > table.n_max:
        raise DomainError(f"column {table.n_max + 1} outside 1..{table.n_max}")
    return [row[:n] for row in table.rows[:rows]]


def _table_recurrence(table: PathTable) -> Recurrence:
    k = table.k
    a, pivots, minors, _ = _gauss_jordan(_head(table, k, k + 1))
    scale = minors[-1]
    if pivots != list(range(k)):
        raise InternalInconsistencyError("singular system in recurrence solve")
    for row in a:
        if row[k] % scale:
            raise InternalInconsistencyError(
                f"non-integral recurrence coefficient {row[k]}/{scale}")
    alphas = tuple(row[k] // scale for row in a)
    if alphas[0] == 0:
        raise InternalInconsistencyError(
            f"leading recurrence coefficient vanished at m={table.m}")
    return Recurrence(alphas)


# -- the three-polynomial equivalence ----------------------------------------


@dataclass(frozen=True)
class RecurrenceReport:
    """The minimal recurrence of the m-row table and two independently
    derived polynomials it is compared with: the characteristic polynomial
    of the reduced matrix and the operator family's index-k member at
    x - 1."""

    m: int
    recurrence: Recurrence
    charpoly: tuple[int, ...]
    operator_poly: tuple[int, ...]

    @property
    def recurrence_poly(self) -> tuple[int, ...]:
        return self.recurrence.poly()

    @property
    def equal(self) -> bool:
        return self.charpoly == self.operator_poly == self.recurrence_poly


def recurrence_report(m: int) -> RecurrenceReport:
    """The minimal recurrence of the m-row table, with its two polynomials."""
    return _table_report(build_table(m, (m + 1) // 2 + 1), {})


def _table_report(table: PathTable, charpolys: dict) -> RecurrenceReport:
    rec = _table_recurrence(table)
    return RecurrenceReport(
        table.m, rec, _reduced_charpoly(table.m, charpolys),
        strip_charpoly(table.m))


def _reduced_charpoly(m: int, charpolys: dict) -> tuple[int, ...]:
    """charpoly(reduced_matrix(m)), kept in ``charpolys`` (m -> charpoly),
    a dict that one caller owns, so that caller computes it once."""
    if m not in charpolys:
        charpolys[m] = charpoly(reduced_matrix(m))
    return charpolys[m]


# -- window determinants -----------------------------------------------------


def window_det(table: PathTable, shift: int) -> int:
    """Determinant of k consecutive reduced columns starting at shift + 1."""
    if shift < 0:
        raise DomainError(f"shift must be >= 0, got {shift}")
    k = table.k
    if shift + k > table.n_max:
        raise DomainError(
            f"window needs columns up to {shift + k}, table has {table.n_max}")
    return det_bareiss([row[shift:shift + k] for row in table.rows[:k]])


# -- constant combinations of rows -------------------------------------------


@dataclass(frozen=True)
class RowComboReport:
    """Which constant linear combinations of full rows exist for a table.

    A combination is trivial when alpha_i + alpha_{m+1-i} = 0 for every i;
    those always exist (row symmetry makes them identically zero).  The
    report stores m, n_probe and the nullspace basis, each vector marked
    trivial or nontrivial; the rest are properties.  ``exists``,
    ``nullspace_dim`` and ``trivial_dim`` count the basis, and
    ``verified_up_to`` is n_probe.  Nontrivial combinations exist exactly
    when m = 1 (mod 4), and then ``alphas`` is a witness supported on odd
    positions with constant value ``lam`` = 1 (else () and None).
    """

    m: int
    n_probe: int
    basis: tuple[tuple[str, tuple[Fraction, ...]], ...]

    @property
    def exists(self) -> bool:
        return any(kind == "nontrivial" for kind, _ in self.basis)

    @property
    def nullspace_dim(self) -> int:
        return len(self.basis)

    @property
    def trivial_dim(self) -> int:
        return sum(kind == "trivial" for kind, _ in self.basis)

    @property
    def verified_up_to(self) -> int:
        return self.n_probe

    @property
    def lam(self) -> int | None:
        return 1 if self.m % 4 == 1 else None

    @property
    def alphas(self) -> tuple[int, ...]:
        return _witness(self.m) if self.m % 4 == 1 else ()


def _witness(m: int) -> tuple[int, ...]:
    # Alternating entries on odd positions, mirrored; pair sums are +-2.
    alphas = [0] * m
    for i in range((m - 1) // 4 + 1):
        val = 1 if i % 2 == 0 else -1
        alphas[2 * i] = val
        alphas[m - 1 - 2 * i] = val
    return tuple(alphas)


def row_constant_combinations(m: int, n_probe: int | None = None) -> RowComboReport:
    """Find all row combinations whose column totals do not depend on n.

    The difference system (combination at n+1 minus at n, for each probed n)
    is solved exactly over the rationals; every nullspace vector is
    classified as trivial or nontrivial, and for m = 1 (mod 4) the explicit
    odd-position witness is verified against the table up to n_probe.
    """
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if n_probe is None:
        n_probe = m + 5
    if n_probe < m + 2:
        raise DomainError(f"n_probe must be at least m + 2 = {m + 2}")
    return _table_combinations(build_table(m, n_probe), n_probe)


def _table_combinations(table: PathTable, n_probe: int) -> RowComboReport:
    m = table.m
    columns = list(zip(*_head(table, m, n_probe)))
    diff = [list(map(sub, after, before))
            for before, after in zip(columns, columns[1:])]
    basis = []
    for vec in _nullspace(diff, m):
        # A nontrivial vector is scaled by the first nonzero entry of its
        # symmetric part, a trivial one by its own first nonzero entry.
        sym = [v + vec[m - 1 - i] for i, v in enumerate(vec)]
        kind, scale = ("nontrivial", sym) if any(sym) else ("trivial", vec)
        first = next(s for s in scale if s)
        basis.append((kind, tuple(v / first for v in vec)))
    report = RowComboReport(m, n_probe, tuple(basis))

    if (lam := report.lam) is not None:
        alphas = report.alphas
        for n, column in enumerate(columns, 1):
            got = sum(map(mul, alphas, column))
            if got != lam:
                raise InternalInconsistencyError(
                    f"witness for m={m} gives {got} at n={n}, expected {lam}")
        if not report.exists:
            raise InternalInconsistencyError(
                f"m={m}: witness exists but nullspace scan found none")
    return report


# -- identity verifiers over tables ------------------------------------------

# Fixed operators of the checks below, built once so that their hashes and
# shift coefficients are worked out once.
_SHIFT = DeltaPoly((1, 1))
_TWO_MINUS_DELTA, _TWO = DeltaPoly((2, -1)), DeltaPoly((2,))


class _TableWindows:
    """What the six windowed checks below read of one table.

    The sequences are rows 1..k, then each lower row y > k that differs
    from its mirror m + 1 - y, which only annihilation reads (a lower row
    equal to its mirror has its values), then the column sums.  The
    polynomials are all six checks': the shift, the family members of
    index 0..k, the prime members of index 0..k-1, Odd(0..k//2), the two
    column-sum forms, 2 - Δ and 2.  ``windows(count)`` packs the sequences
    once per window length, and its ``Windows`` builds each route at the
    first check that applies it.  The weight is the largest a check needs:
    the transfer check's largest row sum of the reduced matrix, or the 2 of
    a split.  Every window then holds the values whichever check reads it,
    so sharing changes no comparison; and every check needs count + k
    values of each sequence, the reach of the index-k family member.
    """

    def __init__(self, table: PathTable):
        m, k, rows = table.m, table.k, table.rows
        fam = parity_family(m)
        self.matrix = reduced_matrix(m)
        self.family = [multiplier(fam, j) for j in range(k + 1)]
        self.prime = [multiplier(Family.PRIME, j) for j in range(k)]
        self.odd = [multiplier(Family.ODD, b) for b in range(k // 2 + 1)]
        self.twice_sum = 2 * sum(self.family[1:k], DeltaPoly((1,)))
        if fam is Family.ODD:
            self.prime_side = self.prime[k - 1] + 2 * sum(self.prime[:k - 1],
                                                          DeltaPoly(()))
        else:
            self.prime_side = 2 * sum(self.prime, DeltaPoly(()))
        self.checked = [y for y in range(1, m + 1)
                        if y <= k or rows[y - 1] != rows[m - y]]
        self._seqs = [*(rows[y - 1] for y in self.checked),
                      table.column_sums()]
        self._polys = {_SHIFT, _TWO_MINUS_DELTA, _TWO, *self.family,
                       *self.prime, *self.odd, self.twice_sum,
                       self.prime_side}
        self._weight = max(2, *map(sum, self.matrix))
        self._windows: dict = {}

    def windows(self, count: int) -> Windows:
        if count not in self._windows:
            self._windows[count] = Windows(count, self._seqs, self._polys,
                                           weight=self._weight)
        return self._windows[count]


def _table_windows(table: PathTable) -> _TableWindows:
    """The table's ``_TableWindows``, built at its first use and kept in the
    table's instance __dict__, which equality and hashing never read."""
    shared = vars(table).get("_table_windows")
    if shared is None:
        shared = vars(table)["_table_windows"] = _TableWindows(table)
    return shared


def verify_transfer(table: PathTable, n_max: int = 30) -> str | None:
    """Reduced matrix advances reduced columns: on rows, the shift E sends
    row y to the combination of rows 1..k in row y of the matrix."""
    shared = _table_windows(table)
    w = shared.windows(n_max)
    # The matrix is tridiagonal but for one entry: at most 3k + 1 of its k^2
    # entries are nonzero, and only those scale a packed row.  All but one
    # of them are 1, which adds the row itself with no copy.
    seqs = w.seqs[:table.k]
    got = [w.window(sum([seqs[j] if a == 1 else a * seqs[j]
                         for j, a in enumerate(r) if a]))
           for r in shared.matrix]
    want = [w.apply(_SHIFT, row) for row in seqs]
    if hit := w.first_difference(zip(got, want)):
        n = hit[0]
        got_n = tuple(w.values(v)[n - 1] for v in got)
        want_n = tuple(w.values(v)[n - 1] for v in want)
        return f"m={table.m} n={n}: {got_n} != {want_n}"
    return None


def verify_annihilation(table: PathTable, n_max: int = 30) -> str | None:
    """The index-k family member sends every row and the column sums to 0."""
    shared = _table_windows(table)
    w, poly = shared.windows(n_max), shared.family[-1]
    checked = shared.checked
    if hit := w.first_difference((w.apply(poly, seq), w.zero)
                                 for seq in w.seqs):
        n, i = hit
        where = f"row {checked[i]}" if i < len(checked) else "sums"
        return f"m={table.m} {where} n={n}: not annihilated"
    return None


def verify_column_sum_bridge(table: PathTable, n_max: int = 30) -> str | None:
    """(2 - D) applied to the column sums equals twice the first row."""
    w = _table_windows(table).windows(n_max)
    sums, first = w.seqs[-1], w.seqs[0]
    if hit := w.first_difference([(w.apply(_TWO_MINUS_DELTA, sums),
                                   w.apply(_TWO, first))]):
        return f"m={table.m} n={hit[0]}: bridge identity fails"
    return None


def verify_row_equivalence(table: PathTable, n_max: int = 25) -> str | None:
    """Any row determines any other through the two transport identities."""
    m, k = table.m, table.k
    shared = _table_windows(table)
    w, family, prime = shared.windows(n_max), shared.family, shared.prime
    rows = w.seqs
    # The pair (b, a) compares the two sequences that (a, b) compares, and
    # (a, a) compares a sequence with itself, so the pairs a < b, taken in
    # order, meet the first failure and compute each window once.
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            row_a, row_b = rows[a - 1], rows[b - 1]
            hit = w.first_difference((
                (w.apply(family[k - b], row_a), w.apply(family[k - a], row_b)),
                (w.apply(prime[b - 1], row_a), w.apply(prime[a - 1], row_b))))
            if hit:
                n, i = hit
                return (f"m={m} a={a} b={b} n={n}: "
                        f"{('family', 'prime')[i]} transport fails")
    return None


def verify_table_action(table: PathTable, n_max: int = 25) -> str | None:
    """Odd(b) applied to row a splits into rows a-b and a+b."""
    k = table.k
    shared = _table_windows(table)
    w, odd = shared.windows(n_max), shared.odd
    rows = w.seqs
    for a in range(1, k + 1):
        for b in range(0, min(a, k - a) + 1):
            low = rows[a - b - 1] if a - b >= 1 else 0
            want = w.window(low + rows[a + b - 1])
            if hit := w.first_difference([(w.apply(odd[b], rows[a - 1]),
                                           want)]):
                return f"m={table.m} a={a} b={b} n={hit[0]}: split fails"
    return None


def verify_column_sum_formulas(table: PathTable, n_max: int = 25) -> str | None:
    """Column sums are determined by any single row, three ways."""
    m, k = table.m, table.k
    base = base_constant(parity_family(m))
    shared = _table_windows(table)
    family, prime = shared.family, shared.prime
    twice_sum, prime_side = shared.twice_sum, shared.prime_side
    # Twice the partial sum of the family equals twice its closed form (the
    # partial-sums identity), so the two are compared once, not per row.
    if twice_sum != 2 * (multiplier(Family.PRIME, k - 1)
                         + (base - 1) * multiplier(Family.PRIME, k - 2)):
        return f"m={m}: combined form differs from the partial-sum form"
    w = shared.windows(n_max)
    rows, sums = w.seqs[:k], w.seqs[-1]
    for a, row_a in enumerate(rows, 1):
        hit = w.first_difference((
            (w.apply(family[k - a], sums), w.apply(twice_sum, row_a)),
            (w.apply(prime[a - 1], sums), w.apply(prime_side, row_a))))
        if hit:
            n, i = hit
            return (f"m={m} a={a} n={n}: "
                    f"{('partial-sum', 'prime')[i]} form fails")
    return None


def verify_determinants(m_max: int = 48) -> str | None:
    """Elimination equals the closed periodic formula, plus the step relation.

    ``reduced_matrix`` puts its extra 1 in the last row, so A_m, the k x k
    reduced matrix of m = 2k - parity, is the trailing k x k block of the
    largest reduced matrix of its parity.  Reversing that matrix's rows and
    columns keeps every such block's determinant and makes it a leading
    block, so one elimination per parity reads det(A_m) as its minors[k]
    (Sylvester's identity; see ``_gauss_jordan``).  The nesting is checked
    for every m, not assumed.  The first step that swaps rows or skips a
    column has a leading minor of 0; a matrix past that step, or outside
    the nest, is eliminated on its own.
    """
    dets = [0] * m_max
    for parity in (1, 0):
        top = m_max - (m_max - parity) % 2
        big = reduced_matrix(top) if top > 0 else ()
        size = len(big)
        _, pivots, minors, swaps = _gauss_jordan([r[::-1] for r in big[::-1]])
        clean = min([*swaps, len(pivots),
                     *(t for t, c in enumerate(pivots) if c != t)])
        lead = minors[:clean + 1] + [0]
        for k in range(1, size + 1):
            m = 2 * k - parity
            nested = all(map(eq, reduced_matrix(m),
                             (r[size - k:] for r in big[size - k:])))
            dets[m - 1] = (lead[k] if nested and k < len(lead)
                           else det_reduced_direct(m))
    for m, direct in enumerate(dets, 1):
        formula = det_reduced_formula(m)
        if direct != formula:
            return f"m={m}: elimination {direct} != formula {formula}"
    for parity in (0, 1):
        # m = 2k - parity for k = 1..m_max // 2
        track = dets[1 - parity::2][:m_max // 2]
        for i in range(2, len(track)):
            if track[i] != track[i - 1] - track[i - 2]:
                return f"parity {parity} k={i + 1}: step relation fails"
    return None


def verify_window_determinants(table: PathTable,
                               shift_max: int = 12) -> str | None:
    """window_det matches det_reduced ** shift."""
    base = det_reduced(table.m)
    for shift in range(0, shift_max + 1):
        if (d := window_det(table, shift)) != base ** shift:
            return (f"window determinant at m={table.m} shift={shift}: "
                    f"{d} != {base ** shift}")
    return None


def verify_polynomial_equivalence(table: PathTable,
                                  charpolys: dict | None = None) -> str | None:
    """Characteristic, operator and recurrence polynomials coincide.

    ``charpolys`` maps m to the characteristic polynomial of the reduced
    matrix: the check reads m's from it, or computes it and keeps it there.
    ``suite.run_suite`` passes one dict per call to this check and to
    ``verify_charpoly_recursion``; a check called on its own takes a fresh
    dict.
    """
    report = _table_report(table, {} if charpolys is None else charpolys)
    if not report.equal:
        return (f"m={table.m}: {report.charpoly} vs {report.operator_poly} "
                f"vs {report.recurrence_poly}")
    return None


def verify_charpoly_recursion(m_max: int = 24,
                              charpolys: dict | None = None) -> str | None:
    """det(xI - A_k) = (x - 1) det(xI - A_{k-1}) - det(xI - A_{k-2}).

    ``charpolys`` is read and filled as in
    ``verify_polynomial_equivalence``.
    """
    x_minus_1 = DeltaPoly((-1, 1))
    k_max = (m_max + 1) // 2
    charpolys = {} if charpolys is None else charpolys
    for parity, name in ((1, "odd"), (0, "even")):
        polys = [DeltaPoly(_reduced_charpoly(2 * k - parity, charpolys))
                 for k in range(1, k_max + 1)]
        for i in range(2, len(polys)):
            want = x_minus_1 * polys[i - 1] - polys[i - 2]
            if polys[i] != want:
                return f"{name}_matrix k={i + 1}: recursion fails"
    return None


def verify_minimality(table: PathTable) -> str | None:
    """No recurrence of order below k fits the first row.

    A recurrence of order r < k would make column r of the k x k Hankel
    block [a(i+j+1)], i, j < k, a combination of columns 0..r-1.  So a
    nonzero determinant of that block, read from the first 2k - 1 cells of
    the first row, rules out every shorter order at once.
    """
    k = table.k
    first = _head(table, 1, 2 * k - 1)[0]
    if det_bareiss([first[i:i + k] for i in range(k)]) == 0:
        return f"m={table.m}: Hankel determinant of row 1 is 0"
    return None


def verify_constant_combinations(table: PathTable) -> str | None:
    """On the first m + 5 columns: nontrivial combinations iff m = 1 (mod 4)."""
    m = table.m
    report = _table_combinations(table, m + 5)
    if report.exists != (m % 4 == 1):
        return f"m={m}: exists={report.exists}"
    want_dim = m // 2 + (1 if m % 4 == 1 else 0)
    if report.nullspace_dim != want_dim:
        return f"m={m}: nullspace dimension {report.nullspace_dim} != {want_dim}"
    if report.trivial_dim != m // 2:
        return f"m={m}: trivial dimension {report.trivial_dim} != {m // 2}"
    return None

