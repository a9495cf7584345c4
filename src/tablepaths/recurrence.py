"""Reduced transfer matrices and minimal recurrences for count tables.

Row symmetry cuts an m-row table down to its top k = ceil(m/2) rows.  The
reduced columns are advanced by the k x k transfer matrix of the strip
folded at that symmetry: ones on the tridiagonal, plus one more 1 in row k,
where its missing neighbour k + 1 mirrors onto row k for even m and onto
row k - 1 for odd m.  This module builds those matrices,
computes their determinants and characteristic polynomials exactly, derives
each table's minimal linear column recurrence, analyses which constant
linear combinations of full rows exist, and scans the templates' orders over
prime fields.  Each m-indexed identity check reads one table and takes m
from it, so that ``suite.run_suite`` can build one table per m and hand it
to every such check, the recurrence and row-combination checks included.

All linear algebra here is exact and runs through one fraction-free
(Bareiss) Gauss-Jordan elimination over the integers: determinants, the
recurrence solve, ranks and nullspaces.  Fractions appear only in the
reported nullspace vectors.  A template's characteristic polynomial is the
operator family's member at x - 1 (``family_charpoly``); the singer scan
decides each order on it with ``gfmatrix.order_is_full``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .deltaops import (ONE, DeltaPoly, Family, Windows, _shape, _slot_width,
                       base_constant, multiplier, parity_family)
from .errors import DomainError, InternalInconsistencyError
from .gfmatrix import MatrixFamily, ScanEntry, SingerReport, order_is_full
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
    rows = [[1 if abs(i - j) <= 1 else 0 for j in range(k)] for i in range(k)]
    if m > 1:
        rows[k - 1][k - 1 - m % 2] += 1
    return tuple(tuple(r) for r in rows)


# -- exact elimination -------------------------------------------------------


def _gauss_jordan(rows) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns (a, pivots, scale, sign): a is scale times the reduced row
    echelon form, with row t holding the pivot of column pivots[t]; scale is
    the last pivot (1 when there is none) and sign the parity of the row
    swaps.  Each step replaces every other row by (p * row - row[c] * top)
    divided by the previous pivot; the entries stay integer minors of the
    input, so every division is exact.
    """
    a = [list(r) for r in rows]
    pivots: list[int] = []
    prev = sign = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
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
        prev = p
        if r + 1 == len(a):
            break
    return a, pivots, prev, sign


def det_bareiss(rows) -> int:
    """Exact determinant: the swap sign times the last fraction-free pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("determinant needs a square matrix")
    _, pivots, scale, sign = _gauss_jordan(rows)
    return sign * scale if len(pivots) == n else 0


def _nullspace(rows, cols: int) -> list[tuple[Fraction, ...]]:
    """Canonical nullspace basis, one vector per free column of the RREF."""
    a, pivots, scale, _ = _gauss_jordan(rows)
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


def family_charpoly(family: MatrixFamily, n: int) -> tuple[int, ...]:
    """Characteristic polynomial of the family's n x n template, ascending
    coefficients: the operator family's index-n member evaluated at x - 1,
    i.e. its ``shift_coeffs``, the same Taylor shift that backs
    ``DeltaPoly.apply``."""
    ops = Family.EVEN if family is MatrixFamily.EVEN else Family.ODD
    return multiplier(ops, n).shift_coeffs


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

    def satisfied_by(self, seq, n: int) -> bool:
        """Check the recurrence at index n of a 1-based sequence."""
        if n < 1 or n - 1 + self.k >= len(seq):
            raise DomainError(f"need sequence values up to index {n + self.k}")
        lhs = seq[n - 1 + self.k]
        rhs = sum(self.alphas[j] * seq[n - 1 + j] for j in range(self.k))
        return lhs == rhs


def minimal_recurrence(m: int) -> Recurrence:
    """Minimal linear recurrence advancing the reduced columns of the table.

    Solves [col(1) ... col(k)] alpha = col(k+1) exactly on the top k rows
    of the first k + 1 columns, that system's augmented matrix; the theory
    guarantees integer coefficients with alphas[0] != 0, and both facts are
    asserted rather than assumed.
    """
    return _table_recurrence(build_table(m, (m + 1) // 2 + 1))


def _table_recurrence(table: PathTable) -> Recurrence:
    k = table.k
    a, pivots, scale, _ = _gauss_jordan(
        [[table.cell(x, y) for x in range(1, k + 2)] for y in range(1, k + 1)])
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
class EquivalenceReport:
    """Three independently derived degree-k polynomials, compared."""

    m: int
    charpoly: tuple[int, ...]
    operator_poly: tuple[int, ...]
    recurrence_poly: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.charpoly) - 1

    @property
    def equal(self) -> bool:
        return self.charpoly == self.operator_poly == self.recurrence_poly


def equivalence_report(m: int) -> EquivalenceReport:
    """Characteristic, shifted-operator and recurrence polynomials for m."""
    return _equivalence(m, minimal_recurrence(m))


def _equivalence(m: int, rec: Recurrence) -> EquivalenceReport:
    family = MatrixFamily.ODD if m % 2 else MatrixFamily.EVEN
    return EquivalenceReport(m, charpoly(reduced_matrix(m)),
                             family_charpoly(family, rec.k), rec.poly())


@dataclass(frozen=True)
class RecurrenceReport:
    """Bundle of the minimal recurrence and its polynomial equivalence."""

    recurrence: Recurrence
    equivalence: EquivalenceReport

    @property
    def m(self) -> int:
        return self.equivalence.m


def recurrence_report(m: int) -> RecurrenceReport:
    rec = minimal_recurrence(m)
    return RecurrenceReport(rec, _equivalence(m, rec))


# -- window determinants -----------------------------------------------------


def window_det(table: PathTable, shift: int) -> int:
    """Determinant of k consecutive reduced columns starting at shift + 1."""
    if shift < 0:
        raise DomainError(f"shift must be >= 0, got {shift}")
    k = table.k
    if shift + k > table.n_max:
        raise DomainError(
            f"window needs columns up to {shift + k}, table has {table.n_max}")
    rows = [[table.cell(shift + 1 + j, i + 1) for j in range(k)]
            for i in range(k)]
    return det_bareiss(rows)


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
    diff = [[table.cell(n + 1, i) - table.cell(n, i) for i in range(1, m + 1)]
            for n in range(1, n_probe)]
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
        for n in range(1, n_probe + 1):
            got = sum(alphas[i] * table.cell(n, i + 1) for i in range(m))
            if got != lam:
                raise InternalInconsistencyError(
                    f"witness for m={m} gives {got} at n={n}, expected {lam}")
        if not report.exists:
            raise InternalInconsistencyError(
                f"m={m}: witness exists but nullspace scan found none")
    return report


# -- identity verifiers over tables ------------------------------------------


def verify_transfer(table: PathTable, n_max: int = 30) -> str | None:
    """Reduced matrix advances reduced columns: on rows, the shift E sends
    row y to the combination of rows 1..k in row y of the matrix."""
    mat = reduced_matrix(table.m)
    shift = DeltaPoly((1, 1))
    w = Windows(n_max, table.rows[:len(mat)], (ONE, shift),
                weight=max(map(sum, mat)))
    got = [w.apply(ONE, sum(map(mul, r, w.seqs))) for r in mat]
    want = [w.apply(shift, row) for row in w.seqs]
    if hit := w.first_difference(zip(got, want)):
        n = hit[0]
        got_n = tuple(w.values(v)[n - 1] for v in got)
        want_n = tuple(w.values(v)[n - 1] for v in want)
        return f"m={table.m} n={n}: {got_n} != {want_n}"
    return None


def verify_annihilation(table: PathTable, n_max: int = 30) -> str | None:
    """The index-k family member sends every row and the column sums to 0."""
    m, k = table.m, table.k
    poly = multiplier(parity_family(m), k)
    rows = table.rows
    # A lower row y > k equal to its mirror m + 1 - y has the same values,
    # so only lower rows that differ are applied.
    checked = [y for y in range(1, m + 1)
               if y <= k or rows[y - 1] != rows[m - y]]
    w = Windows(n_max, [*(rows[y - 1] for y in checked), table.column_sums()],
                (poly,))
    if hit := w.first_difference((w.apply(poly, seq), w.zero)
                                 for seq in w.seqs):
        n, i = hit
        where = f"row {checked[i]}" if i < len(checked) else "sums"
        return f"m={m} {where} n={n}: not annihilated"
    return None


def verify_column_sum_bridge(table: PathTable, n_max: int = 30) -> str | None:
    """(2 - D) applied to the column sums equals twice the first row."""
    two_minus_delta, two = DeltaPoly((2, -1)), DeltaPoly((2,))
    w = Windows(n_max, (table.column_sums(), table.row(1)),
                (two_minus_delta, two))
    sums, first = w.seqs
    if hit := w.first_difference([(w.apply(two_minus_delta, sums),
                                   w.apply(two, first))]):
        return f"m={table.m} n={hit[0]}: bridge identity fails"
    return None


def verify_row_equivalence(table: PathTable, n_max: int = 25) -> str | None:
    """Any row determines any other through the two transport identities."""
    m, k = table.m, table.k
    family = [multiplier(parity_family(m), j) for j in range(k)]
    prime = [multiplier(Family.PRIME, j) for j in range(k)]
    w = Windows(n_max, table.rows[:k], family + prime)
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
    odd = [multiplier(Family.ODD, b) for b in range(k // 2 + 1)]
    w = Windows(n_max, table.rows[:k], (ONE, *odd), weight=2)
    rows = w.seqs
    for a in range(1, k + 1):
        for b in range(0, min(a, k - a) + 1):
            low = rows[a - b - 1] if a - b >= 1 else 0
            want = w.apply(ONE, low + rows[a + b - 1])
            if hit := w.first_difference([(w.apply(odd[b], rows[a - 1]),
                                           want)]):
                return f"m={table.m} a={a} b={b} n={hit[0]}: split fails"
    return None


def verify_column_sum_formulas(table: PathTable, n_max: int = 25) -> str | None:
    """Column sums are determined by any single row, three ways."""
    m, k = table.m, table.k
    fam = parity_family(m)
    base = base_constant(fam)
    # Twice the partial sum of the family equals twice its closed form (the
    # partial-sums identity), so the two are compared once, not per row.
    twice_members = 2 * sum((multiplier(fam, j) for j in range(1, k)),
                            DeltaPoly((1,)))
    if twice_members != 2 * (multiplier(Family.PRIME, k - 1)
                             + (base - 1) * multiplier(Family.PRIME, k - 2)):
        return f"m={m}: combined form differs from the partial-sum form"
    if fam is Family.ODD:
        prime_side = (multiplier(Family.PRIME, k - 1)
                      + 2 * sum((multiplier(Family.PRIME, j)
                                 for j in range(k - 1)), DeltaPoly(())))
    else:
        prime_side = 2 * sum((multiplier(Family.PRIME, j)
                              for j in range(k)), DeltaPoly(()))
    lhs_polys = [multiplier(fam, k - a) for a in range(1, k + 1)]
    prime_lhs = [multiplier(Family.PRIME, a - 1) for a in range(1, k + 1)]
    w = Windows(n_max, [*table.rows[:k], table.column_sums()],
                (*lhs_polys, *prime_lhs, twice_members, prime_side))
    *rows, sums = w.seqs
    for a, row_a in enumerate(rows, 1):
        hit = w.first_difference((
            (w.apply(lhs_polys[a - 1], sums), w.apply(twice_members, row_a)),
            (w.apply(prime_lhs[a - 1], sums), w.apply(prime_side, row_a))))
        if hit:
            n, i = hit
            return (f"m={m} a={a} n={n}: "
                    f"{('partial-sum', 'prime')[i]} form fails")
    return None


def verify_determinants(m_max: int = 48) -> str | None:
    """Elimination equals the closed periodic formula, plus the step relation."""
    dets = [det_reduced_direct(m) for m in range(1, m_max + 1)]
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


def verify_polynomial_equivalence(table: PathTable) -> str | None:
    """Characteristic, operator and recurrence polynomials coincide."""
    report = _equivalence(table.m, _table_recurrence(table))
    if not report.equal:
        return (f"m={table.m}: {report.charpoly} vs {report.operator_poly} "
                f"vs {report.recurrence_poly}")
    return None


def verify_charpoly_recursion(m_max: int = 24) -> str | None:
    """det(xI - A_k) = (x - 1) det(xI - A_{k-1}) - det(xI - A_{k-2})."""
    x_minus_1 = DeltaPoly((-1, 1))
    k_max = (m_max + 1) // 2
    for parity, name in ((1, "odd"), (0, "even")):
        polys = [DeltaPoly(charpoly(reduced_matrix(2 * k - parity)))
                 for k in range(1, k_max + 1)]
        for i in range(2, len(polys)):
            want = x_minus_1 * polys[i - 1] - polys[i - 2]
            if polys[i] != want:
                return f"{name}_matrix k={i + 1}: recursion fails"
    return None


def verify_minimality(table: PathTable) -> str | None:
    """No recurrence of order below k fits the first row.

    For each candidate order below k, the shift matrix built from the first
    3k cells of the first row must have full column rank; a rank drop would
    admit a shorter recurrence.
    """
    k = table.k
    for kp in range(1, k):
        rows = [[table.cell(n + j, 1) for j in range(kp + 1)]
                for n in range(1, kp + k + 3)]
        if len(_gauss_jordan(rows)[1]) != kp + 1:
            return f"m={table.m}: rank drop at candidate order {kp}"
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


# -- template orders over prime fields ----------------------------------------


def singer_scan(family: MatrixFamily, q: int, n_lo: int, n_hi: int,
                budget: int | None = None) -> SingerReport:
    """Order verdicts for the family templates of sizes n_lo..n_hi mod q."""
    if n_lo < 1 or n_hi < n_lo:
        raise DomainError(f"bad scan range {n_lo}..{n_hi}")
    entries = []
    for n in range(n_lo, n_hi + 1):
        # Both templates have ones along the whole superdiagonal, so the
        # rows e1, e1 A, ..., e1 A^(n-1) are triangular with unit pivots over
        # every field, mod 2 too, where the odd template's corner 2 vanishes.
        # Each template is therefore nonderogatory: its minimal polynomial
        # mod q is its characteristic polynomial for every q, and its order
        # is the order of x modulo that polynomial.
        result = order_is_full(family_charpoly(family, n), q, budget)
        entries.append(ScanEntry(
            n=n,
            verdict=result.verdict,
            order=result.order,
            factorization=result.factorization,
        ))
    return SingerReport(
        family=family,
        q=q,
        n_lo=n_lo,
        n_hi=n_hi,
        entries=tuple(entries),
    )

