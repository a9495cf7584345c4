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

from .deltaops import DeltaPoly, Family, multiplier, parity_family
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
    by Faddeev-LeVerrier; every division is exact for integer matrices."""
    k = len(rows)
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    work = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for step in range(1, k + 1):
        cols = list(zip(*work))
        work = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        trace = sum(work[i][i] for i in range(k))
        if trace % step:
            raise InternalInconsistencyError(
                f"non-integral trace division at step {step}")
        c = -trace // step
        coeffs[k - step] = c
        for i in range(k):
            work[i][i] += c
    return tuple(coeffs)


# -- minimal column recurrence -----------------------------------------------


@dataclass(frozen=True)
class Recurrence:
    """a(n+k) = alphas[0]*a(n) + alphas[1]*a(n+1) + ... + alphas[k-1]*a(n+k-1)."""

    k: int
    alphas: tuple[int, ...]

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
    return Recurrence(k, alphas)


# -- the three-polynomial equivalence ----------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Three independently derived degree-k polynomials, compared."""

    m: int
    k: int
    charpoly: tuple[int, ...]
    operator_poly: tuple[int, ...]
    recurrence_poly: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.charpoly == self.operator_poly == self.recurrence_poly


def equivalence_report(m: int) -> EquivalenceReport:
    """Characteristic, shifted-operator and recurrence polynomials for m."""
    return _equivalence(m, minimal_recurrence(m))


def _equivalence(m: int, rec: Recurrence) -> EquivalenceReport:
    family = MatrixFamily.ODD if m % 2 else MatrixFamily.EVEN
    return EquivalenceReport(m, rec.k, charpoly(reduced_matrix(m)),
                             family_charpoly(family, rec.k), rec.poly())


@dataclass(frozen=True)
class RecurrenceReport:
    """Bundle of the minimal recurrence and its polynomial equivalence."""

    m: int
    recurrence: Recurrence
    equivalence: EquivalenceReport


def recurrence_report(m: int) -> RecurrenceReport:
    rec = minimal_recurrence(m)
    return RecurrenceReport(m, rec, _equivalence(m, rec))


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
    interesting question is whether anything else does; the answer is yes
    exactly when m = 1 (mod 4), and then a witness with constant value
    lam = 1 supported on odd positions is reported.
    """

    m: int
    n_probe: int
    exists: bool
    lam: int | None
    alphas: tuple[int, ...]
    verified_up_to: int
    nullspace_dim: int
    trivial_dim: int
    basis: tuple[tuple[str, tuple[Fraction, ...]], ...]


def _symmetric_part(vec, m: int):
    return [vec[i] + vec[m - 1 - i] for i in range(m)]


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
    basis = _nullspace(diff, m)
    classified = []
    exists = False
    for vec in basis:
        sym = _symmetric_part(vec, m)
        first_sym = next((s for s in sym if s != 0), None)
        if first_sym is None:
            kind = "trivial"
            first = next((v for v in vec if v != 0), Fraction(1))
            vec = tuple(v / first for v in vec)
        else:
            kind = "nontrivial"
            exists = True
            vec = tuple(v / first_sym for v in vec)
        classified.append((kind, vec))
    trivial_dim = sum(1 for kind, _ in classified if kind == "trivial")

    lam: int | None = None
    alphas: tuple[int, ...] = ()
    if m % 4 == 1:
        lam = 1
        alphas = _witness(m)
        for n in range(1, n_probe + 1):
            got = sum(alphas[i] * table.cell(n, i + 1) for i in range(m))
            if got != lam:
                raise InternalInconsistencyError(
                    f"witness for m={m} gives {got} at n={n}, expected {lam}")
        if not exists:
            raise InternalInconsistencyError(
                f"m={m}: witness exists but nullspace scan found none")
    return RowComboReport(
        m=m,
        n_probe=n_probe,
        exists=exists,
        lam=lam,
        alphas=alphas,
        verified_up_to=n_probe,
        nullspace_dim=len(basis),
        trivial_dim=trivial_dim,
        basis=tuple(classified),
    )


# -- identity verifiers over tables ------------------------------------------


def verify_transfer(table: PathTable, n_max: int = 30) -> str | None:
    """Reduced matrix advances reduced columns."""
    mat = reduced_matrix(table.m)
    for n in range(1, n_max + 1):
        col = table.column(n)
        got = tuple(sum(map(mul, r, col)) for r in mat)
        want = table.column(n + 1)[:len(mat)]
        if got != want:
            return f"m={table.m} n={n}: {got} != {want}"
    return None


def verify_annihilation(table: PathTable, n_max: int = 30) -> str | None:
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


def verify_column_sum_bridge(table: PathTable, n_max: int = 30) -> str | None:
    """(2 - D) applied to the column sums equals twice the first row."""
    two_minus_delta = DeltaPoly((2, -1))
    sums = table.column_sums()
    for n in range(1, n_max + 1):
        if two_minus_delta.apply(sums, n) != 2 * table.cell(n, 1):
            return f"m={table.m} n={n}: bridge identity fails"
    return None


def verify_row_equivalence(table: PathTable, n_max: int = 25) -> str | None:
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


def verify_table_action(table: PathTable, n_max: int = 25) -> str | None:
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


def verify_column_sum_formulas(table: PathTable, n_max: int = 25) -> str | None:
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

