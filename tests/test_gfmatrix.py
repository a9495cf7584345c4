import ast
import random
from functools import lru_cache
from itertools import product
from math import gcd, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablepaths import gfmatrix
from tablepaths.docs import parse_document, render_document
from tablepaths.errors import DomainError
from tablepaths.gfmatrix import (
    GFMatrix,
    MatrixFamily,
    OrderResult,
    ScanEntry,
    SingerReport,
    Verdict,
    factor,
    is_prime,
    order_is_full,
)
from tablepaths.recurrence import (
    charpoly,
    family_charpoly,
    reduced_matrix,
    singer_scan,
)

# -- primality -------------------------------------------------------------------


def test_small_primes_and_composites():
    def slow_is_prime(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(-3, 300):
        assert is_prime(n) == slow_is_prime(n), n


def test_known_strong_pseudoprimes_rejected():
    # strong pseudoprimes to the first few bases; must still be composite here
    for n in (3215031751, 3474749660383, 341550071728321):
        assert not is_prime(n)


def test_large_primes_recognized():
    assert is_prime(2**61 - 1)
    assert is_prime(2**89 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_is_prime_agrees_with_sympy_above_the_proven_limit():
    sympy = pytest.importorskip("sympy")
    import random

    mersenne = [2**p - 1 for p in (89, 107, 127, 521, 607, 1279, 2203)]
    composite = [2**p - 1 for p in (83, 97, 101, 103, 109, 113, 131, 1277)]
    rng = random.Random(3_317)
    odd = [rng.randrange(gfmatrix._MR_PROVEN_LIMIT, 2**400) | 1
           for _ in range(300)]
    # Products of two primes near the limit pass trial division.
    semiprime = [int(sympy.nextprime(rng.randrange(2**41, 2**42)))
                 * int(sympy.nextprime(rng.randrange(2**41, 2**42)))
                 for _ in range(20)]
    for n in mersenne + composite + odd + semiprime:
        assert n > gfmatrix._MR_PROVEN_LIMIT
        assert is_prime(n) == sympy.isprime(n), n
    assert all(map(is_prime, mersenne))
    assert not any(map(is_prime, composite + semiprime))
    assert any(map(is_prime, odd))


def naive_factor(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@given(n=st.integers(2, 10**6))
@settings(max_examples=80)
def test_factor_matches_trial_division(n):
    result = factor(n)
    assert result.complete
    assert result.cofactor == 1
    flat = sorted(p for p, e in result.factors for _ in range(e))
    assert flat == naive_factor(n)


def test_factor_known_values():
    assert factor(2047).factors == ((23, 1), (89, 1))
    assert factor(1024).factors == ((2, 10),)
    assert factor(2**61 - 1).factors == ((2**61 - 1, 1),)
    assert factor(1).factors == ()
    assert factor(1).complete


def test_factor_rejects_nonpositive():
    with pytest.raises(DomainError):
        factor(0)
    with pytest.raises(DomainError):
        factor(-6)


def test_negative_budget_is_rejected():
    with pytest.raises(DomainError):
        factor(2**67 - 1, budget=-10)
    with pytest.raises(DomainError):
        order_is_full((0, 1), 2, budget=-1)


def loop_factor(n, budget):
    """``factor`` with its earlier trial division, one prime at a time up
    to the square root of what is left, as the reference for the gcd route.
    The rest goes to ``factor``, whose trial division then finds nothing: the
    rest is 1, a prime, or has no prime factor below the trial bound."""
    counts = {}
    rem = n
    for p in gfmatrix._SMALL_PRIMES:
        if p * p > rem:
            break
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    rest = factor(rem, budget)
    for p, e in rest.factors:
        counts[p] = counts.get(p, 0) + e
    return gfmatrix.PrimeFactorization(n, tuple(sorted(counts.items())),
                                       rest.cofactor)


# Primes just below the trial bound 10**4, alone or squared, are what the
# gcd's loop leaves in g at its end; primes above the bound stay for rho.
NEAR_BOUND = [9929, 9931, 9941, 9949, 9967, 9973, 9973**2, 9967**2,
              10007, 10009, 10037, 65537, 2**31 - 1, 2**61 - 1]


@given(parts=st.lists(st.one_of(st.sampled_from(NEAR_BOUND),
                                st.integers(1, 10**4)), max_size=6),
       budget=st.sampled_from([0, 2000]))
@settings(max_examples=150, deadline=None)
def test_factor_matches_the_trial_division_loop(parts, budget):
    n = prod(parts)
    assert factor(n, budget) == loop_factor(n, budget)


def test_budget_zero_leaves_a_cofactor():
    big = (2**67 - 1)  # semiprime with 9- and 12-digit factors
    result = factor(big, budget=0)
    assert not result.complete
    assert result.cofactor > 1
    assert result.product() == big


def test_factorization_product_and_round_trip():
    f = factor(3600)
    assert f.product() == 3600
    assert f.factors == ((2, 4), (3, 2), (5, 2))
    report = SingerReport(MatrixFamily.EVEN, 2, 1, 1,
                          (ScanEntry(1, Verdict.NOT_FULL, None, f),))
    assert parse_document(render_document(report)).entries[0].factorization == f


# -- matrices over GF(q) ------------------------------------------------------------


def test_from_rows_reduces_entries():
    mat = GFMatrix.from_rows(((5, -1), (7, 3)), 3)
    assert mat.rows() == ((2, 2), (1, 0))


def test_identity_and_powers():
    eye = GFMatrix.identity(3, 5)
    assert eye.is_identity()
    assert eye.pow(10) == eye
    mat = GFMatrix.from_rows(reduced_matrix(3), 3)
    assert mat.pow(0).is_identity()
    assert mat.pow(1) == mat


def test_odd_two_by_two_has_order_eight_mod_three():
    mat = GFMatrix.from_rows(reduced_matrix(3), 3)
    assert mat.pow(2).rows() == ((0, 2), (1, 0))
    assert mat.pow(4).rows() == ((2, 0), (0, 2))
    assert mat.pow(8).is_identity()
    assert not mat.pow(4).is_identity()


def test_even_two_by_two_has_order_three_mod_two():
    mat = GFMatrix.from_rows(reduced_matrix(4), 2)
    assert mat.rows() == ((1, 1), (1, 0))
    assert mat.pow(3).is_identity()
    assert not mat.pow(2).is_identity()


@given(
    q=st.sampled_from((2, 3, 5)),
    a=st.integers(0, 12),
    b=st.integers(0, 12),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40)
def test_power_laws(q, a, b, seed):
    import random

    rng = random.Random(seed)
    rows = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
    mat = GFMatrix.from_rows(rows, q)
    assert mat.pow(a) @ mat.pow(b) == mat.pow(a + b)
    assert mat.pow(a).pow(b) == mat.pow(a * b)


def test_determinant_matches_integer_determinant():
    from tablepaths.recurrence import det_bareiss

    rows = ((3, 1, 4), (1, 5, 9), (2, 6, 5))
    for q in (2, 3, 5, 7):
        assert GFMatrix.from_rows(rows, q).det() == det_bareiss(rows) % q


def test_order_is_full_requires_prime_and_monic():
    with pytest.raises(DomainError):
        order_is_full((1, 1), 4)
    with pytest.raises(DomainError):
        order_is_full((1, 2), 3)
    with pytest.raises(DomainError):
        order_is_full((1,), 3)


def test_even_template_singular_mod_two_on_a_cycle():
    for n in range(1, 21):
        mat = GFMatrix.from_rows(reduced_matrix(n * 2), 2)
        assert (mat.det() == 0) == (n % 3 == 1), n


def test_templates_invertible_mod_three():
    for n in range(1, 21):
        assert GFMatrix.from_rows(reduced_matrix(n * 2), 3).det() != 0, n
        assert GFMatrix.from_rows(reduced_matrix(n * 2 - 1), 3).det() != 0, n


# -- order classification -------------------------------------------------------------


def test_identity_matrix_is_not_full_order():
    res = order_is_full(family_charpoly(MatrixFamily.ODD, 1), 3)
    assert res.verdict is Verdict.NOT_FULL
    assert res.order == 1


def test_singular_matrix_flagged():
    res = order_is_full(family_charpoly(MatrixFamily.EVEN, 1), 2)
    assert res.verdict is Verdict.NOT_INVERTIBLE
    assert res.order is None


def test_full_order_with_exact_order_attached():
    res = order_is_full(family_charpoly(MatrixFamily.EVEN, 2), 2)
    assert res.verdict is Verdict.FULL_ORDER
    assert res.order == 3
    res = order_is_full(family_charpoly(MatrixFamily.ODD, 2), 3)
    assert res.verdict is Verdict.FULL_ORDER
    assert res.order == 8


def test_unfactorable_group_order_yields_unknown():
    res = order_is_full(family_charpoly(MatrixFamily.EVEN, 53), 2, budget=0)
    assert res.verdict is Verdict.UNKNOWN
    assert not res.factorization.complete


def matrix_route(mat: GFMatrix) -> OrderResult:
    """Order verdict from matrix powers, the reference for the engine."""
    if mat.det() == 0:
        return OrderResult(Verdict.NOT_INVERTIBLE, None, None)
    n_group = mat.q**mat.n - 1
    fact = factor(n_group)
    if not mat.pow(n_group).is_identity():
        return OrderResult(Verdict.NOT_FULL, None, fact)
    if not fact.complete:
        return OrderResult(Verdict.UNKNOWN, None, fact)
    order = n_group
    for p, e in fact.factors:
        for _ in range(e):
            if not mat.pow(order // p).is_identity():
                break
            order //= p
    verdict = Verdict.FULL_ORDER if order == n_group else Verdict.NOT_FULL
    return OrderResult(verdict, order, fact)


@pytest.mark.parametrize("family", list(MatrixFamily))
@pytest.mark.parametrize("q, n_max", [(2, 12), (3, 12), (5, 12), (7, 12),
                                      (1031, 6), (65521, 4), (2**31 - 1, 3)])
def test_engine_matches_matrix_route(family, q, n_max):
    # 2**31 - 1 needs slots wider than 8 bytes; 1031 and 65521 take the
    # q-power map up to n = 6 and 4, the 2**16 end of the benchmark's q range.
    parity = 1 if family is MatrixFamily.ODD else 0
    for n in range(1, n_max + 1):
        want = matrix_route(GFMatrix.from_rows(reduced_matrix(2 * n - parity), q))
        assert order_is_full(family_charpoly(family, n), q) == want, n


factor_once = lru_cache(maxsize=None)(factor)


def refine_route(f, q, budget=None) -> OrderResult:
    """The order engine's earlier route, kept as its reference: x**N = 1 by
    binary powering of x, then the order lowered one prime at a time, each
    candidate a fresh power of x."""
    f = [c % q for c in f]
    if f[0] == 0:
        return OrderResult(Verdict.NOT_INVERTIBLE, None, None)
    n_group = q ** (len(f) - 1) - 1
    fact = factor_once(n_group, budget)
    ring = gfmatrix._Residues(f, q)
    if ring.power_of_x(n_group) != 1:
        return OrderResult(Verdict.NOT_FULL, None, fact)
    if not fact.complete:
        return OrderResult(Verdict.UNKNOWN, None, fact)
    order = n_group
    for p, e in fact.factors:
        for _ in range(e):
            if ring.power_of_x(order // p) != 1:
                break
            order //= p
    verdict = Verdict.FULL_ORDER if order == n_group else Verdict.NOT_FULL
    return OrderResult(verdict, order, fact)


# Every monic f of each size.  (2, 1) has N = 1 and an empty factorization;
# (2, 2) is the q-power map in one-byte slots; (3, 4) and (17, 2) have
# N = 2**4 * 5 and 2**5 * 3**2; q = 3 and 5 take n = q.bit_length() and one
# either side of it.  Together they take both routes in both slot passes.
EVERY_F = [(2, 1), (2, 2), (2, 3), (2, 8), (3, 1), (3, 2), (3, 3), (3, 4),
           (5, 2), (5, 3), (5, 4), (7, 3), (7, 4), (17, 2)]


def test_every_f_cases_take_both_routes_in_both_slot_passes():
    # (takes the q-power map, has one-byte slots)
    assert {(n <= q.bit_length(), 2 * n * (q - 1) ** 2 < 256)
            for q, n in EVERY_F} == {(True, True), (True, False),
                                     (False, True), (False, False)}


@pytest.mark.parametrize("q, n", EVERY_F)
def test_order_engine_matches_refine_route_on_every_f(q, n):
    for low in product(range(q), repeat=n):
        f = [*low, 1]
        assert order_is_full(f, q) == refine_route(f, q), f


@pytest.mark.parametrize("q, n", [(2, 2), (2, 3), (2, 140), (3, 2), (3, 3),
                                  (3, 60), (5, 3), (5, 4), (1031, 11),
                                  (1031, 12), (65521, 16), (65521, 17)])
def test_x_to_q_to_n_takes_the_route_of_its_rule(q, n):
    # n <= q.bit_length(): x**q, then x**(jq) for j = 2..n-1, and no other
    # ring product; otherwise the products of power_of_x(q**n), which for
    # q = 2 are n squarings.
    f = [1] * (n + 1)
    ring = gfmatrix._Residues(f, q)
    products = []
    times = ring.times

    def counted(a, b):
        products.append((a, b))
        return times(a, b)

    ring.times = counted
    got = ring.x_to_q_to_n()
    q_power_map = n <= q.bit_length()
    e = q if q_power_map else q**n
    images = n - 2 if q_power_map else 0
    assert len(products) == e.bit_length() + bin(e).count("1") - 2 + images
    slots = [got >> ring.bits * i & (1 << ring.bits) - 1 for i in range(n)]
    assert slots == list_power_of_x(f, q, q**n)


def poly_from_roots(roots, q):
    f = [1]
    for r in roots:
        f = [(a - r * b) % q for a, b in zip([0, *f], [*f, 0])]
    return f


ORDER_QS = [2, 3, 5, 7, 1031, 65521, 2**31 - 1]


@st.composite
def monic_polys(draw):
    """(q, f): f of degree n <= 16 mod q.  About half are products of
    distinct x - r with r != 0, whose x**N = 1, so that the order is found
    down the product tree."""
    q = draw(st.sampled_from(ORDER_QS))
    n = draw(st.integers(1, 16))
    if n < q and draw(st.booleans()):
        roots = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n,
                              unique=True))
        return q, poly_from_roots(roots, q)
    return q, draw(st.lists(st.integers(0, q - 1), min_size=n,
                            max_size=n)) + [1]


@given(case=monic_polys())
@settings(max_examples=150, deadline=None)
def test_order_engine_matches_refine_route(case):
    q, f = case
    assert order_is_full(f, q, 20_000) == refine_route(f, q, 20_000)


@pytest.mark.parametrize("q, n", [(1031, 2), (1031, 3), (1031, 4),
                                  (65521, 2), (65521, 3)])
def test_order_engine_finds_primitive_f(q, n):
    # The first f that the reference finds primitive: every leaf of the
    # product tree then sees an element that is not 1.
    rng = random.Random(q * 100 + n)
    while True:
        f = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(n - 1)]
        want = refine_route([*f, 1], q)
        if want.verdict is Verdict.FULL_ORDER:
            break
    assert want.order == q**n - 1
    assert order_is_full([*f, 1], q) == want


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_family_charpoly_is_the_reduced_matrix_charpoly(q):
    for m in range(1, 25):
        family = MatrixFamily.ODD if m % 2 else MatrixFamily.EVEN
        got = family_charpoly(family, (m + 1) // 2)
        assert [c % q for c in got] == [c % q for c in charpoly(reduced_matrix(m))]


# -- scans ------------------------------------------------------------------------


def test_scan_handles_small_even_family():
    report = singer_scan(MatrixFamily.EVEN, 2, 1, 8)
    verdicts = {e.n: e.verdict for e in report.entries}
    assert verdicts[1] is Verdict.NOT_INVERTIBLE
    assert verdicts[2] is Verdict.FULL_ORDER
    assert verdicts[3] is Verdict.FULL_ORDER
    assert verdicts[4] is Verdict.NOT_INVERTIBLE
    assert verdicts[6] is Verdict.NOT_FULL
    assert report.full_order_ns() == (2, 3, 5)


def test_scan_validates_inputs():
    with pytest.raises(DomainError):
        singer_scan(MatrixFamily.EVEN, 4, 1, 3)
    with pytest.raises(DomainError):
        singer_scan(MatrixFamily.EVEN, 2, 5, 3)
    with pytest.raises(DomainError):
        singer_scan(MatrixFamily.EVEN, 2, 0, 3)


def test_scan_report_round_trip_ignores_timing():
    report = singer_scan(MatrixFamily.ODD, 3, 1, 6)
    doc = render_document(report)
    again = parse_document(doc)
    assert again == report
    assert render_document(again) == doc


def test_scan_entry_lookup():
    report = singer_scan(MatrixFamily.ODD, 3, 2, 5)
    assert report.entry(4).verdict is Verdict.FULL_ORDER
    with pytest.raises(DomainError):
        report.entry(9)


# -- layering --------------------------------------------------------------------


def test_gfmatrix_imports_only_errors():
    tree = ast.parse(Path(gfmatrix.__file__).read_text(encoding="utf-8"))
    local = [node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level]
    assert local == ["errors"]


# -- Brent rho -----------------------------------------------------------------


def brent_rho_with_abs(n, c, max_steps):
    """The rho loop as it was before it dropped abs(); kept as the reference
    that pins factors and step counts."""
    y, r, q = 2, 1, 1
    g = 1
    steps = 0
    x = ys = y
    batch = 128
    while g == 1 and steps < max_steps:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        steps += r
        k = 0
        while k < r and g == 1:
            ys = y
            chunk = min(batch, r - k)
            for _ in range(chunk):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            steps += chunk
            g = gcd(q, n)
            k += chunk
        r *= 2
    if g == n:
        g = 1
        for _ in range(max_steps - steps if max_steps > steps else batch):
            ys = (ys * ys + c) % n
            steps += 1
            g = gcd(abs(x - ys), n)
            if g > 1:
                break
    if g in (1, n):
        return None, steps
    return g, steps


def test_brent_rho_matches_the_abs_reference():
    rng = random.Random(40_000)
    small = [n for n in range(4, 1300) if not is_prime(n)]
    semiprimes = [p * q for p, q in zip(
        (101, 1009, 10007, 65537, 99991, 104729, 7919, 31337),
        (103, 1013, 10009, 65539, 100003, 1299709, 15485863, 2**31 - 1))]
    composites = small + semiprimes
    assert len(composites) > 1000
    for n in composites:
        for c in (1, 2, 3):
            for cap in (1, rng.randrange(2, 200), 40_000):
                want = brent_rho_with_abs(n, c, cap)
                assert gfmatrix._brent_rho(n, c, cap) == want, (n, c, cap)
    # Small n cycle to g == n: 49 and 55 then find a factor in the backtrack
    # loop, and 4 finds none.
    assert gfmatrix._brent_rho(49, 1, 40_000) == (7, 7)
    assert gfmatrix._brent_rho(55, 1, 40_000) == (5, 7)
    assert gfmatrix._brent_rho(4, 1, 40_000) == (None, 3)


@pytest.mark.xfail(strict=True, reason=(
    "_brent_rho checks its cap only between doubling rounds; a hard cap "
    "changes 8 singer-bigq goldens, so it lands with their regeneration "
    "(ROADMAP item 3)"))
def test_brent_rho_stops_at_its_cap():
    n = (2**61 - 1) * (2**89 - 1)
    for cap in (5000, 100_000):
        found, steps = gfmatrix._brent_rho(n, 1, cap)
        assert found is None
        assert steps <= cap, (cap, steps)


# -- perfect powers --------------------------------------------------------------


def largest_exponent_power(n):
    """The perfect-power search as it was before it tried only prime
    exponents: every e from n.bit_length() down to 2, the largest that fits
    first.  Kept as the reference that pins factorizations and rho steps."""
    for e in range(n.bit_length(), 1, -1):
        r = gfmatrix._iroot(n, e)
        if r > 1 and r**e == n:
            return r, e
    return n, 1


@pytest.mark.parametrize("n, budget", [
    (6**36, None),
    (3**40 * 5**40, None),
    ((2**61 - 1)**4, None),
    ((10007 * 10009)**6 * (2**31 - 1)**9, None),
    (7**5 * ((2**31 - 1) * (2**61 - 1))**12, None),
    (((2**61 - 1) * (2**89 - 1))**6, 5000),
])
def test_factor_on_perfect_powers_matches_the_largest_exponent_search(
        monkeypatch, n, budget):
    rho, prime_exponents = gfmatrix._brent_rho, gfmatrix._perfect_power

    def run(helper):
        calls = []

        def counted(value, c, cap):
            found, used = rho(value, c, cap)
            calls.append((value, c, used))
            return found, used

        monkeypatch.setattr(gfmatrix, "_brent_rho", counted)
        monkeypatch.setattr(gfmatrix, "_perfect_power", helper)
        return gfmatrix.factor(n, budget), calls

    assert run(prime_exponents) == run(largest_exponent_power)


def test_perfect_power_takes_the_largest_prime_exponent():
    for r in (2, 3, 6, 10, 2**13 - 1, 10007 * 10009):
        for e in range(1, 41):
            root, exp = gfmatrix._perfect_power(r**e)
            want_root, want_exp = largest_exponent_power(r**e)
            assert root**exp == r**e
            if want_exp == 1:
                assert (root, exp) == (r**e, 1)
            else:
                assert gfmatrix.is_prime(exp) and want_exp % exp == 0
                assert all(not gfmatrix.is_prime(p) or want_exp % p
                           for p in range(exp + 1, want_exp + 1))


# -- residue rings -----------------------------------------------------------------


def list_reduce(coeffs, f, q):
    """coeffs mod the monic f over GF(q), one leading coefficient at a time."""
    n = len(f) - 1
    coeffs = list(coeffs)
    for d in range(len(coeffs) - 1, n - 1, -1):
        c = coeffs[d] % q
        if c:
            coeffs[d - n:d] = [v - c * w for v, w in zip(coeffs[d - n:d], f)]
    return [v % q for v in coeffs[:n]]


def list_square(a):
    n = len(a)
    rev = a[::-1]
    return [sum(map(mul, a[max(0, k - n + 1):k + 1],
                    rev[max(0, n - 1 - k):2 * n - 1 - k]))
            for k in range(2 * n - 1)]


def list_power_of_x(f, q, e):
    """x**e mod f over GF(q) by left-to-right squaring, on coefficient lists."""
    result = [1] + [0] * (len(f) - 2)
    for bit in bin(e)[2:]:
        result = list_reduce(list_square(result), f, q)
        if bit == "1":
            result = list_reduce([0] + result, f, q)
    return result


# Sizes on both sides of the one-byte slot bound 2n(q-1)**2 < 256, the
# smallest n, where the quotient has at most one slot, and multi-byte slots
# at the ends of the benchmark's q range and past 2**32 per slot.  Each size
# takes a random f and the f whose coefficients are all q - 1.
@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (2, 3), (2, 126), (2, 127),
                                  (2, 128), (3, 31), (3, 32), (5, 7), (5, 8),
                                  (7, 3), (7, 4), (11, 1), (11, 2), (1031, 2),
                                  (65479, 14), (2**31 - 1, 3)])
def test_power_of_x_matches_list_arithmetic(q, n):
    rng = random.Random(q * 1000 + n)
    for f in ([rng.randrange(q) for _ in range(n)] + [1], [q - 1] * n + [1]):
        ring = gfmatrix._Residues(f, q)
        assert (ring.width == 1) == (2 * n * (q - 1) ** 2 < 256)
        mask = 256**ring.width - 1
        for e in (1, n - 1, n, 2 * n, q**n - 1, rng.randrange(1, q**n)):
            if e < 1:
                continue
            got = ring.power_of_x(e)
            slots = [got >> 8 * ring.width * i & mask for i in range(n)]
            assert slots == list_power_of_x(f, q, e), (f, e)
            assert got >> 8 * ring.width * n == 0, (f, e)


@pytest.mark.parametrize("q, n", [(3, 32), (5, 8), (7, 4), (1031, 2),
                                  (25031, 11), (65479, 14), (2**31 - 1, 3),
                                  (1000003, 6)])
def test_wide_slots_reduce_mod_q_by_the_packed_reciprocal(q, n):
    # Slot values from 0 up to the largest that the slot bound B and its
    # bit length a allow, rotated so that each of the 2n - 1 slots of a
    # product meets each value next to different neighbours, and every slot
    # at 2**a - 1.  The largest v < 2**a with v = q - 1 mod q leaves the
    # reciprocal the least room.
    ring = gfmatrix._Residues([1] * (n + 1), q)
    bound = 2 * n * (q - 1) ** 2
    a = bound.bit_length()
    assert ring.width == -(-(2 * a + 1) // 8) > 1
    values = [0, q - 1, q, bound - 1, 2**a - 1, 2**a - 1 - 2**a % q]
    mask = 256**ring.width - 1
    rotations = [[values[(i + turn) % len(values)] for i in range(2 * n - 1)]
                 for turn in range(len(values))]
    for slots in [*rotations, [2**a - 1] * (2 * n - 1)]:
        p = ring.pack(slots)
        got = p - q * (p * ring.m >> ring.s & ring.qmask)
        assert [got >> ring.bits * i & mask for i in range(2 * n - 1)] == [
            v % q for v in slots], slots
        assert got >> ring.bits * (2 * n - 1) == 0
