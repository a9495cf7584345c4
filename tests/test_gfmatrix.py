import ast
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
    even_matrix,
    family_charpoly,
    odd_matrix,
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


def test_budget_zero_leaves_a_cofactor():
    big = (2**67 - 1)  # semiprime with 9- and 12-digit factors
    result = factor(big, budget=0)
    assert not result.complete
    assert result.cofactor > 1
    assert result.product() == big


def test_factorization_product_and_round_trip():
    f = factor(3600)
    assert f.product() == 3600
    assert f.primes() == (2, 3, 5)
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
    mat = GFMatrix.from_rows(odd_matrix(2), 3)
    assert mat.pow(0).is_identity()
    assert mat.pow(1) == mat


def test_odd_two_by_two_has_order_eight_mod_three():
    mat = GFMatrix.from_rows(odd_matrix(2), 3)
    assert mat.pow(2).rows() == ((0, 2), (1, 0))
    assert mat.pow(4).rows() == ((2, 0), (0, 2))
    assert mat.pow(8).is_identity()
    assert not mat.pow(4).is_identity()


def test_even_two_by_two_has_order_three_mod_two():
    mat = GFMatrix.from_rows(even_matrix(2), 2)
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
        mat = GFMatrix.from_rows(even_matrix(n), 2)
        assert (mat.det() == 0) == (n % 3 == 1), n


def test_templates_invertible_mod_three():
    for n in range(1, 21):
        assert GFMatrix.from_rows(even_matrix(n), 3).det() != 0, n
        assert GFMatrix.from_rows(odd_matrix(n), 3).det() != 0, n


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
                                      (2**31 - 1, 3)])
def test_engine_matches_matrix_route(family, q, n_max):
    # 2**31 - 1 needs slots wider than 8 bytes.
    template = even_matrix if family is MatrixFamily.EVEN else odd_matrix
    for n in range(1, n_max + 1):
        want = matrix_route(GFMatrix.from_rows(template(n), q))
        assert order_is_full(family_charpoly(family, n), q) == want, n


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
