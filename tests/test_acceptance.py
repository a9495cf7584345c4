"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and fails loudly if its claim does not hold at the stated size and tolerance.
Everything here is exact integer arithmetic; "tolerance" only ever refers to
runtime budgets.
"""

import time

from tablepaths.deltaops import (
    verify_action_theorem,
    verify_addition_theorem,
    verify_bridge_lemma,
    verify_classical,
    verify_closed_forms,
    verify_compose_factorization,
    verify_congruence,
    verify_partial_sums,
    verify_product_theorem,
    verify_uniform_factorization,
)
from tablepaths.gfmatrix import Verdict
from tablepaths.pathtable import build_table, verify_oracle
from tablepaths.recurrence import (
    minimal_recurrence,
    row_constant_combinations,
    verify_constant_combinations,
    verify_determinants,
    verify_minimality,
    verify_polynomial_equivalence,
    verify_window_determinants,
)
from tablepaths.singer import singer_scan

FULL_ORDER_GF2 = (2, 3, 5, 9, 11, 14, 23, 26, 29, 35, 39, 41, 53)
FULL_ORDER_GF3 = (3, 5, 9, 11, 23, 29, 35, 39, 41)


def _report(num, name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {mark}  {name}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_enumeration_oracle(first_failure):
    start = time.perf_counter()
    disagreement = first_failure(verify_oracle, 6, 10, 10)
    elapsed = time.perf_counter() - start
    _report(1, "table equals direct path enumeration",
            disagreement is None and elapsed < 60,
            disagreement or f"m<=6 x<=10, {elapsed:.1f}s")


def test_criterion_02_seven_row_figure():
    table = build_table(7, 5)
    ok = (table.row(1) == (1, 2, 5, 13, 35)
          and table.row(2)[:4] == (1, 3, 8, 22)
          and table.row(3)[:3] == (1, 3, 9))
    _report(2, "m=7 table opens 1,2,5,13,35 / 1,3,8,22 / 1,3,9", ok)


def test_criterion_03_minimal_recurrences(first_failure, recurrence_holds):
    rec3 = minimal_recurrence(3)
    rec5 = minimal_recurrence(5)
    ok = (str(rec3) == "a(n+2)=2a(n+1)+a(n)"
          and str(rec5) == "a(n+3)=3a(n+2)-2a(n)")
    detail = ""
    for m, rec in ((3, rec3), (5, rec5)):
        table = build_table(m, 30 + rec.k)
        rows_ok = all(recurrence_holds(rec, table.row(y), 30)
                      for y in range(1, m + 1))
        sums_ok = recurrence_holds(rec, table.column_sums(), 30)
        ok = ok and rows_ok and sums_ok
        if not (rows_ok and sums_ok):
            detail = f"m={m} fails to annihilate"
    shorter = first_failure(verify_minimality, 10, 0)
    ok = ok and shorter is None
    _report(3, "minimal recurrences for m=3 and m=5, no shorter exists",
            ok, detail or shorter or "annihilates rows and sums to n=30")


def test_criterion_04_determinant_lemma():
    failure = verify_determinants(48)
    _report(4, "reduced determinant matches the period-6 formula, m<=48",
            failure is None, failure or "")


def test_criterion_05_window_determinants(first_failure):
    failure = first_failure(verify_window_determinants, 10, 12, 12)
    _report(5, "k consecutive reduced columns have determinant det^n",
            failure is None, failure or "m<=10 n<=12")


def test_criterion_06_three_polynomials(first_failure):
    failure = first_failure(verify_polynomial_equivalence, 24, 0)
    _report(6, "charpoly = shifted operator polynomial = recurrence polynomial",
            failure is None, failure or "m<=24")


def test_criterion_07_operator_identity_suite():
    start = time.perf_counter()
    failure = (verify_addition_theorem(12)
               or verify_action_theorem(12)
               or verify_product_theorem(12)
               or verify_congruence(12)
               or verify_bridge_lemma(40)
               or verify_partial_sums(40)
               or verify_compose_factorization(10, 64)
               or verify_uniform_factorization(64))
    elapsed = time.perf_counter() - start
    _report(7, "addition/action/product/congruence/bridge/sums/factorization",
            failure is None and elapsed < 60,
            failure or f"a,b<=12 n<=40 factorization<=64, {elapsed:.1f}s")


def test_criterion_08_closed_forms():
    failure = verify_closed_forms(40)
    _report(8, "binomial-sum closed forms equal the recursive members, n<=40",
            failure is None, failure or "")


def test_criterion_09_classical_polynomials():
    failure = verify_classical(20)
    _report(9, "Chebyshev/Fibonacci/Lucas comparisons, n<=20",
            failure is None, failure or "")


def test_criterion_10_rows_theorem(first_failure):
    failure = first_failure(verify_constant_combinations, 13, 5)
    witness = row_constant_combinations(5, n_probe=30)
    witness_ok = (witness.exists
                  and witness.alphas == (1, 0, -1, 0, 1)
                  and witness.lam == 1
                  and witness.verified_up_to == 30)
    _report(10, "constant row combinations exist iff m = 1 mod 4, m<=13",
            failure is None and witness_ok,
            failure or "m=5 witness rows 1-3+5 = 1 up to n=30")


def test_criterion_11_singer_membership():
    start = time.perf_counter()
    even2 = singer_scan("E", 2, 1, 53)
    even3 = singer_scan("E", 3, 1, 41)
    elapsed = time.perf_counter() - start

    ok2 = even2.full_order_ns() == FULL_ORDER_GF2
    # the published table starts at n=2; the 1x1 case over GF(3) is the
    # trivial full-order boundary (order of 2 mod 3 is 2 = 3-1)
    got3 = tuple(n for n in even3.full_order_ns() if n >= 2)
    boundary3 = even3.entries[0]
    ok3 = (got3 == FULL_ORDER_GF3
           and boundary3.verdict is Verdict.FULL_ORDER
           and boundary3.order == 2)
    ok1_gf2 = even2.entries[0].verdict is Verdict.NOT_INVERTIBLE

    # starved of factoring budget, a large case must admit ignorance
    starved = singer_scan("E", 2, 53, 53, budget=0).entries[0]
    honest = starved.verdict is Verdict.UNKNOWN

    ok = ok2 and ok3 and ok1_gf2 and honest and elapsed < 600
    detail = f"q=2 n<=53 and q=3 n<=41, {elapsed:.1f}s"
    if not ok2:
        detail = f"q=2 got {even2.full_order_ns()}"
    elif not ok3:
        detail = f"q=3 got {got3}, n=1 {boundary3.verdict.value}"
    elif not honest:
        detail = f"budget=0 gave {starved.verdict.value}, not UNKNOWN"
    _report(11, "even-family full-order sizes match the published rows", ok,
            detail)


def test_criterion_12_odd_family_powers_of_two():
    report = singer_scan("O", 3, 1, 32)
    boundary = report.entries[0]
    ok = (report.full_order_ns() == (2, 4, 8, 16, 32)
          and boundary.verdict is Verdict.NOT_FULL
          and boundary.order == 1)
    _report(12, "odd family over GF(3) has full order exactly at 2,4,8,16,32",
            ok, "n=1 is the identity boundary case")
