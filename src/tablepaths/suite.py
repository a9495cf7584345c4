"""The named identity-check suite behind the CLI's verify command; it
builds one table per m and hands it to every m-indexed check."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import deltaops, pathtable, recurrence
from .errors import DomainError


@dataclass(frozen=True)
class CheckResult:
    name: str
    detail: str | None
    elapsed: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return self.detail is None


@dataclass(frozen=True)
class VerifyReport:
    m_max: int
    n_max: int
    checks: tuple[CheckResult, ...]
    elapsed: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_suite(m_max: int, n_max: int) -> VerifyReport:
    """Run every identity check; table checks scale with m_max and n_max.

    One table per m = 1..m_max, as wide as any table check reads, goes to
    every table check whose m range covers m and that has not failed yet.
    Operator-level identities do not depend on a table, so they always run
    over their standard parameter ranges.  Row-equivalence, table-action
    and column-sum-formulas read min(n_max, max(25, k)) values at each m,
    k = ceil(m/2): where the transfer-matrix check holds, both sides of
    each identity they compare satisfy one recurrence of order k, so once
    they read k values they prove it for every n.  The
    polynomial-equivalence and charpoly-recursion checks share one dict of
    the reduced matrices' characteristic polynomials, so each call computes
    each m's once.  The path-oracle check enumerates the walks of the
    strips m <= 6 up to column min(n_max, 10), at most 90 814 of them, far
    below ``pathtable.DEFAULT_NODE_BUDGET``.
    """
    if m_max < 1 or n_max < 1:
        raise DomainError("m_max and n_max must be >= 1")
    # m -> characteristic polynomial of the reduced matrix, computed once per
    # call for the two checks that read it.
    charpolys: dict[int, tuple[int, ...]] = {}

    def proving(check):
        return lambda table: check(table, min(n_max, max(25, table.k)))

    # (name, last m of its tables or 0 for a check without one, check, *args)
    registry = [
        ("path-oracle", min(m_max, 6), pathtable.verify_oracle, min(n_max, 10)),
        ("closed-forms", 0, deltaops.verify_closed_forms),
        ("addition-theorem", 0, deltaops.verify_addition_theorem),
        ("action-theorem", 0, deltaops.verify_action_theorem),
        ("product-theorem", 0, deltaops.verify_product_theorem),
        ("compose-factorization", 0, deltaops.verify_compose_factorization),
        ("uniform-factorization", 0, deltaops.verify_uniform_factorization),
        ("bridge-lemma", 0, deltaops.verify_bridge_lemma),
        ("partial-sums", 0, deltaops.verify_partial_sums),
        ("congruence", 0, deltaops.verify_congruence),
        ("classical-polynomials", 0, deltaops.verify_classical),
        ("transfer-matrix", m_max, recurrence.verify_transfer, n_max),
        ("annihilation", m_max, recurrence.verify_annihilation, n_max),
        ("column-sum-bridge", m_max, recurrence.verify_column_sum_bridge, n_max),
        ("row-equivalence", m_max, proving(recurrence.verify_row_equivalence)),
        ("table-action", m_max, proving(recurrence.verify_table_action)),
        ("column-sum-formulas", m_max,
         proving(recurrence.verify_column_sum_formulas)),
        ("determinant-lemma", 0, recurrence.verify_determinants, max(m_max, 48)),
        ("window-determinants", min(m_max, 10), recurrence.verify_window_determinants),
        ("polynomial-equivalence", m_max, recurrence.verify_polynomial_equivalence,
         charpolys),
        ("charpoly-recursion", 0, recurrence.verify_charpoly_recursion, max(m_max, 24),
         charpolys),
        ("recurrence-minimality", min(m_max, 10), recurrence.verify_minimality),
        ("constant-combinations", min(m_max, 13),
         recurrence.verify_constant_combinations),
    ]
    details: dict[str, str | None] = {}
    elapsed: dict[str, float] = {}

    def run(name, fn, *args) -> None:
        start = time.perf_counter()
        details[name] = fn(*args)
        elapsed[name] = elapsed.get(name, 0.0) + time.perf_counter() - start

    start_all = time.perf_counter()
    for m in range(1, m_max + 1):
        table = pathtable.build_table(m, max(n_max, 12) + (m + 1) // 2)
        for name, m_last, fn, *args in registry:
            if m <= m_last and details.get(name) is None:
                run(name, fn, table, *args)
    for name, m_last, fn, *args in registry:
        if not m_last:
            run(name, fn, *args)
    results = tuple(CheckResult(name, details[name], elapsed[name])
                    for name, *_ in registry)
    return VerifyReport(m_max, n_max, results,
                        elapsed=time.perf_counter() - start_all)
