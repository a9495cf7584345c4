"""The named identity-check suite behind the CLI's verify command."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import deltaops, pathtable, recurrence
from .errors import BudgetExceededError, DomainError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str | None
    elapsed: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class VerifyReport:
    m_max: int
    n_max: int
    checks: tuple[CheckResult, ...]
    elapsed: float = field(compare=False, default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def run_suite(m_max: int, n_max: int,
              node_budget: int | None = None) -> VerifyReport:
    """Run every identity check; table checks scale with m_max and n_max.

    Operator-level identities do not depend on a table, so they always run
    over their standard parameter ranges.  node_budget caps the brute-force
    enumeration behind the path-oracle check.
    """
    if m_max < 1 or n_max < 1:
        raise DomainError("m_max and n_max must be >= 1")
    budget = pathtable.DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    registry: list[tuple[str, object]] = [
        ("path-oracle",
         lambda: pathtable.verify_oracle(min(m_max, 6), min(n_max, 10),
                                         node_budget=budget)),
        ("closed-forms", lambda: deltaops.verify_closed_forms(40)),
        ("addition-theorem", lambda: deltaops.verify_addition_theorem(12)),
        ("action-theorem", lambda: deltaops.verify_action_theorem(12)),
        ("product-theorem", lambda: deltaops.verify_product_theorem(8)),
        ("compose-factorization",
         lambda: deltaops.verify_compose_factorization(10, 64)),
        ("uniform-factorization",
         lambda: deltaops.verify_uniform_factorization(40)),
        ("bridge-lemma", lambda: deltaops.verify_bridge_lemma(40)),
        ("partial-sums", lambda: deltaops.verify_partial_sums(40)),
        ("congruence", lambda: deltaops.verify_congruence(12)),
        ("classical-polynomials", lambda: deltaops.verify_classical(20)),
        ("transfer-matrix", lambda: recurrence.verify_transfer(m_max, n_max)),
        ("annihilation", lambda: recurrence.verify_annihilation(m_max, n_max)),
        ("column-sum-bridge",
         lambda: recurrence.verify_column_sum_bridge(m_max, n_max)),
        ("row-equivalence",
         lambda: recurrence.verify_row_equivalence(m_max, min(n_max, 25))),
        ("table-action",
         lambda: recurrence.verify_table_action(m_max, min(n_max, 25))),
        ("column-sum-formulas",
         lambda: recurrence.verify_column_sum_formulas(m_max, min(n_max, 25))),
        ("determinant-lemma", lambda: recurrence.verify_determinants(max(m_max, 48))),
        ("window-determinants",
         lambda: recurrence.verify_window_determinants(min(m_max, 10), 12)),
        ("polynomial-equivalence",
         lambda: recurrence.verify_polynomial_equivalence(m_max)),
        ("charpoly-recursion",
         lambda: recurrence.verify_charpoly_recursion(max(m_max, 24))),
        ("recurrence-minimality",
         lambda: recurrence.verify_minimality(min(m_max, 10))),
        ("constant-combinations",
         lambda: recurrence.verify_constant_combinations(min(m_max, 13))),
    ]
    start_all = time.perf_counter()
    results = []
    for name, fn in registry:
        start = time.perf_counter()
        try:
            detail = fn()
        except BudgetExceededError as exc:
            detail = str(exc)
        results.append(CheckResult(
            name=name,
            passed=detail is None,
            detail=detail,
            elapsed=time.perf_counter() - start,
        ))
    return VerifyReport(m_max, n_max, tuple(results),
                        elapsed=time.perf_counter() - start_all)
