"""Exact count tables for bounded lattice walks and their algebra.

The package builds the walk-count tables for a strip of a given height,
derives the minimal linear recurrence satisfied by every row and by the
column sums, manipulates the difference-operator polynomials that encode
those recurrences, and scans the reduced transfer matrices for full
multiplicative order over prime fields.
"""

from .deltaops import (
    DeltaPoly,
    Family,
    base_constant,
    closed_form,
    multiplier,
    parity_family,
    prime_function,
)
from .docs import parse_document, render_document
from .errors import BudgetExceededError, DomainError, InternalInconsistencyError
from .gfmatrix import (
    GFMatrix,
    MatrixFamily,
    OrderResult,
    PrimeFactorization,
    ScanEntry,
    SingerReport,
    Verdict,
    factor,
    is_prime,
    order_is_full,
)
from .pathtable import PathTable, ReducedColumn, build_table, enumerate_paths
from .recurrence import (
    EquivalenceReport,
    Recurrence,
    RecurrenceReport,
    ReducedMatrix,
    RowComboReport,
    det_reduced,
    equivalence_report,
    minimal_recurrence,
    recurrence_report,
    reduced_matrix,
    row_constant_combinations,
    singer_scan,
    window_det,
)
from .suite import CheckResult, VerifyReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CheckResult",
    "DeltaPoly",
    "DomainError",
    "EquivalenceReport",
    "Family",
    "GFMatrix",
    "InternalInconsistencyError",
    "MatrixFamily",
    "OrderResult",
    "PathTable",
    "PrimeFactorization",
    "Recurrence",
    "RecurrenceReport",
    "ReducedColumn",
    "ReducedMatrix",
    "RowComboReport",
    "ScanEntry",
    "SingerReport",
    "Verdict",
    "VerifyReport",
    "base_constant",
    "build_table",
    "closed_form",
    "det_reduced",
    "enumerate_paths",
    "equivalence_report",
    "factor",
    "is_prime",
    "minimal_recurrence",
    "multiplier",
    "order_is_full",
    "parity_family",
    "parse_document",
    "prime_function",
    "recurrence_report",
    "reduced_matrix",
    "render_document",
    "row_constant_combinations",
    "run_suite",
    "singer_scan",
    "window_det",
]
