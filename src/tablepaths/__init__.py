"""Exact count tables for bounded lattice walks and their algebra.

The package builds the walk-count tables for a strip of a given height,
derives the linear recurrence that every row and the column sums satisfy
(minimal for row 1 and the column sums; some other rows satisfy shorter
ones, ROADMAP item 14), manipulates the difference-operator polynomials
that encode those recurrences, and scans the reduced transfer matrices
for full multiplicative order over prime fields.

Every public name loads on first use: ``import tablepaths`` imports only
``errors``, and ``tablepaths.build_table`` (or ``from tablepaths import
build_table``) imports the module that defines the name.  Submodules such
as ``tablepaths.pathtable`` resolve the same way.
"""

from importlib import import_module

from .errors import BudgetExceededError, DomainError, InternalInconsistencyError

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {name: module for module, names in {
    "deltaops": "DeltaPoly Family base_constant closed_form multiplier "
                "parity_family",
    "docs": "parse_document render_document",
    "errors": "BudgetExceededError DomainError InternalInconsistencyError",
    "gfmatrix": "GFMatrix PrimeFactorization ScanEntry Verdict factor "
                "is_prime order_is_full",
    "pathtable": "PathTable build_table enumerate_paths",
    "recurrence": "Recurrence RecurrenceReport RowComboReport det_reduced "
                  "minimal_recurrence recurrence_report reduced_matrix "
                  "row_constant_combinations window_det",
    "singer": "SingerReport singer_scan",
    "suite": "CheckResult VerifyReport run_suite",
}.items() for name in names.split()}

_SUBMODULES = frozenset({"cli", *_HOMES.values()})

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    """Import the module behind ``name`` and keep the name here."""
    if name in _HOMES:
        value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
