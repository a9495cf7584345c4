"""Singer scans: the orders of the transfer-matrix templates over GF(q).

Each operator family gives a family of templates: the n x n template's
characteristic polynomial is the family's index-n member at x - 1
(``family_charpoly``).  ``singer_scan`` asks ``gfmatrix.order_is_full``,
for each size in a range, whether x has order q**n - 1 modulo that
polynomial, that is whether the template generates a Singer cycle.

``gfmatrix.order_is_full`` and ``deltaops.multiplier`` are looked up on
their modules at each call, not bound here by name, so that a wrapper put
on a module's function (as a tracer does) sees the scan's calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import deltaops, gfmatrix
from .errors import DomainError
from .gfmatrix import ScanEntry, Verdict


class MatrixFamily(Enum):
    EVEN = "E"
    ODD = "O"


def _member(family) -> MatrixFamily:
    """The family given as a member or as its value; DomainError else."""
    try:
        return MatrixFamily(family)
    except ValueError:
        raise DomainError(f"family must be E or O, got {family!r}") from None


def family_charpoly(family: MatrixFamily | str, n: int) -> tuple[int, ...]:
    """Characteristic polynomial of the family's n x n template, ascending
    coefficients: the operator family's index-n member evaluated at x - 1,
    i.e. its ``shift_coeffs``, the same Taylor shift that backs
    ``DeltaPoly.apply``."""
    ops = deltaops.Family[_member(family).name]
    return deltaops.multiplier(ops, n).shift_coeffs


@dataclass(frozen=True)
class SingerReport:
    """Order entries for the consecutive sizes n_lo..n_hi, which the
    entries determine: the first entry's n and the last's."""

    family: MatrixFamily
    q: int
    entries: tuple[ScanEntry, ...]

    def __post_init__(self):
        if not self.entries or self.n_lo < 1 or any(
                e.n != n for n, e in enumerate(self.entries, self.n_lo)):
            raise DomainError("scan entries must be consecutive sizes >= 1, "
                              f"got {[e.n for e in self.entries]}")

    @property
    def n_lo(self) -> int:
        return self.entries[0].n

    @property
    def n_hi(self) -> int:
        return self.entries[-1].n

    def full_order_ns(self) -> tuple[int, ...]:
        return tuple(e.n for e in self.entries
                     if e.verdict is Verdict.FULL_ORDER)

    def entry(self, n: int) -> ScanEntry:
        if not self.n_lo <= n <= self.n_hi:
            raise DomainError(
                f"n={n} not in scan range {self.n_lo}..{self.n_hi}")
        return self.entries[n - self.n_lo]


def singer_scan(family: MatrixFamily | str, q: int, n_lo: int, n_hi: int,
                budget: int | None = None) -> SingerReport:
    """Order verdicts for the family templates of sizes n_lo..n_hi mod q;
    the family is a member or its value, "E" or "O"."""
    family = _member(family)
    if n_lo < 1 or n_hi < n_lo:
        raise DomainError(f"bad scan range {n_lo}..{n_hi}")
    # Both templates have ones along the whole superdiagonal, so the rows
    # e1, e1 A, ..., e1 A^(n-1) are triangular with unit pivots over every
    # field, mod 2 too, where the odd template's corner 2 vanishes.  Each
    # template is therefore nonderogatory: its minimal polynomial mod q is
    # its characteristic polynomial for every q, and its order is the order
    # of x modulo that polynomial.
    return SingerReport(family, q, tuple(
        gfmatrix.order_is_full(family_charpoly(family, n), q, budget)
        for n in range(n_lo, n_hi + 1)))
