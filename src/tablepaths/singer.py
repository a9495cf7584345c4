"""Singer scans: the orders of the transfer-matrix templates over GF(q).

The n x n template of family E or O is the reduced transfer matrix of the
strip whose height ``template_height`` gives.  ``singer_scan`` asks
``gfmatrix.order_is_full``, for each size in a range, whether x has order
q**n - 1 modulo its characteristic polynomial, that is whether the
template generates a Singer cycle.

``gfmatrix.order_is_full`` and ``deltaops.strip_charpoly`` are looked up
on their modules at each call, not bound here by name, so that a wrapper
put on a module's function (as a tracer does) sees the scan's calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import deltaops, gfmatrix
from .errors import DomainError
from .gfmatrix import ScanEntry, Verdict


def template_height(family: str, n: int) -> int:
    """Height m of the strip whose reduced transfer matrix is the family's
    n x n template: 2n for "E", 2n - 1 for "O", DomainError otherwise."""
    if family == "E":
        return 2 * n
    if family == "O":
        return 2 * n - 1
    raise DomainError(f"family must be E or O, got {family!r}")


@dataclass(frozen=True)
class SingerReport:
    """Order entries for the consecutive sizes n_lo..n_hi, which the
    entries determine: the first entry's n and the last's."""

    family: str
    q: int
    entries: tuple[ScanEntry, ...]

    def __post_init__(self):
        template_height(self.family, 1)
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


def singer_scan(family: str, q: int, n_lo: int, n_hi: int,
                budget: int | None = None) -> SingerReport:
    """Order verdicts of the family's templates of sizes n_lo..n_hi mod q."""
    template_height(family, 1)
    if n_lo < 1 or n_hi < n_lo:
        raise DomainError(f"bad scan range {n_lo}..{n_hi}")
    # Both templates have ones along the whole superdiagonal, so the rows
    # e1, e1 A, ..., e1 A^(n-1) are triangular with unit pivots over every
    # field, mod 2 too, where the odd template's corner 2 vanishes.  Each
    # template is therefore nonderogatory: its minimal polynomial mod q is
    # its characteristic polynomial for every q, and its order is the order
    # of x modulo that polynomial.
    return SingerReport(family, q, tuple(
        gfmatrix.order_is_full(
            deltaops.strip_charpoly(template_height(family, n)), q, budget)
        for n in range(n_lo, n_hi + 1)))
