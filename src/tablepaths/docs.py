"""The JSON document format; no other module knows it.

Every report renders to a self-describing dict with a "kind" key, and each
kind has one encoder and one decoder here.  The frozen format is irregular:
unbounded integers are decimal strings while small counts are numbers, cells
are written row-major, and some keys are derived rather than stored.
Rendering is byte-deterministic.  A ``path_table`` document is not built as
a dict: ``path_table_chunks`` writes the text of
``json.dumps(..., sort_keys=True, indent=2)`` a row at a time, each row as
chunks of at most ``pathtable.ROW_BLOCK`` joined cells, so the CLI can
stream a table too large to hold as one string and never copies more than a
block of a row into a longer string.  Parsing accepts exactly
what rendering writes: a decoder reads only the keys a report stores,
converts each to its declared type and rejects what the producing function
rejects (and factors that are not increasing prime powers), and the object
must render back to the same JSON value (compared with ``json.dumps`` of the
parsed document, which also checks the table writer), else DomainError; so
every derived key of every kind is checked, among them a recurrence
report's recurrence_poly, which comes from its alphas, and a singer
report's n_lo and n_hi, which come from its entries, themselves consecutive
sizes >= 1.  Each singer entry's verdict must agree with its own numbers
(``_singer_contradiction``).  What only recomputing could check is not: a
singer report's orders and NOT_FULL verdicts against powers of x, and a
recurrence or rows report's claims against m.
Rendering writes every integer string through ``decimal``, which the
interpreter's int-to-str digit limit does not govern; parsing reads with
``int`` and so keeps that limit.  Nothing in the package changes it.
Per-check timings are diagnostic and excluded from format and equality.
Importing this module loads only ``errors`` and ``pathtable`` of the
package: encoders are looked up by the defining module and name of a
report's class, and each decoder imports the types it builds, so rendering
a table or a report loads no module that the object's own did not, and
``--format json singer`` never loads ``recurrence`` or ``suite``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from decimal import Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError
from .pathtable import PathTable, joined_blocks

if TYPE_CHECKING:
    from .gfmatrix import PrimeFactorization, ScanEntry
    from .recurrence import RecurrenceReport, RowComboReport
    from .singer import SingerReport
    from .suite import VerifyReport


def _optional(convert, value):
    return None if value is None else convert(value)


def _digits(n: int) -> str:
    """str(n), written through decimal so that no digit limit applies."""
    return str(Decimal(n))


def _strs(values) -> list[str]:
    return list(map(_digits, values))


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _at_least(low: int, **values: int) -> None:
    for name, value in values.items():
        if value < low:
            raise DomainError(f"{name} must be >= {low}, got {value}")


def _json_digit_list(items: Sequence[str], depth: int, before: str = "",
                     after: str = "") -> Iterator[str]:
    """json.dumps(list(items), indent=2) nested ``depth`` levels deep, for
    strings that need no escaping, between ``before`` and ``after``: the
    joined items are chunks of at most ROW_BLOCK items, so no more than a
    block is ever copied into a longer string."""
    if not items:
        yield before + "[]" + after
        return
    pad = "\n" + "  " * (depth + 1)
    yield f'{before}[{pad}"'
    yield from joined_blocks(items, f'",{pad}"')
    yield f'"\n{"  " * depth}]{after}'


def path_table_chunks(m: int, n_max: int, rows: Iterable[Sequence[str]],
                      column_sums: Sequence[str]) -> Iterator[str]:
    """The path_table document as render_document writes it, in chunks:
    each row's cell strings are joined in blocks of at most ROW_BLOCK
    cells, between the chunks of the brackets around them; cells and sums
    are digit strings."""
    yield '{\n  "cells": '
    before = "[\n    "
    for row in rows:
        yield from _json_digit_list(row, 2, before)
        before = ",\n    "
    yield ("[]" if before == "[\n    " else "\n  ]") + ',\n  "column_sums": '
    yield from _json_digit_list(
        column_sums, 1, after=f',\n  "kind": "path_table",\n  "m": '
                              f'{json.dumps(m)},\n  "n_max": '
                              f'{json.dumps(n_max)}\n}}\n')


def _decode_table(doc: dict) -> PathTable:
    m, n_max = int(doc["m"]), int(doc["n_max"])
    _at_least(1, m=m, n_max=n_max)
    return PathTable(m, n_max, tuple(_ints(row) for row in doc["cells"]))


def _encode_factorization(f: PrimeFactorization) -> dict:
    return {"value": _digits(f.value),
            "factors": [[_digits(p), e] for p, e in f.factors],
            "complete": f.complete, "cofactor": _digits(f.cofactor)}


def _decode_factorization(doc: dict) -> PrimeFactorization:
    from .gfmatrix import PrimeFactorization, is_prime
    f = PrimeFactorization(
        int(doc["value"]), tuple((int(p), int(e)) for p, e in doc["factors"]),
        int(doc["cofactor"]))
    _at_least(1, value=f.value)
    rest, last = f.value, 1  # each division halves rest, whatever e claims
    for p, e in f.factors:
        if p <= last or e < 1:
            raise DomainError(f"factors of {f.value} are not increasing powers")
        for _ in range(e):
            if rest % p:
                raise DomainError(f"factors do not divide {f.value}")
            rest //= p
        if not is_prime(p):
            raise DomainError(f"factor {p} of {f.value} is not prime")
        last = p
    if rest != f.cofactor:
        raise DomainError(f"factors and cofactor of {f.value} disagree")
    return f


def _encode_singer(r: SingerReport) -> dict:
    return {"kind": "singer_report", "family": r.family, "q": r.q,
            "n_lo": r.n_lo, "n_hi": r.n_hi,
            "entries": [{"n": e.n, "verdict": e.verdict.value,
                         "order": _optional(_digits, e.order),
                         "factorization": _optional(_encode_factorization,
                                                    e.factorization)}
                        for e in r.entries]}


def _decode_singer(doc: dict) -> SingerReport:
    from .gfmatrix import ScanEntry, Verdict, is_prime
    from .singer import SingerReport
    q = int(doc["q"])
    if not is_prime(q):
        raise DomainError(f"q must be prime, got {q}")
    entries = tuple(
        ScanEntry(int(e["n"]), Verdict(e["verdict"]), _optional(int, e["order"]),
                  _optional(_decode_factorization, e["factorization"]))
        for e in doc["entries"])
    report = SingerReport(doc["family"], q, entries)
    for e in entries:
        if (broken := _singer_contradiction(report.family, q, e)) is not None:
            raise DomainError(f"singer entry n={e.n}: {broken}")
    return report


def _singer_contradiction(family: str, q: int, e: ScanEntry) -> str | None:
    """How the entry's verdict contradicts its own numbers, by the rules
    that ``parse_document`` states, or None."""
    from .gfmatrix import Verdict
    from .deltaops import strip_charpoly
    from .singer import template_height
    # f(0) is the operator family's index-n member at -1, and the members'
    # recursion X(n+2) = D X(n+1) - X(n) at D = -1 repeats with period 3, so
    # a size of 1, 2 or 3 gives f(0) at any n, however large.
    height = template_height(family, (e.n - 1) % 3 + 1)
    singular = strip_charpoly(height)[0] % q == 0
    if singular != (e.verdict is Verdict.NOT_INVERTIBLE):
        divides = "divides" if singular else "does not divide"
        return f"{e.verdict.value}, but q {divides} f(0)"
    if singular:
        return (None if e.order is None and e.factorization is None
                else "NOT_INVERTIBLE with an order or a factorization")
    fact = e.factorization
    # q**n - 1 has at least n * (bits of q - 1) bits: no power of q is
    # taken whose size the document's own value does not bound.
    if (fact is None or e.n * (q.bit_length() - 1) > fact.value.bit_length()
            or fact.value != q**e.n - 1):
        return "the factorization is not of q**n - 1"
    if e.order is not None and (e.order < 1 or fact.value % e.order
                                or not fact.complete):
        return (f"order {e.order} does not divide q**n - 1 "
                "or has no complete factorization")
    if (e.verdict is Verdict.FULL_ORDER) != (e.order == fact.value):
        return f"{e.verdict.value} with order {e.order}"
    if e.verdict is Verdict.UNKNOWN and (e.order is not None
                                         or fact.complete):
        return "UNKNOWN with an order or a complete factorization"
    return None


def _encode_recurrence(r: RecurrenceReport) -> dict:
    return {"kind": "recurrence_report", "m": r.m, "k": r.recurrence.k,
            "alphas": _strs(r.recurrence.alphas), "relation": str(r.recurrence),
            "charpoly": _strs(r.charpoly),
            "operator_poly": _strs(r.operator_poly),
            "recurrence_poly": _strs(r.recurrence_poly),
            "polynomials_equal": r.equal}


def _decode_recurrence(doc: dict) -> RecurrenceReport:
    from .recurrence import Recurrence, RecurrenceReport
    m, alphas = int(doc["m"]), _ints(doc["alphas"])
    _at_least(1, m=m)
    if len(alphas) != (m + 1) // 2:
        raise DomainError(f"m = {m} needs {(m + 1) // 2} alphas")
    return RecurrenceReport(m, Recurrence(alphas),
                            _ints(doc["charpoly"]), _ints(doc["operator_poly"]))


def _encode_row_combo(r: RowComboReport) -> dict:
    return {"kind": "row_combo_report", "m": r.m, "n_probe": r.n_probe,
            "exists": r.exists, "lambda": _optional(_digits, r.lam),
            "alphas": _strs(r.alphas), "verified_up_to": r.verified_up_to,
            "nullspace_dim": r.nullspace_dim, "trivial_dim": r.trivial_dim,
            "basis": [{"kind": kind, "vector": [str(v) for v in vec]}
                      for kind, vec in r.basis]}


def _decode_row_combo(doc: dict) -> RowComboReport:
    from .recurrence import RowComboReport
    m, n_probe = int(doc["m"]), int(doc["n_probe"])
    _at_least(1, m=m)
    _at_least(m + 2, n_probe=n_probe)
    basis = tuple((e["kind"], tuple(Fraction(v) for v in e["vector"]))
                  for e in doc["basis"])
    if any(kind not in ("trivial", "nontrivial") for kind, _ in basis):
        raise DomainError("basis kinds must be trivial or nontrivial")
    if any(len(vector) != m for _, vector in basis):
        raise DomainError(f"every basis vector must have m = {m} entries")
    return RowComboReport(m, n_probe, basis)


def _encode_verify(r: VerifyReport) -> dict:
    return {"kind": "verify_report", "m_max": r.m_max, "n_max": r.n_max,
            "passed": r.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in r.checks]}


def _decode_verify(doc: dict) -> VerifyReport:
    from .suite import CheckResult, VerifyReport
    checks = tuple(CheckResult(str(c["name"]), _optional(str, c["detail"]))
                   for c in doc["checks"])
    m_max, n_max = int(doc["m_max"]), int(doc["n_max"])
    _at_least(1, m_max=m_max, n_max=n_max)
    return VerifyReport(m_max, n_max, checks)


# (defining module, class name) of each report type -> its encoder.  A
# report's class is looked up by name, so rendering imports no report
# module: a report's own module is loaded before the report exists.
_ENCODERS = {
    (f"{__package__}.recurrence", "RecurrenceReport"): _encode_recurrence,
    (f"{__package__}.recurrence", "RowComboReport"): _encode_row_combo,
    (f"{__package__}.singer", "SingerReport"): _encode_singer,
    (f"{__package__}.suite", "VerifyReport"): _encode_verify}

_DECODERS = {"path_table": _decode_table,
             "recurrence_report": _decode_recurrence,
             "row_combo_report": _decode_row_combo,
             "singer_report": _decode_singer,
             "verify_report": _decode_verify}


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def render_document(obj) -> str:
    """Deterministic JSON text for a table or report object.

    DomainError for an object of no document kind, and for one whose
    integer fields written as JSON numbers (a singer report's ``q``, say)
    pass the interpreter's digit limit.
    """
    if type(obj) is PathTable:
        encode = None
    elif (encode := _ENCODERS.get((type(obj).__module__,
                                   type(obj).__qualname__))) is None:
        raise DomainError(f"no document kind for {type(obj).__name__}")
    try:
        if encode is None:
            return "".join(path_table_chunks(
                obj.m, obj.n_max, map(_strs, obj.rows),
                _strs(obj.column_sums())))
        return _json_text(encode(obj)) + "\n"
    except ValueError as exc:
        raise DomainError(f"cannot write {type(obj).__name__}: {exc}") from exc


def parse_document(text: str):
    """Inverse of render_document: only a document that is the rendering of
    some object parses; anything else raises DomainError.  Every derived
    key is checked: a recurrence polynomial against alphas, and a singer
    report's n_lo/n_hi against its entries, which must be consecutive.
    Each singer entry's verdict is checked against its own numbers, with f
    the template's characteristic polynomial and N = q**n - 1:
    NOT_INVERTIBLE iff q | f(0), with no order or factorization; otherwise
    a factorization of N; an order divides N, with a complete
    factorization; FULL_ORDER iff the order is N; UNKNOWN with no order and
    an incomplete factorization; a recurrence report has ceil(m/2) alphas.
    Nothing is powered or recomputed from m, so a singer report's orders
    and NOT_FULL verdicts, a recurrence report relabelled to an m with the
    same ceil(m/2) and other rows claims are not confirmed."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"not a valid document: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError("document has no kind field")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _DECODERS:
        raise DomainError(f"unknown document kind {kind!r}")
    try:
        obj = _DECODERS[kind](doc)
        canonical = render_document(obj) == _json_text(doc) + "\n"
    except DomainError:
        raise
    except (LookupError, TypeError, ValueError, ArithmeticError,
            RecursionError) as exc:
        raise DomainError(f"malformed {kind} document: {exc!r}") from exc
    if not canonical:
        raise DomainError(f"{kind} document differs from its rendering")
    return obj
