"""The JSON document format; no other module knows it.

Every report renders to a self-describing dict with a "kind" key, and each
kind has one encoder and one decoder here.  The frozen format is irregular:
unbounded integers are decimal strings while small counts are numbers, cells
are written row-major, and some keys are derived rather than stored.
Rendering is byte-deterministic.  Parsing accepts exactly what rendering
writes: the decoder converts every field to its declared type, rejects the
parameters that the producing function rejects, and the object must render
back to the same JSON value, else DomainError.  Only
parsing keeps the interpreter's int-to-str digit limit.
Per-entry timings are diagnostic and excluded from format and equality.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction

from .errors import DomainError
from .gfmatrix import (MatrixFamily, PrimeFactorization, ScanEntry,
                       SingerReport, Verdict, is_prime)
from .pathtable import PathTable
from .recurrence import (EquivalenceReport, Recurrence, RecurrenceReport,
                         RowComboReport)
from .suite import CheckResult, VerifyReport


def _optional(convert, value):
    return None if value is None else convert(value)


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def _at_least(low: int, **values: int) -> None:
    for name, value in values.items():
        if value < low:
            raise DomainError(f"{name} must be >= {low}, got {value}")


def _encode_table(t: PathTable) -> dict:
    return {"kind": "path_table", "m": t.m, "n_max": t.n_max,
            "cells": [[str(t.columns[x][y]) for x in range(t.n_max)]
                      for y in range(t.m)],
            "column_sums": _strs(t.column_sums())}


def _decode_table(doc: dict) -> PathTable:
    m, n_max = int(doc["m"]), int(doc["n_max"])
    _at_least(1, m=m, n_max=n_max)
    rows = [_ints(row) for row in doc["cells"]]
    return PathTable(m, n_max, tuple(zip(*rows)))


def _encode_factorization(f: PrimeFactorization) -> dict:
    return {"value": str(f.value), "factors": [[str(p), e] for p, e in f.factors],
            "complete": f.complete, "cofactor": str(f.cofactor)}


def _decode_factorization(doc: dict) -> PrimeFactorization:
    return PrimeFactorization(
        int(doc["value"]), tuple((int(p), int(e)) for p, e in doc["factors"]),
        bool(doc["complete"]), int(doc["cofactor"]))


def _encode_singer(r: SingerReport) -> dict:
    return {"kind": "singer_report", "family": r.family.value, "q": r.q,
            "n_lo": r.n_lo, "n_hi": r.n_hi,
            "entries": [{"n": e.n, "verdict": e.verdict.value,
                         "order": _optional(str, e.order),
                         "factorization": _optional(_encode_factorization,
                                                    e.factorization)}
                        for e in r.entries]}


def _decode_singer(doc: dict) -> SingerReport:
    q, n_lo, n_hi = int(doc["q"]), int(doc["n_lo"]), int(doc["n_hi"])
    _at_least(1, n_lo=n_lo)
    _at_least(n_lo, n_hi=n_hi)
    if not is_prime(q):
        raise DomainError(f"q must be prime, got {q}")
    entries = tuple(
        ScanEntry(int(e["n"]), Verdict(e["verdict"]), _optional(int, e["order"]),
                  _optional(_decode_factorization, e["factorization"]))
        for e in doc["entries"])
    return SingerReport(MatrixFamily(doc["family"]), q, n_lo, n_hi, entries)


def _encode_recurrence(r: RecurrenceReport) -> dict:
    eq = r.equivalence
    return {"kind": "recurrence_report", "m": r.m, "k": r.recurrence.k,
            "alphas": _strs(r.recurrence.alphas), "relation": str(r.recurrence),
            "charpoly": _strs(eq.charpoly),
            "operator_poly": _strs(eq.operator_poly),
            "recurrence_poly": _strs(eq.recurrence_poly),
            "polynomials_equal": eq.equal}


def _decode_recurrence(doc: dict) -> RecurrenceReport:
    m, alphas = int(doc["m"]), _ints(doc["alphas"])
    _at_least(1, m=m)
    return RecurrenceReport(m, Recurrence(len(alphas), alphas), EquivalenceReport(
        m, len(alphas), _ints(doc["charpoly"]), _ints(doc["operator_poly"]),
        _ints(doc["recurrence_poly"])))


def _encode_row_combo(r: RowComboReport) -> dict:
    return {"kind": "row_combo_report", "m": r.m, "n_probe": r.n_probe,
            "exists": r.exists, "lambda": _optional(str, r.lam),
            "alphas": _strs(r.alphas), "verified_up_to": r.verified_up_to,
            "nullspace_dim": r.nullspace_dim, "trivial_dim": r.trivial_dim,
            "basis": [{"kind": kind, "vector": _strs(vec)}
                      for kind, vec in r.basis]}


def _decode_row_combo(doc: dict) -> RowComboReport:
    m, n_probe = int(doc["m"]), int(doc["n_probe"])
    _at_least(1, m=m)
    _at_least(m + 2, n_probe=n_probe)
    return RowComboReport(
        m, n_probe, bool(doc["exists"]),
        _optional(int, doc["lambda"]), _ints(doc["alphas"]),
        int(doc["verified_up_to"]), int(doc["nullspace_dim"]),
        int(doc["trivial_dim"]),
        tuple((str(e["kind"]), tuple(Fraction(v) for v in e["vector"]))
              for e in doc["basis"]))


def _encode_verify(r: VerifyReport) -> dict:
    return {"kind": "verify_report", "m_max": r.m_max, "n_max": r.n_max,
            "passed": r.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in r.checks]}


def _decode_verify(doc: dict) -> VerifyReport:
    checks = tuple(CheckResult(str(c["name"]), bool(c["passed"]),
                               _optional(str, c["detail"]))
                   for c in doc["checks"])
    m_max, n_max = int(doc["m_max"]), int(doc["n_max"])
    _at_least(1, m_max=m_max, n_max=n_max)
    return VerifyReport(m_max, n_max, checks)


_ENCODERS = {PathTable: _encode_table, RecurrenceReport: _encode_recurrence,
             RowComboReport: _encode_row_combo, SingerReport: _encode_singer,
             VerifyReport: _encode_verify}

_DECODERS = {"path_table": _decode_table,
             "recurrence_report": _decode_recurrence,
             "row_combo_report": _decode_row_combo,
             "singer_report": _decode_singer,
             "verify_report": _decode_verify}


_render_lock = threading.RLock()


@contextmanager
def unlimited_int_digits():
    """Lift the int-to-str digit limit while the package renders its own
    integers (table cells pass 4300 digits near n = 10000).  The limit is
    process-wide; the lock keeps one render from restoring it under another.
    """
    with _render_lock:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(saved)


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def render_document(obj) -> str:
    """Deterministic JSON text for a table or report object."""
    with unlimited_int_digits():
        return _json_text(_ENCODERS[type(obj)](obj)) + "\n"


def parse_document(text: str):
    """Inverse of render_document: only a document that is the rendering of
    some object parses; anything else raises DomainError."""
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
