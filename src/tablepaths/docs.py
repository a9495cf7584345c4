"""Structured-document rendering: deterministic JSON in, typed objects out.

Every report type serializes through a self-describing dict with a "kind"
key; integers that can grow without bound are rendered as decimal strings.
Rendering is byte-deterministic for a given object, and parse(render(x))
reconstructs an object equal to x (per-entry timings are diagnostic fields,
excluded from both serialization and equality).
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager

from .errors import DomainError
from .gfmatrix import SingerReport
from .pathtable import PathTable
from .recurrence import RecurrenceReport, RowComboReport
from .suite import VerifyReport

_PARSERS = {
    "path_table": PathTable.from_doc,
    "recurrence_report": RecurrenceReport.from_doc,
    "row_combo_report": RowComboReport.from_doc,
    "singer_report": SingerReport.from_doc,
    "verify_report": VerifyReport.from_doc,
}


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


def render_document(obj) -> str:
    """Deterministic JSON text for any report object with a to_doc()."""
    with unlimited_int_digits():
        return json.dumps(obj.to_doc(), sort_keys=True, indent=2) + "\n"


def parse_document(text: str):
    """Inverse of render_document; a malformed document raises DomainError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"not a valid document: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DomainError("document has no kind field")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise DomainError(f"unknown document kind {kind!r}")
    try:
        return _PARSERS[kind](doc)
    except (KeyError, IndexError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise DomainError(f"malformed {kind} document: {exc!r}") from exc
