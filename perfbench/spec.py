"""Workloads and metrics of the tablepaths benchmark.

The workloads and the end-to-end and per-layer metrics are read from
``BENCHMARK.json`` at the repository root, their one definition.
"""

from __future__ import annotations

import json
from pathlib import Path

with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json",
          encoding="utf-8") as _handle:
    _BENCH = json.load(_handle)

WORKLOADS = {w["name"]: w["why"] for w in _BENCH["workloads"]}

# name -> (unit, better, bound).  These are the metrics every workload
# reports with --trace 0, compared across commits within their bounds.
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"])
              for m in _BENCH["end_to_end"]}

# name -> (unit, better).  Reported with --trace 1, per traced pass.
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in _BENCH["per_layer"]}

# Reported in the human-readable summary and the result file, but not in the
# JSON result line: each is zero, or undefined, on some workload.
REPORT_ONLY = {
    "req_p90_ms": "ms",
    "failed_frac": "ratio",
    "undecided_frac": "ratio",
}

SUITE_CHECKS = (
    "path-oracle", "closed-forms", "addition-theorem", "action-theorem",
    "product-theorem", "compose-factorization", "uniform-factorization",
    "bridge-lemma", "partial-sums", "congruence", "classical-polynomials",
    "transfer-matrix", "annihilation", "column-sum-bridge", "row-equivalence",
    "table-action", "column-sum-formulas", "determinant-lemma",
    "window-determinants", "polynomial-equivalence", "charpoly-recursion",
    "recurrence-minimality", "constant-combinations",
)
