import ast
import json
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tablepaths
from tablepaths.cli import main
from tablepaths.docs import parse_document, render_document
from tablepaths.errors import DomainError
from tablepaths.gfmatrix import MatrixFamily
from tablepaths.pathtable import PathTable, build_table
from tablepaths.recurrence import (recurrence_report, row_constant_combinations,
                                   singer_scan)
from tablepaths.suite import CheckResult, VerifyReport


def test_render_writes_integers_past_the_digit_limit():
    big = 10**4999 + 7
    doc = render_document(PathTable(1, 1, ((big,),)))
    assert json.loads(doc)["cells"] == [["1" + "0" * 4998 + "7"]]
    with pytest.raises(ValueError):
        str(big)
    with pytest.raises(DomainError):
        parse_document(doc)


TABLE = json.loads(render_document(build_table(3, 2)))
SCAN = json.loads(render_document(singer_scan(MatrixFamily.ODD, 3, 1, 2)))
SUITE = {"kind": "verify_report", "m_max": 1, "n_max": 1, "passed": True,
         "checks": []}
ROWS = json.loads(render_document(row_constant_combinations(2)))
REC = json.loads(render_document(recurrence_report(3)))


def test_unbroken_documents_parse():
    for doc in (TABLE, SCAN, SUITE, ROWS):
        parse_document(json.dumps(doc))


@pytest.mark.parametrize("doc", [
    {"kind": "path_table"},
    {"kind": []},
    dict(TABLE, cells=[["1", "1"]]),
    dict(TABLE, cells=[["1", "x"], ["1", "3"], ["1", "2"]]),
    dict(TABLE, cells=5),
    dict(SCAN, family="X"),
    dict(SCAN, entries=[{"n": 1}]),
    dict(SUITE, m_max="a"),
    dict(SUITE, checks=[3]),
    dict(TABLE, cells=TABLE["cells"] + [["1", "1"]]),
    dict(TABLE, cells=[row + ["1"] for row in TABLE["cells"]]),
    dict(ROWS, basis=[{"kind": "trivial", "vector": ["1/0", "-1"]}]),
    dict(SUITE, passed=False,
         checks=[{"name": "c", "passed": "false", "detail": "broken"}]),
    dict(ROWS, exists="no"),
    dict(ROWS, exists=1),
    dict(SCAN, entries=[dict(SCAN["entries"][0], factorization=dict(
        SCAN["entries"][0]["factorization"], complete="false"))]
        + SCAN["entries"][1:]),
    dict(TABLE, cells=["11", "13", "12"]),
    dict(TABLE, column_sums=["0", "0"]),
    dict(TABLE, m="3"),
    dict(TABLE, m=3.0),
    dict(SCAN, note="extra"),
    dict(REC, relation="junk"),
    {"kind": "path_table", "m": -1, "n_max": -2, "cells": [],
     "column_sums": []},
    dict(SCAN, q=4, n_lo=5, n_hi=1),
    dict(SUITE, m_max=-3),
    dict(TABLE, m=0, cells=[], column_sums=[]),
    dict(TABLE, n_max=0, cells=[[], [], []], column_sums=[]),
    dict(REC, m=0),
    dict(ROWS, m=0),
    dict(ROWS, n_probe=3),
    dict(SCAN, q=4),
    dict(SCAN, n_lo=0),
    dict(SCAN, n_hi=0),
    dict(SUITE, m_max=0),
    dict(SUITE, n_max=0),
])
def test_malformed_documents_raise_domain_error(doc):
    with pytest.raises(DomainError):
        parse_document(json.dumps(doc))


REPORTS = [
    build_table(3, 2),
    singer_scan(MatrixFamily.ODD, 3, 1, 2),
    recurrence_report(3),
    row_constant_combinations(5),
    VerifyReport(2, 3, (CheckResult("a", True, None),
                        CheckResult("b", False, "2 != 3"))),
]


@pytest.mark.parametrize("report", REPORTS, ids=lambda r: type(r).__name__)
def test_every_kind_round_trips(report):
    assert parse_document(render_document(report)) == report


def _leaf_paths(value, path=()):
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from _leaf_paths(item, path + (index,))
    else:
        yield path


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**30),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4),
    st.integers(-10, 10**30).map(str), st.fractions().map(str),
    st.lists(st.integers(0, 3).map(str), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.mark.parametrize("report", REPORTS, ids=lambda r: type(r).__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_leaf_is_rejected_or_rendered_back(report, data):
    mutated = json.loads(render_document(report))
    path = data.draw(st.sampled_from(list(_leaf_paths(mutated))))
    *parents, last = path
    holder = mutated
    for key in parents:
        holder = holder[key]
    new = data.draw(JSON_VALUES)
    assume(json.dumps(new) != json.dumps(holder[last]))
    holder[last] = new
    try:
        obj = parse_document(json.dumps(mutated))
    except DomainError:
        return
    assert render_document(obj) == json.dumps(mutated, sort_keys=True,
                                               indent=2) + "\n"


def test_only_docs_knows_the_format():
    for path in Path(tablepaths.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and not node.level}
        assert ("json" in imported) == (path.name == "docs.py"), path.name
        methods = {item.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for item in node.body
                   if isinstance(item, ast.FunctionDef)}
        assert not methods & {"to_doc", "from_doc"}, path.name


def test_deeply_nested_text_raises_domain_error():
    with pytest.raises(DomainError):
        parse_document("[" * 100000)


def test_table_cli_renders_past_the_digit_limit(capsys):
    last_sum = str(2**2200)   # 663 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("plain", "csv", "json"):
            assert main(["--format", fmt, "table", "--m", "2", "--n", "2200"]) == 0
            written = last_sum in capsys.readouterr().out
            assert written, fmt
            assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
