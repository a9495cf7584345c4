import ast
import json
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tablepaths
from tablepaths import docs
from tablepaths.cli import main
from tablepaths.docs import parse_document, render_document
from tablepaths.errors import DomainError
from tablepaths.gfmatrix import PrimeFactorization, ScanEntry, Verdict
from tablepaths.pathtable import PathTable, build_table
from tablepaths.recurrence import recurrence_report, row_constant_combinations
from tablepaths.singer import SingerReport, singer_scan
from tablepaths.suite import CheckResult, VerifyReport


def test_render_writes_integers_past_the_digit_limit():
    big = 10**4999 + 7
    doc = render_document(PathTable(1, 1, ((big,),)))
    assert json.loads(doc)["cells"] == [["1" + "0" * 4998 + "7"]]
    with pytest.raises(ValueError):
        str(big)
    with pytest.raises(DomainError):
        parse_document(doc)


@pytest.mark.parametrize("table", [
    PathTable(0, 0, ()), PathTable(0, 3, ()), PathTable(1, 0, ((),)),
    PathTable(2, 1, ((5,), (-12,))), build_table(1, 1), build_table(4, 6)])
def test_table_writer_matches_json_dumps(table):
    doc = {"kind": "path_table", "m": table.m, "n_max": table.n_max,
           "cells": [[str(v) for v in row] for row in table.rows],
           "column_sums": [str(v) for v in table.column_sums()]}
    assert render_document(table) == json.dumps(doc, sort_keys=True,
                                                 indent=2) + "\n"


def _written(value) -> str:
    parts: list[str] = []
    docs._write(value, parts, "\n")
    return "".join(parts)


# Quotes, backslashes, control, non-ASCII and astral characters, lone
# surrogates included.
JSON_STRINGS = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
    st.characters(blacklist_categories=())))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(-2**200, 2**200), JSON_STRINGS),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(JSON_STRINGS, inner)),
    max_leaves=40)


@given(JSON_VALUES)
def test_report_writer_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    1.5, {1, 2}, [0, {"a": [0.0]}], {"a": frozenset()}, {1: "a"}])
def test_report_writer_raises_type_error_for_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        _written(value)


TABLE = json.loads(render_document(build_table(3, 2)))
SCAN = json.loads(render_document(singer_scan("O", 3, 1, 2)))
SUITE = {"kind": "verify_report", "m_max": 1, "n_max": 1, "passed": True,
         "checks": []}
ROWS = json.loads(render_document(row_constant_combinations(2)))
ROWS5 = json.loads(render_document(row_constant_combinations(5)))
REC = json.loads(render_document(recurrence_report(3)))
REC5 = json.loads(render_document(recurrence_report(5)))
REC7 = json.loads(render_document(recurrence_report(7)))
SCAN6 = json.loads(render_document(singer_scan("O", 3, 1, 6)))
E_Q2 = json.loads((Path(__file__).parent / "data" / "singer_E_q2.json")
                  .read_text())


def _e_q2_with_entry_6(**fields):
    """The frozen E scan over GF(2), n = 6 (NOT_FULL, order 21) changed."""
    entries = list(E_Q2["entries"])
    entries[5] = dict(entries[5], **fields)
    return dict(E_Q2, entries=entries)


def _scan_with_factorization(**fields):
    first = SCAN["entries"][0]
    factorization = dict(first["factorization"], **fields)
    return dict(SCAN, entries=[dict(first, factorization=factorization),
                               *SCAN["entries"][1:]])


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
    dict(TABLE, cells=[row + ["1"] for row in TABLE["cells"]],
         column_sums=TABLE["column_sums"] + ["3"]),
    dict(TABLE, cells=TABLE["cells"][:-1], column_sums=["2", "5"]),
    _scan_with_factorization(value="31", factors=[["3", 1]]),
    _scan_with_factorization(value="14", factors=[["2", 1]], cofactor="7"),
    _scan_with_factorization(value="2", cofactor="7"),
    _scan_with_factorization(value="2", factors=[["2", 1]], complete=False),
    _scan_with_factorization(value="2", factors=[["2", 10**9]]),
    _scan_with_factorization(value="0", factors=[["2", 10**9]]),
    # Each derived key of a rows report, changed alone.
    dict(ROWS5, nullspace_dim=ROWS5["nullspace_dim"] + 1),
    dict(ROWS5, trivial_dim=ROWS5["trivial_dim"] + 1),
    dict(ROWS5, exists=False),
    dict(ROWS5, verified_up_to=ROWS5["verified_up_to"] + 1),
    dict(ROWS5, **{"lambda": "2"}),
    dict(ROWS5, alphas=["1", "0", "1", "0", "1"]),
    # An unknown basis kind, with the trivial count that ignores it.
    dict(ROWS5, trivial_dim=ROWS5["trivial_dim"] - 1,
         basis=[ROWS5["basis"][0], dict(ROWS5["basis"][1], kind="banana"),
                *ROWS5["basis"][2:]]),
    dict(SUITE, checks=[{"name": "c", "passed": True, "detail": "broken"}]),
    dict(SUITE, passed=False,
         checks=[{"name": "c", "passed": False, "detail": None}]),
    _scan_with_factorization(value="26", factors=[["13", 1], ["2", 1]]),
    _scan_with_factorization(value="26", factors=[["26", 1]]),
    _scan_with_factorization(value="26",
                             factors=[["2", 1], ["2", 0], ["13", 1]]),
    # A relabel within the residue class of m mod 4: 8-entry vectors, m = 4.
    dict(json.loads(render_document(row_constant_combinations(8))), m=4),
    # alphas and relation rewritten to agree, recurrence_poly left alone:
    # the recurrence polynomial comes from alphas.
    dict(REC5, alphas=["-2", "1", "3"],
         relation="a(n+3)=3a(n+2)+a(n+1)-2a(n)"),
    # A singer report's range comes from its entries, which must be
    # consecutive: the first, a middle or the last entry dropped, two
    # middle entries swapped, and no entries.
    dict(SCAN6, entries=SCAN6["entries"][1:]),
    dict(SCAN6, entries=SCAN6["entries"][:2] + SCAN6["entries"][3:]),
    dict(SCAN6, entries=SCAN6["entries"][:-1]),
    dict(SCAN6, entries=[*SCAN6["entries"][:2], SCAN6["entries"][3],
                         SCAN6["entries"][2], *SCAN6["entries"][4:]]),
    dict(SCAN6, entries=[]),
    # Verdicts that contradict their own numbers: n = 6 called FULL_ORDER,
    # its order tripled to q**n - 1, family E relabelled O (over GF(2) the
    # E templates are singular at n = 1, 4, 7, ... and the O ones at
    # n = 3, 6, 9, ...), n = 6 called UNKNOWN, and its order negated.
    _e_q2_with_entry_6(verdict="FULL_ORDER"),
    _e_q2_with_entry_6(order="63"),
    dict(E_Q2, family="O"),
    _e_q2_with_entry_6(verdict="UNKNOWN", order=None),
    _e_q2_with_entry_6(order="-21"),
    # A size whose q**n - 1 no computer holds, with a factorization of 3:
    # rejected from the sizes, before any power of q is taken.
    {"kind": "singer_report", "family": "E", "q": 2, "n_lo": 10**30 + 1,
     "n_hi": 10**30 + 1, "entries": [
         {"n": 10**30 + 1, "verdict": "NOT_FULL", "order": None,
          "factorization": {"value": "3", "factors": [["3", 1]],
                            "complete": True, "cofactor": "1"}}]},
    # A recurrence report relabelled to an m whose ceil(m/2) is not its
    # number of alphas.
    *(dict(REC7, m=m) for m in (9, 1, 64)),
    # A family other than the letters E and O ("X" is above).
    *(dict(SCAN, family=family) for family in ("e", 0, None)),
])
def test_malformed_documents_raise_domain_error(doc):
    with pytest.raises(DomainError):
        parse_document(json.dumps(doc))


def _frozen_documents():
    """Each json document frozen in tests/data, as its text: a .json file
    holds one, a .json.txt file the documents of one command for a range
    of m, back to back."""
    data = Path(__file__).parent / "data"
    decoder = json.JSONDecoder()
    for path in [*sorted(data.glob("singer_*.json")),
                 *sorted(data.glob("*.json.txt"))]:
        text, start, index = path.read_text(), 0, 0
        while start < len(text):
            _, end = decoder.raw_decode(text, start)
            yield pytest.param(text[start:end + 1], id=f"{path.name}-{index}")
            start, index = end + 1, index + 1


FROZEN_DOCUMENTS = list(_frozen_documents())


def test_frozen_documents_are_all_found():
    assert len(FROZEN_DOCUMENTS) == 98


@pytest.mark.parametrize("text", FROZEN_DOCUMENTS)
def test_frozen_document_round_trips(text):
    assert render_document(parse_document(text)) == text


REPORTS = [
    build_table(3, 2),
    singer_scan("O", 3, 1, 2),
    recurrence_report(3),
    row_constant_combinations(5),
    VerifyReport(2, 3, (CheckResult("a", None), CheckResult("b", "2 != 3"))),
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


def test_no_module_changes_the_digit_limit():
    for path in Path(tablepaths.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "set_int_max_str_digits" not in names, path.name
        if path.name == "docs.py":
            imported = {alias.name.partition(".")[0] for node in ast.walk(tree)
                        if isinstance(node, ast.Import) for alias in node.names}
            imported |= {node.module.partition(".")[0]
                         for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and not node.level}
            assert not imported & {"sys", "threading"}


def test_render_never_touches_the_digit_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("render_document changed the digit limit")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    big = 10**4999 + 7
    digits = "1" + "0" * 4998 + "7"
    table = json.loads(render_document(PathTable(1, 2, ((big, 3),))))
    assert table["cells"] == [[digits, "3"]]
    assert table["column_sums"] == [digits, "3"]
    unknown = ScanEntry(1, Verdict.UNKNOWN, None,
                        PrimeFactorization(big, (), big))
    report = SingerReport("E", 2, (unknown,))
    entry = json.loads(render_document(report))["entries"][0]
    assert entry["factorization"]["value"] == digits
    assert entry["factorization"]["cofactor"] == digits
    scan = singer_scan("E", 2, 1, 12)
    assert parse_document(render_document(scan)) == scan


def test_render_raises_domain_error_for_what_it_cannot_write():
    with pytest.raises(DomainError):
        render_document(object())
    huge_q = SingerReport("E", 10**5000 + 1, (
        ScanEntry(1, Verdict.NOT_INVERTIBLE, None, None),))
    with pytest.raises(DomainError):
        render_document(huge_q)


def test_parse_keeps_the_digit_limit_while_another_thread_renders():
    text = render_document(PathTable(1, 1, ((10**4999,),)))
    large = PathTable(2, 100, ((10**4999,) * 100, (3**9000,) * 100))
    stop = threading.Event()

    def render():
        while not stop.is_set():
            render_document(large)

    worker = threading.Thread(target=render)
    worker.start()
    try:
        for _ in range(20):
            with pytest.raises(DomainError):
                parse_document(text)
    finally:
        stop.set()
        worker.join(10)
    assert not worker.is_alive()


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
