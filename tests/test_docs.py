import json
import sys

import pytest

from tablepaths.cli import main
from tablepaths.docs import parse_document, render_document
from tablepaths.errors import DomainError
from tablepaths.gfmatrix import MatrixFamily
from tablepaths.pathtable import PathTable, build_table
from tablepaths.recurrence import row_constant_combinations, singer_scan


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
SUITE = {"kind": "verify_report", "m_max": 1, "n_max": 1, "checks": []}
ROWS = json.loads(render_document(row_constant_combinations(2)))


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
])
def test_malformed_documents_raise_domain_error(doc):
    with pytest.raises(DomainError):
        parse_document(json.dumps(doc))


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
