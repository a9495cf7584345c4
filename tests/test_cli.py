import json
import subprocess
import sys
from pathlib import Path

import pytest

from tablepaths.cli import main
from tablepaths.docs import parse_document

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- basics ---------------------------------------------------------------------


def test_table_plain(capsys):
    code, out, err = run_cli(capsys, "table", "--m", "3", "--n", "4")
    assert code == 0
    assert "sum" in out
    assert "3  7 17 41" in out.replace("  ", " ") or "41" in out


def test_table_csv_contains_sums_row(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "table", "--m", "3", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,1,2,3,4"
    assert lines[-1] == "sum,3,7,17,41"


def test_recurrence_plain_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "recurrence", "--m", "5")
    assert code == 0
    assert "a(n+3)=3a(n+2)-2a(n)" in out
    assert "polynomials equal: yes" in out


def test_verify_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-max", "4", "--n-max", "10")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_starved_node_budget_fails_oracle_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-max", "4", "--n-max", "10",
                           "--node-budget", "5")
    assert code == 1
    assert "FAIL  path-oracle" in out or "FAIL" in out


def test_rows_plain(capsys):
    code, out, _ = run_cli(capsys, "rows", "--m", "5")
    assert code == 0
    assert "alpha = (1, 0, -1, 0, 1)" in out
    assert "constant = 1" in out


def test_singer_plain_summary_line(capsys):
    code, out, _ = run_cli(capsys, "singer", "--family", "O", "--q", "3",
                           "--n", "1..8")
    assert code == 0
    assert "full order at: 2, 4, 8" in out
    assert "boundary case" in out


# -- json documents ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("table", "--m", "4", "--n", "5"),
    ("recurrence", "--m", "6"),
    ("verify", "--m-max", "3", "--n-max", "8"),
    ("rows", "--m", "5"),
    ("singer", "--family", "E", "--q", "2", "--n", "1..6"),
])
def test_json_output_parses_back(capsys, argv):
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    doc = json.loads(out)
    assert "kind" in doc
    parse_document(out)


def test_json_singer_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "--format", "json", "singer",
                          "--family", "E", "--q", "2", "--n", "1..10")
    _, second, _ = run_cli(capsys, "--format", "json", "singer",
                           "--family", "E", "--q", "2", "--n", "1..10")
    assert first == second


# -- exit codes and guard rails ------------------------------------------------------


def test_ceiling_rejected_without_force(capsys):
    code, _, err = run_cli(capsys, "table", "--m", "100", "--n", "3")
    assert code == 2
    assert "ceiling" in err


def test_ceiling_bypassed_with_force(capsys):
    code, _, _ = run_cli(capsys, "--force", "table", "--m", "70", "--n", "2")
    assert code == 0


def test_bad_range_rejected(capsys):
    code, _, err = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                           "--n", "5..2")
    assert code == 2
    assert "range" in err
    code, _, _ = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                         "--n", "x..y")
    assert code == 2


def test_bad_family_and_nonprime_q_rejected(capsys):
    code, _, err = run_cli(capsys, "singer", "--family", "Q", "--q", "2",
                           "--n", "1..3")
    assert code == 2
    assert "family" in err
    code, _, _ = run_cli(capsys, "singer", "--family", "E", "--q", "6",
                         "--n", "1..3")
    assert code == 2


def test_single_size_accepted(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "singer",
                           "--family", "E", "--q", "2", "--n", "3")
    assert code == 0
    assert out.strip() == "3,FULL_ORDER"


# -- fixtures ----------------------------------------------------------------------


def test_committed_fixture_matches(capsys):
    code, _, err = run_cli(capsys, "singer", "--family", "O", "--q", "3",
                           "--n", "1..16", "--fixture",
                           str(DATA / "singer_odd_gf3.txt"))
    assert code == 0
    assert "all expectations met" in err


@pytest.mark.parametrize("family", ["E", "O"])
@pytest.mark.parametrize("q", ["2", "3"])
def test_singer_json_matches_frozen_bytes(capsys, family, q):
    code, out, _ = run_cli(capsys, "--format", "json", "singer",
                           "--family", family, "--q", q, "--n", "1..40")
    assert code == 0
    frozen = (DATA / f"singer_{family}_q{q}.json").read_bytes()
    assert out.encode() == frozen


@pytest.mark.parametrize("command, m_max", [("rows", 24), ("recurrence", 32)])
def test_json_matches_frozen_bytes(capsys, command, m_max):
    outs = []
    for m in range(1, m_max + 1):
        code, out, _ = run_cli(capsys, "--format", "json", command, "--m", str(m))
        assert code == 0, m
        outs.append(out)
    frozen = (DATA / f"{command}_m1-{m_max}.json.txt").read_bytes()
    assert "".join(outs).encode() == frozen


def test_csv_output_is_fixture_compatible(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "--format", "csv", "singer",
                           "--family", "E", "--q", "2", "--n", "1..8")
    assert code == 0
    fixture = tmp_path / "roundtrip.txt"
    fixture.write_text(out)
    code, _, err = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                           "--n", "1..8", "--fixture", str(fixture))
    assert code == 0
    assert "all expectations met" in err


def test_fixture_mismatch_sets_exit_one(capsys, tmp_path):
    fixture = tmp_path / "wrong.txt"
    fixture.write_text("2,NOT_FULL\n")
    code, _, err = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                           "--n", "1..4", "--fixture", str(fixture))
    assert code == 1
    assert "expected NOT_FULL, got FULL_ORDER" in err


def test_fixture_outside_range_rejected(capsys, tmp_path):
    fixture = tmp_path / "outside.txt"
    fixture.write_text("9,FULL_ORDER\n")
    code, _, err = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                           "--n", "1..4", "--fixture", str(fixture))
    assert code == 2
    assert "outside" in err


def test_fixture_bad_lines_rejected(capsys, tmp_path):
    fixture = tmp_path / "bad.txt"
    fixture.write_text("2,WHAT\n")
    code, _, _ = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                         "--n", "1..4", "--fixture", str(fixture))
    assert code == 2
    fixture.write_text("")
    code, _, _ = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                         "--n", "1..4", "--fixture", str(fixture))
    assert code == 2


def test_missing_fixture_file_rejected(capsys, tmp_path):
    code, _, err = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                           "--n", "1..4", "--fixture",
                           str(tmp_path / "nope.txt"))
    assert code == 2
    assert "cannot read" in err


# -- environment -----------------------------------------------------------------


def test_env_var_budget_is_read(capsys, monkeypatch):
    monkeypatch.setenv("TABLEPATHS_FACTOR_BUDGET", "0")
    code, out, _ = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                           "--n", "53")
    assert code == 0
    assert "UNKNOWN" in out


def test_env_var_budget_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("TABLEPATHS_FACTOR_BUDGET", "lots")
    code, _, err = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                           "--n", "3")
    assert code == 2
    assert "TABLEPATHS_FACTOR_BUDGET" in err


def test_explicit_budget_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("TABLEPATHS_FACTOR_BUDGET", "0")
    code, out, _ = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                           "--n", "53", "--budget", "4000000")
    assert code == 0
    assert "FULL_ORDER" in out


# -- module entry point --------------------------------------------------------------


def test_module_invocation_round_trips():
    proc = subprocess.run(
        [sys.executable, "-m", "tablepaths", "--format", "csv",
         "table", "--m", "2", "--n", "3"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "sum,2,4,8"


def test_no_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "tablepaths"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
