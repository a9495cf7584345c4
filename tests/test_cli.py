import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablepaths import cli
from tablepaths.cli import build_parser, main
from tablepaths.docs import parse_document, render_document
from tablepaths.errors import DomainError
from tablepaths.pathtable import build_table, table_strings
from tablepaths.singer import singer_scan

DATA = Path(__file__).parent / "data"
GOLDENS = Path(__file__).parents[1] / "perfbench" / "goldens"


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


@pytest.mark.parametrize("text, want", [
    ("2..7", (2, 7)), ("4", (4, 4)), ("3..3", (3, 3)),
    ("x..y", "bad range 'x..y', expected a..b"),
    ("..5", "bad range '..5', expected a..b"),
    ("1..2..3", "bad range '1..2..3', expected a..b"),
    ("5..", "bad range '5..', expected a..b"),
    ("5..3", "empty range '5..3'"),
])
def test_parse_range(text, want):
    if isinstance(want, tuple):
        assert cli._parse_range(text) == want
    else:
        with pytest.raises(DomainError) as info:
            cli._parse_range(text)
        assert str(info.value) == want


def test_bad_family_and_nonprime_q_rejected(capsys):
    code, _, err = run_cli(capsys, "singer", "--family", "Q", "--q", "2",
                           "--n", "1..3")
    assert (code, err) == (2, "error: family must be E or O, got 'Q'\n")
    code, _, _ = run_cli(capsys, "singer", "--family", "E", "--q", "6",
                         "--n", "1..3")
    assert code == 2


def test_single_size_accepted(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "singer",
                           "--family", "E", "--q", "2", "--n", "3")
    assert code == 0
    assert out.strip() == "3,FULL_ORDER"


# -- generated command lines ---------------------------------------------------------


def near(ceiling):
    """Sizes just below, at and just past a ceiling."""
    return st.integers(ceiling - 1, ceiling + 2)


def flag(name, values):
    return values.map(lambda v: [name, str(v)])


small = st.integers(-1, 3)
table_argv = st.one_of(
    st.tuples(near(cli.M_CEILING), small),
    st.tuples(st.integers(-1, 1), near(cli.N_CEILING)),
).map(lambda mn: ["table", "--m", str(mn[0]), "--n", str(mn[1])])
recurrence_argv = flag("--m", st.one_of(near(cli.M_CEILING), small)).map(
    lambda a: ["recurrence", *a])
# An m-max at the ceiling runs for seconds, so only sizes past it are drawn.
verify_argv = st.one_of(
    st.tuples(st.integers(cli.M_CEILING + 1, cli.M_CEILING + 2), small),
    st.tuples(st.integers(0, 3), st.integers(0, 6)),
    st.tuples(st.integers(-1, 1), near(cli.N_CEILING)),
).map(lambda mn: ["verify", "--m-max", str(mn[0]), "--n-max", str(mn[1])])
rows_argv = flag("--m", st.one_of(near(cli.M_CEILING), small,
                                  st.integers(4, 9))).map(
    lambda a: ["rows", *a])
singer_sizes = st.one_of(
    st.tuples(st.just("2"), near(cli.SINGER_N_CEILING).flatmap(
        lambda hi: st.sampled_from([str(hi), f"{hi - 2}..{hi}"]))),
    st.tuples(st.sampled_from(["2", "3", "4", "0", "-7", "65521"]),
              st.sampled_from(["1", "3..6", "5..2", "x", "1..8", "0..2"])),
)
singer_argv = st.tuples(
    st.sampled_from(["E", "O", "X"]), singer_sizes,
    st.sampled_from([[], ["--budget", "-1"], ["--budget", "0"],
                     ["--budget", "100"]]),
).map(lambda t: ["singer", "--family", t[0], "--q", t[1][0], "--n", t[1][1],
                 *t[2]])


@given(fmt=st.sampled_from(["plain", "json", "csv"]),
       argv=st.one_of(table_argv, recurrence_argv, verify_argv, rows_argv,
                      singer_argv))
@settings(max_examples=60, deadline=None)
def test_generated_command_lines_exit_cleanly(fmt, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", fmt, *argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    if code == 1:
        # Only a failed check of verify or recurrence exits 1.
        assert argv[0] in ("verify", "recurrence"), err
        assert "internal inconsistency" not in err
    if fmt == "json":
        assert render_document(parse_document(out)) == out


# -- fixtures ----------------------------------------------------------------------


def test_committed_fixture_matches(capsys):
    # The committed scan is the csv output under one comment line.
    lines = (DATA / "singer_odd_gf3.txt").read_text().splitlines(True)
    code, out, err = run_cli(capsys, "--format", "csv", "singer", "--family",
                             "O", "--q", "3", "--n", "1..16")
    assert (code, err) == (0, "")
    assert lines[0].startswith("# ")
    assert out == "".join(lines[1:])


# q = 65521 and 1031 take the q-power map up to n = 16 and 11, and 19 of
# their 24 entries have x**N = 1 and an order found down the product tree.
# q = 5 and 7 pin odd-q residue slots other than q = 3's.
@pytest.mark.parametrize("family, q, n_range", [
    *(pytest.param(family, q, "1..40", id=f"{q}-{family}")
      for q in ("2", "3", "5") for family in ("E", "O")),
    *(pytest.param(family, "7", "1..30", id=f"7-{family}")
      for family in ("E", "O")),
    pytest.param("O", "65521", "1..10", id="65521-O"),
    pytest.param("E", "1031", "1..14", id="1031-E")])
def test_singer_json_matches_frozen_bytes(capsys, family, q, n_range):
    code, out, _ = run_cli(capsys, "--format", "json", "singer",
                           "--family", family, "--q", q, "--n", n_range)
    assert code == 0
    frozen = (DATA / f"singer_{family}_q{q}.json").read_bytes()
    assert out.encode() == frozen


# From m = 49 (k = 25) on, the characteristic polynomial's slot bound 6^k
# needs slots wider than 8 bytes, past the struct codes.
@pytest.mark.parametrize("command, m_min, m_max", [
    pytest.param("rows", 1, 24, id="rows-24"),
    pytest.param("recurrence", 1, 32, id="recurrence-32"),
    pytest.param("recurrence", 33, 64, id="recurrence-33-64")])
def test_json_matches_frozen_bytes(capsys, command, m_min, m_max):
    outs = []
    for m in range(m_min, m_max + 1):
        code, out, _ = run_cli(capsys, "--format", "json", command, "--m", str(m))
        assert code == 0, m
        outs.append(out)
    frozen = (DATA / f"{command}_m{m_min}-{m_max}.json.txt").read_bytes()
    assert "".join(outs).encode() == frozen


def golden_entries(workload):
    return json.loads((GOLDENS / f"{workload}.json").read_text())["entries"]


def replay(capsys, entry):
    """(exit code, byte count, sha256) of one golden request, and the same
    fields of the golden."""
    code, out, _ = run_cli(capsys, *entry["argv"])
    data = out.encode()
    return ((code, len(data), hashlib.sha256(data).hexdigest()),
            (entry["exit"], entry["bytes"], entry["sha256"]))


def mismatched_goldens(capsys, entries):
    """(argv, got, golden) of every entry whose replay differs."""
    mismatched = []
    for entry in entries:
        got, want = replay(capsys, entry)
        if got != want:
            mismatched.append((entry["argv"], got, want))
    return mismatched


# Every singer golden of the benchmark, n up to 90 over GF(2): one-byte slots
# reach n = 127 at q = 2, past the n = 40 of the frozen scans above.
@pytest.mark.parametrize("workload", ["singer-gf2", "singer-gf3"])
def test_singer_benchmark_goldens_replay(capsys, workload):
    assert mismatched_goldens(capsys, golden_entries(workload)) == []


# Every singer-bigq golden that recorded at most 10 ms: 704 of 1200, prime q
# up to 65419 and n = 2..14, all in residue rings with multi-byte slots.  The
# costlier rest spends its time in Brent rho, not in the rings.
def test_singer_bigq_benchmark_goldens_replay(capsys):
    entries = [e for e in golden_entries("singer-bigq") if e["cost_s"] <= 0.01]
    assert len(entries) == 704
    assert mismatched_goldens(capsys, entries) == []


# The first singer-bigq golden of each of its 60 cost classes, the costly
# ones included: those spend their time in Brent rho, and 4 of them exhaust
# the budget and report UNKNOWN.
def test_singer_bigq_golden_of_every_cost_class_replays(capsys):
    firsts = {}
    for entry in golden_entries("singer-bigq"):
        firsts.setdefault(entry["cls"], entry)
    assert len(firsts) == 60
    assert mismatched_goldens(capsys, firsts.values()) == []


# The table-render goldens of m <= 40: n from 910 to 1770, between the n <= 300
# and n = 10000 of the frozen digests below.
def test_table_benchmark_goldens_replay(capsys):
    entries = [e for e in golden_entries("table-render")
               if e["cls"].endswith(("-small", "-medium"))]
    assert len(entries) == 16
    assert mismatched_goldens(capsys, entries) == []


VERIFY_GOLDENS = golden_entries("verify-suite")


@pytest.mark.parametrize(
    "entry", sorted(VERIFY_GOLDENS, key=lambda e: e["cost_s"])[:2],
    ids=lambda e: " ".join(e["argv"][-4:]))
def test_verify_matches_benchmark_golden(capsys, entry):
    got, want = replay(capsys, entry)
    assert got == want


VERIFY_SHA256 = json.loads((DATA / "verify_sha256.json").read_text())


@pytest.mark.parametrize("key", VERIFY_SHA256)
def test_verify_json_matches_frozen_digest(capsys, key):
    # Keys are "format m_max n_max".  "json 40 120" was frozen before the
    # suite built one table per m, "json 64 120" before the determinant
    # lemma read its determinants from one elimination per parity (m_max 64
    # takes that check past its default 48, to 32 x 32 reduced matrices),
    # "json 64 400" before long windows could take the shift route
    # (annihilation, column-sum-bridge), the others before every m-indexed
    # check read the suite's tables.  13 x 1 gives the narrowest table that
    # constant-combinations reads.
    fmt, m_max, n_max = key.split()
    code, out, _ = run_cli(capsys, "--format", fmt, "verify", "--m-max", m_max,
                           "--n-max", n_max)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[key]


TABLE_SHA256 = json.loads((DATA / "table_sha256.json").read_text())


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_table_matches_frozen_digests(capsys, fmt):
    for m in (1, 2, 5, 8, 33, 64):
        for n in (1, 7, 300):
            code, out, _ = run_cli(capsys, "--format", fmt, "table",
                                   "--m", str(m), "--n", str(n))
            assert code == 0, (m, n)
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == TABLE_SHA256[f"{fmt} {m} {n}"], (m, n)


@pytest.mark.parametrize("m", (1, 2, 5, 8, 33, 64))
def test_table_json_equals_rendered_int_table(capsys, m):
    for n in (1, 7, 300):
        code, out, _ = run_cli(capsys, "--format", "json", "table",
                               "--m", str(m), "--n", str(n))
        assert code == 0, (m, n)
        assert out == render_document(build_table(m, n)), (m, n)


class ChunkRecorder(io.StringIO):
    """A stdout that keeps every chunk written to it."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("n", [399, 400, 401, 801])
def test_table_rows_are_written_in_blocks(monkeypatch, fmt, n):
    for m in (5, 8):
        out = ChunkRecorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["--format", fmt, "table", "--m", str(m), "--n", str(n)]) == 0
        cells = [len(re.findall(r"\d+", chunk)) for chunk in out.chunks]
        assert max(cells) == min(n, 400), (m, n)
        text = "".join(out.chunks)
        assert text == out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == TABLE_SHA256[f"{fmt} {m} {n}"], (m, n)
        if fmt == "json":
            assert text == render_document(build_table(m, n)), (m, n)


def test_csv_output_is_fixture_compatible(capsys):
    # One 'n,verdict' line per size, in order: a saved scan replays by
    # comparing bytes.
    code, out, _ = run_cli(capsys, "--format", "csv", "singer",
                           "--family", "E", "--q", "2", "--n", "1..8")
    assert code == 0
    report = singer_scan("E", 2, 1, 8)
    assert out == "".join(f"{e.n},{e.verdict.value}\n" for e in report.entries)


# -- the shared parser -----------------------------------------------------------


@pytest.fixture
def fresh_parser():
    """Drops the process's parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(capsys, monkeypatch, fresh_parser):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert run_cli(capsys, "--format", "csv", "singer", "--family", "E",
                   "--q", "2", "--n", "3")[:2] == (0, "3,FULL_ORDER\n")
    assert run_cli(capsys, "rows", "--m", "5")[0] == 0
    assert builds == [1]


def test_usage_error_leaves_the_shared_parser_usable(capsys, fresh_parser):
    with pytest.raises(SystemExit) as exc:
        main(["singer", "--family", "E", "--q", "two", "--n", "3"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    entry = golden_entries("singer-gf2")[-1]
    got, want = replay(capsys, entry)
    assert got == want


def test_shared_parser_parses_alike_in_threads():
    argvs = [["--format", fmt, "singer", "--family", family, "--q", q,
              "--n", f"1..{i}", "--budget", str(100 * i)]
             for i, (fmt, family, q) in enumerate(
                 itertools.product(("json", "csv"), "EO", ("2", "3")), start=1)]
    want = [build_parser().parse_args(argv) for argv in argvs]
    shared = cli._parser()
    got = [[] for _ in argvs]

    def parse(i):
        for _ in range(200):
            got[i].append(shared.parse_args(argvs[i]))

    threads = [threading.Thread(target=parse, args=(i,))
               for i in range(len(argvs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, namespaces in enumerate(got):
        assert namespaces == [want[i]] * 200, argvs[i]


# -- factorization budget ----------------------------------------------------------


def test_budget_environment_variable_is_not_read(capsys, monkeypatch):
    # singer takes its budget from --budget only; q = 2, n = 53 needs rho
    # steps, so a budget of 0 read from anywhere would make it UNKNOWN.
    argv = ("singer", "--family", "E", "--q", "2", "--n", "53")
    monkeypatch.delenv("TABLEPATHS_FACTOR_BUDGET", raising=False)
    unset = run_cli(capsys, *argv)
    monkeypatch.setenv("TABLEPATHS_FACTOR_BUDGET", "0")
    assert run_cli(capsys, *argv) == unset
    assert unset[0] == 0
    assert "FULL_ORDER" in unset[1]
    assert "UNKNOWN" not in unset[1]
    assert run_cli(capsys, *argv, "--budget", "0")[1] != unset[1]


@pytest.mark.parametrize("n", ["1", "53"])
def test_negative_budget_flag_is_usage_error(capsys, n):
    code, out, err = run_cli(capsys, "singer", "--family", "E", "--q", "2",
                             "--n", n, "--budget", "-1")
    assert code == 2
    assert "budget" in err
    assert "UNKNOWN" not in out


# -- module entry point --------------------------------------------------------------

# The child interpreter finds the package in this checkout's src/, as the
# pytest process does, whether or not it is installed.
MODULE_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(__file__).parents[1] / "src"),
                  os.environ.get("PYTHONPATH")])))


def test_module_invocation_round_trips():
    proc = subprocess.run(
        [sys.executable, "-m", "tablepaths", "--format", "csv",
         "table", "--m", "2", "--n", "3"],
        capture_output=True, text=True, check=False, env=MODULE_ENV)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "sum,2,4,8"


def test_verify_node_budget_is_unknown_argument():
    # The suite's path oracle enumerates at most 90 814 walks (m = 6 up to
    # column 10), far below the oracle's default cap, so verify takes no
    # cap of its own.
    proc = subprocess.run(
        [sys.executable, "-m", "tablepaths", "verify", "--m-max", "4",
         "--n-max", "10", "--node-budget", "5"],
        capture_output=True, text=True, check=False, env=MODULE_ENV)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: tablepaths ")
    assert proc.stderr.count("usage:") == 1
    assert proc.stderr.splitlines()[-1] == (
        "tablepaths: error: unrecognized arguments: --node-budget 5")


@pytest.mark.parametrize("argv, unknown", [
    (["singer", "--family", "O", "--q", "3", "--n", "1..4", "--fixture", "x"],
     "--fixture x"),
    (["rows", "--m", "5", "--n-probe", "9"], "--n-probe 9"),
])
def test_removed_options_are_usage_errors(argv, unknown):
    # A saved csv scan replays with cmp, and every probe depth of at least
    # m + 2 gives the same basis, so neither option is taken.
    proc = subprocess.run(
        [sys.executable, "-m", "tablepaths", *argv],
        capture_output=True, text=True, check=False, env=MODULE_ENV)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("usage:") == 1
    assert proc.stderr.splitlines()[-1] == (
        f"tablepaths: error: unrecognized arguments: {unknown}")


def test_no_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "tablepaths"],
        capture_output=True, text=True, check=False, env=MODULE_ENV)
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_closed_output_pipe_exits_141_quietly(fmt):
    # 19 to 37 MB of table, far past what a pipe buffers.
    with subprocess.Popen(
            [sys.executable, "-m", "tablepaths", "--format", fmt, "table",
             "--m", "8", "--n", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=MODULE_ENV) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_interrupt_exits_130_with_one_line():
    # The scan of n = 80..140 runs far longer than the second before the
    # interrupt, which lands in the order engine rather than in start-up.
    with subprocess.Popen(
            [sys.executable, "-m", "tablepaths", "singer", "--family", "E",
             "--q", "3", "--n", "80..140"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=MODULE_ENV,
            # A job started with & from a non-interactive shell runs with
            # SIGINT ignored, and the child would inherit that.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    ) as proc:
        try:
            proc.communicate(timeout=1)
        except subprocess.TimeoutExpired:
            proc.send_signal(signal.SIGINT)
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 130
    assert "Traceback" not in err
    assert err.splitlines() == ["interrupted"]


# Imports the CLI and builds its parser, runs main on the given arguments,
# if any, and prints the package modules then loaded.
FOOTPRINT = """\
import contextlib, io, sys
from tablepaths.cli import build_parser, main
build_parser()
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
    assert code == 0, code
print(*sorted(name for name in sys.modules
              if name.partition(".")[0] == "tablepaths"))
"""


@pytest.mark.parametrize("argv, added", [
    ((), ()),
    (("--help",), ()),
    (("--format", "csv", "table", "--m", "3", "--n", "4"), ("pathtable",)),
    (("--format", "json", "table", "--m", "3", "--n", "4"),
     ("docs", "pathtable")),
    (("--format", "csv", "singer", "--family", "E", "--q", "3", "--n", "1..4"),
     ("deltaops", "gfmatrix", "singer")),
    (("singer", "--family", "O", "--q", "2", "--n", "1..4"),
     ("deltaops", "gfmatrix", "singer")),
    # Rendering a report loads no report module but its own: neither
    # recurrence nor suite.
    (("--format", "json", "singer", "--family", "E", "--q", "3", "--n", "1..5"),
     ("deltaops", "docs", "gfmatrix", "pathtable", "singer")),
])
def test_commands_import_only_what_they_run(argv, added):
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          capture_output=True, text=True, check=True,
                          env=MODULE_ENV)
    loaded = {"tablepaths", "tablepaths.cli", "tablepaths.errors",
              *(f"tablepaths.{name}" for name in added)}
    assert set(proc.stdout.split()) == loaded


# Runs ``python -m tablepaths`` with the given arguments; afterwards reports
# on stderr the exit code and the peak resident size of the child's own
# address space (VmHWM, in KiB; 0 without /proc).  ru_maxrss would also count
# the parent's pages at spawn, because Linux carries it across exec.
CHILD = """\
import runpy, sys
sys.argv = ["tablepaths", *sys.argv[1:]]
code = None
try:
    runpy.run_module("tablepaths", run_name="__main__")
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
try:
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status
                    if line.startswith("VmHWM:"))
except OSError:
    peak = 0
print(code, peak, file=sys.stderr)
"""


def run_child(*argv):
    """sha256 of stdout and peak RSS in KiB of a child CLI run that must
    exit 0; stdout is hashed as it streams, never held whole."""
    sha = hashlib.sha256()
    with subprocess.Popen([sys.executable, "-c", CHILD, *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=MODULE_ENV) as proc:
        while chunk := proc.stdout.read(1 << 20):
            sha.update(chunk)
        err = proc.stderr.read().decode()
    code, peak_kib = err.split()[-2:]
    assert code == "0", err
    return sha.hexdigest(), int(peak_kib)


# The n = 10000 ceiling: json at m = 64 is about 1.5 GB of text.
@pytest.mark.parametrize("key", ["json 64 10000", "plain 5 10000",
                                 "json 5 10000", "csv 5 10000"])
def test_table_at_the_ceiling_matches_frozen_digest(key):
    fmt, m, n = key.split()
    digest, peak_kib = run_child("--format", fmt, "table", "--m", m, "--n", n)
    assert digest == TABLE_SHA256[key]
    assert peak_kib < 1024 * 1024


def test_table_json_peak_memory_is_bounded():
    _, peak_kib = run_child("--format", "json", "table", "--m", "64",
                            "--n", "2200")
    if not peak_kib:
        pytest.skip("no /proc/self/status to read the peak from")
    assert peak_kib < 150 * 1024


# Imports what the json table command runs and reads the peak resident size
# (VmHWM, KiB), then runs the command and reads it again; prints the exit
# code and both peaks on stderr.  The child reads its own high-water mark:
# ru_maxrss would start at the parent's size, which Linux carries across
# exec.
RSS_GROWTH = """\
import sys
from tablepaths import cli, docs, pathtable

def peak():
    with open("/proc/self/status") as status:
        return next(line.split()[1] for line in status
                    if line.startswith("VmHWM:"))

before = peak()
code = cli.main(sys.argv[1:])
print(code, before, peak(), file=sys.stderr)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_table_text_costs_little_more_than_its_digits():
    # All 31 top rows of 62 x 2220 are text, made as their columns are made,
    # so no Decimal table is held beside their 36.4 M digits.
    m, n = 62, 2220
    _, rows = table_strings(m, n)
    digits = sum(len(cell) for row in itertools.islice(rows, (m + 1) // 2)
                 for cell in row)
    proc = subprocess.run(
        [sys.executable, "-c", RSS_GROWTH, "--format", "json", "table",
         "--m", str(m), "--n", str(n)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        check=True, env=MODULE_ENV)
    code, before_kib, after_kib = map(int, proc.stderr.split())
    assert code == 0
    assert (after_kib - before_kib) * 1024 <= 1.4 * digits
