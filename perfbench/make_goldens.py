#!/usr/bin/env python3
"""Generate the request pools and golden outputs under perfbench/goldens/.

    python3 perfbench/make_goldens.py [WORKLOAD ...]

Run from the repository root, preferably on an idle machine: the measured
cost of each candidate request, scaled to reference host speed
(hostspeed.py), decides its cost class, and ``run.py`` draws one request
per class.  Every golden is cross-checked against a route that does
not go through the code under test where one exists:

* singer: each factorization multiplies back to q^n - 1 and each of its
  primes passes ``sympy.isprime``; GF(3) verdicts agree with the committed
  fixture tests/data/singer_odd_gf3.txt;
* table: the CLI output equals, byte for byte, the text this script renders
  from its own dynamic program, whose cells for small columns match
  ``enumerate_paths``;
* every json document survives a ``parse_document`` round trip.

The goldens describe the package as it is when they are generated; run this
again only when an output is meant to change, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import time
from math import prod

import sympy

import hostspeed
import run
import spec

GOLDENS = run.HERE / "goldens"
FIXTURE_GF3 = run.ROOT / "tests" / "data" / "singer_odd_gf3.txt"

GF2_N_MAX = 90
BIGQ_POOL = 1200
BIGQ_CLASSES = 60
BIGQ_BUDGET = 500_000
# One class of equal-cost requests, drawn VERIFY_DRAWS times per pass: only
# many samples of one cost keep the medians steady from seed to seed.  From
# m-max 23 on, DeltaPoly.apply takes most of a request's time (below 20 it
# takes under half), and below 28 a request stays short enough, about 1.5 s
# on an idle host, for the host-speed calibration around it to track it.
VERIFY_M = range(23, 28)
VERIFY_N = range(40, 121, 10)
VERIFY_DRAWS = 3
# Tables cost about m * n^2.9; each size class holds (m, n) pairs of equal
# m * n^2.9, one per m.
TABLE_CLASSES = {"small": ((8, 10, 12, 14, 16), 12, 1000),
                 "medium": ((24, 28, 32, 36, 40), 32, 1600),
                 "large": ((56, 58, 60, 62, 64), 56, 2300)}
TABLE_FORMATS = ("plain", "json", "csv")
PROBE_ARGV = ["table", "--m", "5", "--n", "10000"]
CLASS_TOLERANCE = 0.05


def observe(cli, argv) -> dict:
    """Exit code, output digest, size and cost of one request; the cost
    (``latency_s``) is scaled to reference host speed."""
    before = hostspeed.calibrate()
    res = run.run_request(cli, {"argv": argv, "exit": None, "bytes": -1,
                                 "sha256": ""})
    res["latency_s"] = hostspeed.scaled(res["latency_s"], before,
                                        hostspeed.calibrate())
    if res["error"]:
        raise SystemExit(f"{argv}: {res['error']}")
    return res


def capture(cli, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
    return buf.getvalue()


def entry(argv, cls, res, **extra) -> dict:
    return {"argv": argv, "cls": cls, "exit": res["exit"],
            "bytes": res["out_bytes"], "sha256": res["sha256"],
            "cost_s": round(res["latency_s"], 4), **extra}


def round_trip(text: str) -> object:
    from tablepaths.docs import parse_document, render_document

    doc = parse_document(text)
    if render_document(doc) != text:
        raise SystemExit("document does not survive a parse_document round "
                         "trip")
    return doc


def classify(cli, cls: str, argvs: list[list[str]]) -> list[dict]:
    """Entries for the candidates whose cost lies within CLASS_TOLERANCE of
    the class median (the low median, so at least one candidate is kept).

    Every candidate is timed once; those within twice the tolerance are
    timed twice more in a shuffled order, and the median of the three times
    is the cost.  Repeated runs must give the same output.
    """
    first = [observe(cli, argv) for argv in argvs]
    mid = statistics.median_low(r["latency_s"] for r in first)
    near = [r for r in first
            if abs(r["latency_s"] - mid) <= 2 * CLASS_TOLERANCE * mid]
    times = {id(r): [r["latency_s"]] for r in near}
    again = near * 2
    random.Random(cls).shuffle(again)
    for r in again:
        res = observe(cli, r["argv"])
        if (res["exit"], res["sha256"]) != (r["exit"], r["sha256"]):
            raise SystemExit(f"{r['argv']}: output differs between runs")
        times[id(r)].append(res["latency_s"])
    cost = {id(r): statistics.median(times[id(r)]) for r in near}
    mid = statistics.median_low(cost.values())
    return [entry(r["argv"], cls, r, cost_s=round(cost[id(r)], 4))
            for r in near if abs(cost[id(r)] - mid) <= CLASS_TOLERANCE * mid]


# -- singer -----------------------------------------------------------------


def singer_argv(family, q, n, budget=None) -> list[str]:
    argv = ["--format", "json", "singer", "--family", family, "--q", str(q),
            "--n", str(n)]
    return argv + ["--budget", str(budget)] if budget is not None else argv


def singer_entry(cli, argv, cls) -> dict:
    res = observe(cli, argv)
    report = round_trip(capture(cli, argv))
    for e in report.entries:
        check_singer_entry(report.q, e)
    verdicts = [e.verdict.value for e in report.entries]
    return entry(argv, cls, res, verdicts=verdicts)


def check_singer_entry(q, e) -> None:
    fact = e.factorization
    where = f"q={q} n={e.n}"
    if fact is None:
        if e.verdict.value != "NOT_INVERTIBLE":
            raise SystemExit(f"{where}: {e.verdict.value} without factors")
        return
    if fact.value != q**e.n - 1:
        raise SystemExit(f"{where}: factored {fact.value}, not q^n - 1")
    if fact.cofactor * prod(p**k for p, k in fact.factors) != fact.value:
        raise SystemExit(f"{where}: factorization does not multiply back")
    if not all(sympy.isprime(p) for p, _ in fact.factors):
        raise SystemExit(f"{where}: a listed factor is not prime")
    if fact.complete != (fact.cofactor == 1):
        raise SystemExit(f"{where}: complete flag disagrees with cofactor")
    if not fact.complete and sympy.isprime(fact.cofactor):
        raise SystemExit(f"{where}: prime cofactor left unfactored")
    if e.verdict.value == "UNKNOWN" and fact.complete:
        raise SystemExit(f"{where}: UNKNOWN with a complete factorization")
    if e.order is not None and fact.value % e.order:
        raise SystemExit(f"{where}: order does not divide q^n - 1")
    if (e.verdict.value == "FULL_ORDER") != (e.order == fact.value):
        raise SystemExit(f"{where}: verdict disagrees with order")


def make_singer_gf2(cli) -> dict:
    entries = [singer_entry(cli, singer_argv(f, 2, n), f"{f}{n}")
               for f in "EO" for n in range(1, GF2_N_MAX + 1)]
    return {"entries": entries}


def make_singer_gf3(cli) -> dict:
    """GF(3) scans, used by the smoke test and checked against the fixture."""
    entries = [singer_entry(cli, singer_argv(f, 3, n), f"{f}{n}")
               for f in "EO" for n in range(1, 17)]
    expected = {}
    for line in FIXTURE_GF3.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            n, verdict = line.split(",")
            expected[int(n)] = verdict.strip()
    got = {int(e["argv"][-1]): e["verdicts"][0] for e in entries
           if e["argv"][4] == "O"}
    if any(got[n] != v for n, v in expected.items()):
        raise SystemExit("GF(3) goldens disagree with the committed fixture")
    return {"entries": entries}


def make_singer_bigq(cli) -> dict:
    from tablepaths.gfmatrix import is_prime

    rng = random.Random(1910_09844)
    primes = [p for p in range(2**10, 2**16) if is_prime(p)]
    if any(not sympy.isprime(p) for p in primes):
        raise SystemExit("is_prime and sympy disagree on a modulus")
    seen, candidates = set(), []
    while len(candidates) < BIGQ_POOL:
        key = (rng.choice("EO"), rng.choice(primes), rng.randint(2, 14))
        if key in seen:
            continue
        seen.add(key)
        candidates.append(singer_entry(cli, singer_argv(*key, BIGQ_BUDGET),
                                       None))
    # The cost that sorts a candidate into its class is the median of three
    # timings taken in shuffled order, so one slow moment misplaces nothing.
    times = {id(c): [c["cost_s"]] for c in candidates}
    again = candidates * 2
    rng.shuffle(again)
    for c in again:
        times[id(c)].append(observe(cli, c["argv"])["latency_s"])
    for c in candidates:
        c["cost_s"] = round(statistics.median(times[id(c)]), 4)
    candidates.sort(key=lambda c: c["cost_s"])
    size = BIGQ_POOL // BIGQ_CLASSES
    for i, c in enumerate(candidates):
        c["cls"] = f"c{i // size:02d}"
    return {"entries": candidates}


# -- verify -------------------------------------------------------------------


def make_verify_suite(cli) -> dict:
    observe(cli, ["--format", "json", "verify"])  # fills the multiplier memo
    argvs = [["--format", "json", "verify", "--m-max", str(m), "--n-max",
              str(n)] for m in VERIFY_M for n in VERIFY_N]
    entries = classify(cli, "mid", argvs)
    for c in entries:
        report = round_trip(capture(cli, c["argv"]))
        names = tuple(check.name for check in report.checks)
        if not report.passed or names != spec.SUITE_CHECKS:
            raise SystemExit(f"{c['argv']}: unexpected verify report")
    return {"draws_per_class": VERIFY_DRAWS, "entries": entries}


# -- tables -------------------------------------------------------------------


def dec(v: int, limit_bits: int = 14_000) -> str:
    """Decimal digits of v >= 0, split so no single str() call exceeds the
    interpreter's int-to-str digit limit."""
    if v.bit_length() <= limit_bits:
        return str(v)
    k = int(v.bit_length() * 0.30103) // 2
    hi, lo = divmod(v, 10**k)
    return dec(hi, limit_bits) + dec(lo, limit_bits).zfill(k)


def table_rows(m: int, n: int) -> list[list[int]]:
    """rows[y][x]: walks of n columns on the strip 1..m, by rows."""
    rows = [[0] * n for _ in range(m)]
    for y in range(m):
        rows[y][0] = 1
    for x in range(1, n):
        for y in range(m):
            rows[y][x] = (rows[y][x - 1]
                          + (rows[y - 1][x - 1] if y > 0 else 0)
                          + (rows[y + 1][x - 1] if y + 1 < m else 0))
    return rows


def render_table(m: int, n: int, fmt: str):
    """The CLI's table output, as chunks of text."""
    rows = table_rows(m, n)
    sums = [dec(sum(rows[y][x] for y in range(m))) for x in range(n)]
    cells = [[dec(v) for v in row] for row in rows]
    if fmt == "json":
        doc = {"kind": "path_table", "m": m, "n_max": n, "cells": cells,
               "column_sums": sums}
        yield json.dumps(doc, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        yield ",".join(["row"] + [str(x) for x in range(1, n + 1)]) + "\n"
        for y in range(m):
            yield ",".join([str(y + 1)] + cells[y]) + "\n"
        yield ",".join(["sum"] + sums) + "\n"
    else:
        width = max(len(s) for s in sums)
        label = max(len(f"y={m}"), len("sum"))
        yield f"m={m} n_max={n}\n"
        for y in range(m):
            yield (f"{f'y={y + 1}':<{label}} | "
                   + " ".join(c.rjust(width) for c in cells[y]) + "\n")
        yield f"{'sum':<{label}} | " + " ".join(s.rjust(width) for s in sums) + "\n"


def digest(chunks) -> tuple[int, str]:
    sha, size = hashlib.sha256(), 0
    for chunk in chunks:
        data = chunk.encode("utf-8")
        sha.update(data)
        size += len(data)
    return size, sha.hexdigest()


def check_cells_by_enumeration(m: int, rng: random.Random) -> None:
    from tablepaths.pathtable import enumerate_paths

    rows = table_rows(m, 9)
    for _ in range(4):
        x, y = rng.randint(1, 9), rng.randint(1, m)
        if enumerate_paths(m, (x, y)) != rows[y - 1][x - 1]:
            raise SystemExit(f"m={m} cell ({x},{y}) disagrees with "
                             f"enumerate_paths")


def check_dec() -> None:
    v = 7**5000
    if dec(v, limit_bits=300) != str(v):
        raise SystemExit("split decimal conversion is wrong")


def make_table_render(cli) -> dict:
    check_dec()
    rng = random.Random(64_2500)
    entries = []
    for size, (ms, m0, n0) in TABLE_CLASSES.items():
        pairs = [(m, int(round(n0 * (m0 / m) ** (1 / 2.9), -1))) for m in ms]
        for m, _ in pairs:
            check_cells_by_enumeration(m, rng)
        for fmt in TABLE_FORMATS:
            argvs = [["--format", fmt, "table", "--m", str(m), "--n", str(n)]
                     for m, n in pairs]
            for c in classify(cli, f"{fmt}-{size}", argvs):
                m, n = int(c["argv"][4]), int(c["argv"][6])
                if (c["bytes"], c["sha256"]) != digest(render_table(m, n, fmt)):
                    raise SystemExit(f"{c['argv']}: output differs from the "
                                     f"independent rendering")
                if fmt == "json":
                    round_trip(capture(cli, c["argv"]))
                entries.append(c)
    size, sha = digest(render_table(5, 10_000, "plain"))
    probe = {"argv": PROBE_ARGV, "exit": 0, "bytes": size, "sha256": sha}
    return {"entries": entries, "probe": probe}


def write_pool(pool: dict, handle) -> None:
    """JSON with one entry per line, so diffs of the goldens stay readable."""
    fields = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pool.items()
              if k != "entries"]
    entries = ",\n  ".join(json.dumps(e) for e in pool["entries"])
    handle.write("{\n " + ",\n ".join(fields)
                 + f',\n "entries": [\n  {entries}\n ]\n}}\n')


MAKERS = {
    "singer-gf2": make_singer_gf2,
    "singer-gf3": make_singer_gf3,
    "singer-bigq": make_singer_bigq,
    "verify-suite": make_verify_suite,
    "table-render": make_table_render,
}


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(MAKERS)
    unknown = [n for n in names if n not in MAKERS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    run.pin_environment()
    cli = run.load_cli()
    GOLDENS.mkdir(exist_ok=True)
    for name in names:
        start = time.perf_counter()
        pool = MAKERS[name](cli)
        pool = {"workload": name, "machine": run.machine(), **pool}
        path = GOLDENS / f"{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            write_pool(pool, handle)
        print(f"{name}: {len(pool['entries'])} entries in "
              f"{time.perf_counter() - start:.1f}s -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
