"""Command-line interface.

Subcommands:

  table       print a count table and its column sums
  recurrence  minimal column recurrence and the three matching polynomials
  verify      run the identity-check suite
  rows        constant row-combination analysis for one table
  singer      order scan of a template family over a prime field

Exit codes: 0 when everything requested passed, 1 when a check of
``verify`` or ``recurrence`` failed (or an internal inconsistency was
found), 2 for configuration errors, 130 when an interrupt (SIGINT) ended
the command, 141 when the reader of the output closed it early.  Output
formats: plain text (default), json (deterministic structured documents),
csv; the csv form of ``singer`` is one 'n,verdict' line per size.

Importing this module and building its parser loads no other module of the
package than ``errors``.  Each command imports what it runs when it is
called, so ``table`` loads only ``pathtable`` (and ``docs`` for json), and
``--help`` or a usage error loads nothing more.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys

from .errors import DomainError, InternalInconsistencyError

M_CEILING = 64
N_CEILING = 10_000
SINGER_N_CEILING = 200


def _parse_range(text: str) -> tuple[int, int]:
    """Parse 'a..b' (inclusive) or a single integer."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        raise DomainError(f"bad range {text!r}, expected a..b") from None
    if hi < lo:
        raise DomainError(f"empty range {text!r}")
    return lo, hi


def _check_ceiling(value: int, ceiling: int, what: str, force: bool) -> None:
    if value > ceiling and not force:
        raise DomainError(
            f"{what} {value} exceeds the default ceiling {ceiling}; "
            f"pass --force to run anyway")


# -- table --------------------------------------------------------------------


def _cmd_table(args, out) -> int:
    from .pathtable import joined_blocks, table_strings
    _check_ceiling(args.m, M_CEILING, "m", args.force)
    _check_ceiling(args.n, N_CEILING, "n", args.force)
    sums, rows = table_strings(args.m, args.n)
    # A row, up to tens of MB of text, goes out in blocks of at most
    # ROW_BLOCK cells, so no write copies more than a block of it.
    if args.format == "json":
        from .docs import path_table_chunks
        for chunk in path_table_chunks(args.m, args.n, rows, sums):
            out.write(chunk)
        return 0
    if args.format == "csv":
        lines = itertools.chain(
            [("row", [str(n) for n in range(1, args.n + 1)])],
            enumerate(rows, start=1), [("sum", sums)])
        for name, row in lines:
            out.write(f"{name},")
            out.writelines(joined_blocks(row, ","))
            out.write("\n")
        return 0
    width = max(map(len, sums))
    label = max(len(f"y={args.m}"), len("sum"))
    out.write(f"m={args.m} n_max={args.n}\n")
    for name, row in itertools.chain(
            ((f"y={y}", row) for y, row in enumerate(rows, start=1)),
            [("sum", sums)]):
        out.write(f"{name:<{label}} | ")
        out.writelines(joined_blocks(row, " ", width))
        out.write("\n")
    return 0


# -- recurrence ----------------------------------------------------------------


def _cmd_recurrence(args, out) -> int:
    from .deltaops import format_poly
    from .recurrence import recurrence_report
    _check_ceiling(args.m, M_CEILING, "m", args.force)
    report = recurrence_report(args.m)
    status = 0 if report.equal else 1
    if args.format == "json":
        from .docs import render_document
        out.write(render_document(report))
        return status
    if args.format == "csv":
        out.write("key,value\n")
        out.write(f"m,{report.m}\n")
        out.write(f"k,{report.recurrence.k}\n")
        for i, a in enumerate(report.recurrence.alphas, start=1):
            out.write(f"alpha_{i},{a}\n")
        out.write(f"relation,{report.recurrence}\n")
        out.write(f"polynomials_equal,{str(report.equal).lower()}\n")
        return status
    out.write(f"m={report.m} k={report.recurrence.k}\n")
    out.write(f"recurrence: {report.recurrence}\n")
    out.write("alphas: " + ", ".join(str(a) for a in report.recurrence.alphas) + "\n")
    out.write(f"charpoly:         {format_poly(report.charpoly, 'x')}\n")
    out.write(f"operator poly:    {format_poly(report.operator_poly, 'x')}\n")
    out.write(f"recurrence poly:  {format_poly(report.recurrence_poly, 'x')}\n")
    out.write(f"polynomials equal: {'yes' if report.equal else 'NO'}\n")
    return status


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args, out) -> int:
    from .suite import run_suite
    _check_ceiling(args.m_max, M_CEILING, "m-max", args.force)
    _check_ceiling(args.n_max, N_CEILING, "n-max", args.force)
    report = run_suite(args.m_max, args.n_max)
    status = 0 if report.passed else 1
    if args.format == "json":
        from .docs import render_document
        out.write(render_document(report))
        return status
    if args.format == "csv":
        out.write("name,passed\n")
        for c in report.checks:
            out.write(f"{c.name},{str(c.passed).lower()}\n")
        return status
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        line = f"{mark}  {c.name:<24} {c.elapsed:8.3f}s"
        if c.detail:
            line += f"  {c.detail}"
        out.write(line + "\n")
    total = sum(1 for c in report.checks if c.passed)
    out.write(f"{total}/{len(report.checks)} checks passed "
              f"({report.elapsed:.3f}s total)\n")
    return status


# -- rows -----------------------------------------------------------------------


def _cmd_rows(args, out) -> int:
    from .recurrence import row_constant_combinations
    _check_ceiling(args.m, M_CEILING, "m", args.force)
    report = row_constant_combinations(args.m)
    if args.format == "json":
        from .docs import render_document
        out.write(render_document(report))
        return 0
    if args.format == "csv":
        out.write("key,value\n")
        out.write(f"m,{report.m}\n")
        out.write(f"exists,{str(report.exists).lower()}\n")
        out.write(f"lambda,{'' if report.lam is None else report.lam}\n")
        out.write("alphas," + " ".join(str(a) for a in report.alphas) + "\n")
        out.write(f"nullspace_dim,{report.nullspace_dim}\n")
        out.write(f"trivial_dim,{report.trivial_dim}\n")
        return 0
    out.write(f"m={report.m}\n")
    tag = "yes (m = 1 mod 4)" if report.exists else "no"
    out.write(f"nontrivial constant combination exists: {tag}\n")
    if report.exists:
        vec = ", ".join(str(a) for a in report.alphas)
        out.write(f"witness: alpha = ({vec}), constant = {report.lam}, "
                  f"verified for n=1..{report.verified_up_to}\n")
    out.write(f"constant-combination space: dimension {report.nullspace_dim} "
              f"(trivial {report.trivial_dim}, "
              f"nontrivial {report.nullspace_dim - report.trivial_dim})\n")
    return 0


# -- singer ----------------------------------------------------------------------


def _cmd_singer(args, out) -> int:
    from .singer import singer_scan
    lo, hi = _parse_range(args.n)
    _check_ceiling(hi, SINGER_N_CEILING, "n", args.force)
    report = singer_scan(args.family, args.q, lo, hi, args.budget)
    if args.format == "json":
        from .docs import render_document
        out.write(render_document(report))
    elif args.format == "csv":
        for e in report.entries:
            out.write(f"{e.n},{e.verdict.value}\n")
    else:
        out.write(f"family={args.family} q={report.q} "
                  f"n={report.n_lo}..{report.n_hi}\n")
        for e in report.entries:
            line = f"n={e.n:<4} {e.verdict.value:<15}"
            if e.order is not None:
                line += f" order={e.order}"
            if e.n == 1:
                if args.family == "O":
                    line += "  [boundary case: the 1x1 template is the identity]"
                else:
                    line += ("  [boundary case: 1x1 template (2), full order "
                             "iff 2 generates the multiplicative group]")
            out.write(line.rstrip() + "\n")
        full = report.full_order_ns()
        out.write("full order at: "
                  + (", ".join(str(n) for n in full) if full else "none") + "\n")
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tablepaths",
        description="Exact walk-count tables, their recurrences, and "
                    "order scans of the reduced transfer matrices.")
    parser.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain", help="output format")
    parser.add_argument("--force", action="store_true",
                        help="override the default size ceilings")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a count table")
    p_table.add_argument("--m", type=int, required=True, help="number of rows")
    p_table.add_argument("--n", type=int, required=True, help="number of columns")

    p_rec = sub.add_parser("recurrence", help="minimal column recurrence")
    p_rec.add_argument("--m", type=int, required=True, help="number of rows")

    p_verify = sub.add_parser(
        "verify", help="run the identity-check suite",
        description="Run every identity check.  Row-equivalence, "
                    "table-action and column-sum-formulas read "
                    "min(n-max, max(25, k)) values of each m, k = ceil(m/2); "
                    "once they read k values, they prove their identities "
                    "for every n.  More values stress the packed windows "
                    "and large cells; they add no proof.")
    p_verify.add_argument("--m-max", type=int, default=8)
    p_verify.add_argument("--n-max", type=int, default=20)

    p_rows = sub.add_parser(
        "rows", help="constant row-combination analysis",
        description="Solve for the row combinations whose column totals do "
                    "not depend on n, on the first m + 5 columns.  The "
                    "differences of consecutive columns follow the m x m "
                    "column transfer, so the first m of them, read from "
                    "m + 1 columns, span all the others: no deeper probe "
                    "changes the basis.")
    p_rows.add_argument("--m", type=int, required=True, help="number of rows")

    p_singer = sub.add_parser("singer", help="order scan over a prime field")
    p_singer.add_argument("--family", required=True,
                          help="matrix family, E or O")
    p_singer.add_argument("--q", type=int, required=True, help="prime modulus")
    p_singer.add_argument("--n", required=True,
                          help="size or inclusive range a..b")
    p_singer.add_argument("--budget", type=int, default=None,
                          help="factorization budget in rho iterations, 0 or "
                               "more (default gfmatrix.DEFAULT_FACTOR_BUDGET)")
    return parser


_COMMANDS = {
    "table": _cmd_table,
    "recurrence": _cmd_recurrence,
    "verify": _cmd_verify,
    "rows": _cmd_rows,
    "singer": _cmd_singer,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at its first use rather than at
    import; ``parse_args`` leaves it unchanged, so every call can share it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe.  Pointing stdout at devnull keeps the
        # interpreter's final flush of what is still buffered quiet (the
        # recipe in the signal module's documentation); 141 = 128 + SIGPIPE
        # is the status a shell reports for a writer killed by the signal.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        # 130 = 128 + SIGINT, the status a shell reports for a process the
        # signal ends, with one line in place of the traceback.
        print("interrupted", file=sys.stderr)
        return 130
    return status


if __name__ == "__main__":
    sys.exit(main())
