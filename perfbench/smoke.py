#!/usr/bin/env python3
"""Smoke test of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/smoke.py

Runs every workload at tiny size (its cheapest requests, one pass
untraced and two passes with tracing) and checks that:

* setup_s has the largest bound in BENCHMARK.json;
* every end-to-end metric is reported, every per-layer metric is non-zero
  on some workload, and the JSON result line carries exactly the metrics
  BENCHMARK.json lists;
* every output matches its golden, and a wrong golden is caught;
* no span starts before, ends after or outlasts its parent;
* each workload's traced pass reaches the layer it was chosen for.

It is not named test_*.py, so the package's pytest run does not collect it.
"""

from __future__ import annotations

import sys

import run
import spec

TINY = 3

# workload -> per-layer counters its traced pass must make non-zero
REACHES = {
    "singer-gf2": ("gfmatrix.pow.calls", "gfmatrix.factor.calls"),
    "singer-bigq": ("gfmatrix.factor.calls", "gfmatrix.is_prime.s"),
    "verify-suite": ("deltaops.apply.calls", "pathtable.build_table.calls",
                     "recurrence.det_bareiss.calls",
                     *(f"suite.check.{c}.s" for c in spec.SUITE_CHECKS)),
    "table-render": ("pathtable.build_table.cells", "cli.out_bytes"),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def check_benchmark_json() -> None:
    bounds = [bound for _, _, bound in spec.END_TO_END.values()]
    check(spec.END_TO_END["setup_s"][2] == max(bounds),
          "setup_s must have the largest bound")


def tiny_requests(pool: dict) -> list[dict]:
    cheapest = sorted(pool["entries"], key=lambda e: e["cost_s"])
    return cheapest[:TINY]


def smoke_workload(workload: str) -> set[str]:
    """Checks one workload; returns the per-layer metrics its traced
    costly requests made non-zero."""
    pool = run.load_pool(workload)
    requests = tiny_requests(pool)
    plain = run.measure(workload, pool, requests, 0, 0, trace=False)
    check(plain["failed"] == 0, f"{workload}: {plain['failures']}")
    want = set(spec.END_TO_END) | set(spec.REPORT_ONLY)
    check(set(plain["metrics"]) == want, f"{workload}: end-to-end metrics")
    line = run.result_line(plain)
    check(line["correct"] and set(line["metrics"]) == set(spec.END_TO_END),
          f"{workload}: result line")
    for name in spec.END_TO_END:
        check(line["metrics"][name]["value"] > 0, f"{workload}: {name} is 0")
    if "probe" in pool:
        check(len(plain["probes"]) == 1, f"{workload}: probe not run")

    traced = run.measure(workload, pool, requests, 0, 0, trace=True)
    check(traced["failed"] == 0, f"{workload} traced: {traced['failures']}")
    check(not traced["nesting_errors"],
          f"{workload}: {traced['nesting_errors']}")
    check([p["traced"] for p in traced["passes"]][:2] == [False, True],
          f"{workload}: passes do not alternate")

    # Reaching a layer needs the workload's own requests, not only the
    # cheapest: trace its costliest one alone, twice, so that repeated
    # work is seen too.
    costly = [max(pool["entries"], key=lambda e: e["cost_s"])] * 2
    if workload == "verify-suite":
        costly = requests[:1]
    reached = run.measure(workload, pool, costly, 0, 0, trace=True)
    for name in REACHES[workload]:
        check(reached["metrics"][name]["value"] > 0,
              f"{workload}: traced pass never reached {name}")
    print(f"smoke: {workload} ok")
    return {name for name, m in reached["metrics"].items() if m["value"]}


def smoke_wrong_golden() -> None:
    pool = run.load_pool("singer-gf3")
    entry = dict(pool["entries"][0], sha256="0" * 64)
    result = run.run_request(run.load_cli(), entry)
    check(not result["ok"], "a wrong golden was not caught")


def smoke_gf3() -> None:
    pool = run.load_pool("singer-gf3")
    cli = run.load_cli()
    bad = [e["argv"] for e in pool["entries"]
           if not run.run_request(cli, e)["ok"]]
    check(not bad, f"GF(3) requests differ from their goldens: {bad}")
    print("smoke: singer-gf3 goldens ok")


def main() -> int:
    run.pin_environment()
    check_benchmark_json()
    smoke_wrong_golden()
    smoke_gf3()
    reached = set()
    for workload in spec.WORKLOADS:
        reached |= smoke_workload(workload)
    check(reached >= set(spec.PER_LAYER),
          f"per-layer metrics no workload reached: "
          f"{sorted(set(spec.PER_LAYER) - reached)}")
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
