#!/usr/bin/env python3
"""Benchmark harness for the tablepaths CLI.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

A workload is a closed loop with one client in one process.  The seed draws
the request list from the workload's committed pool (perfbench/goldens):
requests from each cost class, in a shuffled order, so every seed's list
costs about the same.  Every request is an in-process call to
``tablepaths.cli.main(argv)`` whose stdout goes to a sink that hashes and
counts bytes, and every output is compared with its golden.  Passes over the
list repeat while another is expected to end within --seconds.

With --trace 0 the run reports the end-to-end metrics, with times scaled to
a reference host speed measured between requests (hostspeed.py).  With
--trace 1 the passes alternate untraced and traced, and the run reports
per-layer metrics of the traced passes plus the tracing overhead (traced
minus untraced pass time).  The last line of stdout is a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a result
file with the machine, the versions, the seed and the request list goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spec  # noqa: E402
from spans import Tracer  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_STARTS = 9
SETUP_SNIPPET = (
    "import sys, time\n"
    f"sys.path.append({str(HERE)!r})\n"
    "from hostspeed import calibrate\n"
    "before = calibrate()\n"
    "start = time.perf_counter()\n"
    "import tablepaths.cli\n"
    "tablepaths.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, before, calibrate())\n"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or goldens)."""


# -- environment ----------------------------------------------------------


def pin_environment() -> None:
    """One BLAS thread, no budget override, and the checkout's own sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("TABLEPATHS_FACTOR_BUDGET", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def load_cli():
    if not (SRC / "tablepaths" / "cli.py").is_file():
        raise BenchError(f"no tablepaths sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tablepaths
    import tablepaths.cli

    if Path(tablepaths.__file__).resolve().parent != SRC / "tablepaths":
        raise BenchError(f"imported tablepaths from {tablepaths.__file__}, "
                         f"not from {SRC}")
    return tablepaths.cli


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup() -> list[float]:
    """Seconds for fresh interpreters to import the CLI and build its parser,
    scaled to reference host speed (see hostspeed.py).

    One untimed start comes first, so bytecode compilation of a fresh
    checkout is not counted.
    """
    times = []
    for i in range(SETUP_STARTS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"setup start failed: {done.stderr.strip()}")
        if i:
            times.append(hostspeed.scaled(*map(float, done.stdout.split())))
    return times


# -- requests ---------------------------------------------------------------


def load_pool(workload: str) -> dict:
    path = HERE / "goldens" / f"{workload}.json"
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise BenchError(f"cannot read goldens {path}: {exc}") from exc


def draw_requests(pool: dict, seed: int) -> list[dict]:
    """``draws_per_class`` entries (default one) from each cost class,
    chosen with replacement and ordered by the seed."""
    rng = random.Random(seed)
    classes: dict[str, list[dict]] = {}
    for entry in pool["entries"]:
        classes.setdefault(entry["cls"], []).append(entry)
    draws = pool.get("draws_per_class", 1)
    chosen = [e for members in classes.values()
              for e in rng.choices(members, k=draws)]
    rng.shuffle(chosen)
    return chosen


class Sink(io.TextIOBase):
    """Stand-in for stdout: hashes and counts the bytes written, keeps none
    of them, and times its own work so it can be left out of latencies."""

    def __init__(self, count_verdicts: bool = False):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.time = 0.0
        self.count_verdicts = count_verdicts
        self.verdicts = 0
        self.unknown = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        start = time.perf_counter()
        data = text.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        if self.count_verdicts:
            self.verdicts += text.count('"verdict": ')
            self.unknown += text.count('"verdict": "UNKNOWN"')
        self.time += time.perf_counter() - start
        return len(text)


def run_request(cli, entry: dict, tracer: Tracer | None = None,
                request_id=None) -> dict:
    """One call of ``cli.main``, timed and checked against the entry's golden.

    ``main`` is looked up on the module at call time, so the traced wrapper
    is the one called while a tracer is installed.
    """
    argv = entry["argv"]
    out = Sink(count_verdicts="singer" in argv)
    err = Sink()
    code, error = None, None
    if tracer is not None:
        tracer.begin_request(request_id)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crashing request is a failed request
        error = "".join(traceback.format_exception_only(exc)).strip()[:300]
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()
    ok = (error is None and code == entry["exit"]
          and out.bytes == entry["bytes"]
          and out.sha.hexdigest() == entry["sha256"])
    return {
        "argv": argv,
        "ok": ok,
        "exit": code,
        "error": error,
        "latency_s": elapsed - out.time - err.time,
        "sink_s": out.time + err.time,
        "out_bytes": out.bytes,
        "sha256": out.sha.hexdigest(),
        "verdicts": out.verdicts,
        "unknown": out.unknown,
    }


def run_passes(cli, requests: list[dict], seconds: float, trace: bool):
    """Closed loop over the request list for about ``seconds``.

    A new pass starts only while it is expected to end within ``seconds``
    (judged by the median pass so far), but there is always one pass, and
    two with ``trace``: every second pass is traced, starting with the
    second.  A pass's wall time is the sum of its request latencies, so the
    harness's own work between requests is left out.  The host speed is
    calibrated between requests, and each request's latency is also kept
    scaled to reference speed (``scaled_s``).
    """
    passes = []
    start = time.perf_counter()
    min_passes = 2 if trace else 1

    def room_for_another() -> bool:
        typical = statistics.median(p["elapsed"] for p in passes)
        return time.perf_counter() - start + typical <= seconds

    while len(passes) < min_passes or room_for_another():
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        pass_start = time.perf_counter()
        results = []
        try:
            before = hostspeed.calibrate()
            for i, entry in enumerate(requests):
                result = run_request(cli, entry, tracer, (len(passes), i))
                after = hostspeed.calibrate()
                result["scaled_s"] = hostspeed.scaled(result["latency_s"],
                                                      before, after)
                results.append(result)
                before = after
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append({
            "traced": tracer is not None,
            "elapsed": time.perf_counter() - pass_start,
            "wall_s": sum(r["latency_s"] for r in results),
            "scaled_wall_s": sum(r["scaled_s"] for r in results),
            "results": results,
            "tracer": tracer,
        })
    return passes


# -- metrics --------------------------------------------------------------


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def end_to_end(workload: str, passes, probes, setup_times, peak_rss_kb):
    """Every end-to-end metric as (value or None, unit, samples).

    A request's latency is the lower quartile over the run's passes of its
    time scaled to reference host speed, and ``wall_s`` is the sum of these
    latencies over the request list.  Raw times swing with the load other
    tenants put on a shared host.  Scaling (hostspeed.py) takes out most of
    the swing, and what it leaves only ever adds time, so the lower quartile
    is steadier than the median.
    """
    results = [r for p in passes for r in p["results"]]
    latencies = sorted(
        lower_quartile([p["results"][i]["scaled_s"] for p in passes]) * 1000
        for i in range(len(passes[0]["results"])))
    checked = results + probes
    failed = sum(not r["ok"] for r in checked)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(latencies) / 1000, "s", len(passes)),
        "req_p50_ms": (statistics.median(latencies), "ms", len(latencies)),
        "req_p90_ms": ((statistics.quantiles(latencies, n=10)[8]
                        if len(latencies) >= 100 else None),
                       "ms", len(latencies)),
        "failed_frac": (failed / len(checked), "ratio", len(checked)),
        "undecided_frac": (None, "ratio", 0),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB", 1),
    }
    if workload.startswith("singer-"):
        verdicts = sum(r["verdicts"] for r in results)
        metrics["undecided_frac"] = (
            sum(r["unknown"] for r in results) / verdicts, "ratio", verdicts)
    return metrics


def per_layer(passes):
    """Every per-layer metric: the median over traced passes.

    Span times are raw, and so is their base ``trace.wall_s``, the traced
    pass time.  ``trace.overhead_s`` compares traced with untraced passes,
    which ran at different moments, so it uses their scaled times.
    """
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    samples = []
    for p in traced:
        values = p["tracer"].metrics()
        # Every stdout write happens in cli code, so the sink's own time
        # would otherwise count as cli self time.
        values["cli.self_s"] -= sum(r["sink_s"] for r in p["results"])
        values["cli.out_bytes"] = sum(r["out_bytes"] for r in p["results"])
        values["trace.wall_s"] = p["wall_s"]
        samples.append(values)
    traced_wall = statistics.median(p["scaled_wall_s"] for p in traced)
    out = {}
    for name, (unit, _) in spec.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = traced_wall - statistics.median(p["scaled_wall_s"]
                                                    for p in plain)
        else:
            value = statistics.median(s.get(name, 0) for s in samples)
        out[name] = (value, unit, len(traced))
    return out


# -- one workload -------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pool = load_pool(workload)
    return measure(workload, pool, draw_requests(pool, seed), seed, seconds,
                   trace)


def measure(workload: str, pool: dict, requests: list[dict], seed: int,
            seconds: float, trace: bool) -> dict:
    """Set up, run the timed passes, then the probe; returns the report."""
    setup_times = [] if trace else measure_setup()
    cli = load_cli()
    passes = run_passes(cli, requests, seconds, trace)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The probe runs once, outside the timed window and after the peak RSS
    # reading; it counts towards failed_frac only.
    probes = ([run_request(cli, pool["probe"])]
              if "probe" in pool and not trace else [])
    if trace:
        metrics = per_layer(passes)
        nesting = [msg for p in passes if p["traced"]
                   for msg in p["tracer"].check_nesting()]
    else:
        metrics = end_to_end(workload, passes, probes, setup_times, peak_rss_kb)
        nesting = []
    timed = [r for p in passes for r in p["results"]]
    return {
        "workload": workload,
        "why": spec.WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "requests": [e["argv"] for e in requests],
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "scaled_wall_s": p["scaled_wall_s"],
                    "elapsed_s": p["elapsed"]}
                   for p in passes],
        "setup_s": setup_times,
        "attempted": len(timed),
        "failed": sum(not r["ok"] for r in timed),
        "failures": [r for r in timed if not r["ok"]][:20],
        "probes": probes,
        "nesting_errors": nesting[:20],
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
    }


def summary_lines(report: dict) -> list[str]:
    lines = [f"workload {report['workload']} seed {report['seed']} "
             f"trace {report['trace']}: {len(report['requests'])} requests "
             f"per pass, {len(report['passes'])} passes, "
             f"{report['attempted']} attempted, {report['failed']} failed"]
    for probe in report["probes"]:
        status = "ok" if probe["ok"] else f"FAILED ({probe['error'] or probe['exit']})"
        lines.append(f"  probe {' '.join(probe['argv'])}: {status}")
    for name, m in report["metrics"].items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:<42} {value:>14} {m['unit']:<6} "
                     f"(n={m['samples']})")
    return lines


def result_line(report: dict) -> dict:
    names = spec.PER_LAYER if report["trace"] else spec.END_TO_END
    return {
        "correct": report["failed"] == 0 and not report["nesting_errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name]["value"],
                           "unit": report["metrics"][name]["unit"]}
                    for name in names},
    }


def write_result(report: dict) -> Path:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / (f"{report['workload']}-seed{report['seed']}"
                      f"-trace{report['trace']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return path


def run_all(args) -> int:
    """Each workload in its own process; prints every metric of each."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        *lines, last = done.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*spec.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_result(report)
    print("\n".join(summary_lines(report)))
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps(result_line(report)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
