#!/usr/bin/env python3
"""defosc benchmark: seeded closed-loop workloads, checked against a 50-digit reference.

Run from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 1

`--trace 0` measures the end-to-end metrics; `--trace 1` measures the same
passes untraced, then one traced pass, and reports per-layer metrics.
`--workload all` traces every workload and prints ROADMAP item 1's baseline
table.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; see bench/README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import baseline
import tracing
import workloads
from workloads import BENCH, ROOT, cli_env

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import defosc.cli; "
                  "print(time.perf_counter() - t)")


def tail_percentile(pass_tasks: int) -> float:
    """Highest percentile with TAIL_BEYOND tasks of the task list beyond it."""
    return 100.0 * (1.0 - TAIL_BEYOND / pass_tasks)


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def setup_probe_seconds(workload: str, seed: int) -> float:
    """Interpreter start to 'ready to run the first timed task' in a fresh process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                             "--seed", str(seed), "--setup-probe"],
                            cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def import_probe_ms() -> float:
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=cli_env(),
                              capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
        samples.append(float(done.stdout) * 1e3)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Tally:
    """Outcomes of every timed task execution."""

    def __init__(self):
        self.latencies: dict[int, list[float]] = defaultdict(list)  # per task index
        self.pass_walls: list[float] = []
        self.counts = {"ok": 0, "failed": 0, "refused": 0}
        self.max_err = 0.0
        self.problems: list[str] = []


def run_pass(wl, tally: Tally, tracer=None) -> list:
    """One closed-loop pass over the task list; returns the raw outputs."""
    results = []
    perf = time.perf_counter
    pass_start = perf()
    for task in wl.tasks:
        if tracer is not None:
            tracer.task = task.index
            span = tracer.begin(f"task.{task.cls}", task.size)
        start = perf()
        status = None
        try:
            out = wl.run(task, tracer)
        except wl.refused as exc:
            out, status = repr(exc), "refused"
        except Exception as exc:  # a raw exception is a failed task, not a crash
            out, status = repr(exc), "failed"
        tally.latencies[task.index].append(perf() - start)
        if tracer is not None:
            tracer.end(span, status is not None)
        results.append((task, out, status))
    tally.pass_walls.append(perf() - pass_start)
    return results


def check_pass(wl, results: list, tally: Tally) -> None:
    """Check one pass's outputs (after its timed region)."""
    for task, out, status in results:
        if status is None:
            status, err, problem = wl.check(task, wl.summarize(out))
            tally.max_err = max(tally.max_err, err)
        else:
            problem = out
        tally.counts[status] += 1
        if problem is not None and len(tally.problems) < 10:
            tally.problems.append(f"{wl.name} task {task.index} ({task.cls}, {task}): {status}: {problem}")


def setup(workload: str, seed: int):
    wl = workloads.WORKLOADS[workload](workload, seed)
    for task in wl.warmup_tasks():
        wl.run(task)
    return wl


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = setup(workload, seed)
    tally = Tally()
    while True:  # the pass count that lands closest to the budget, at least one
        check_pass(wl, run_pass(wl, tally), tally)
        reserve = tally.pass_walls[-1] if trace else 0.0  # room for the traced pass
        if sum(tally.pass_walls) + tally.pass_walls[-1] / 2 > seconds - reserve:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli"
                                     else resource.RUSAGE_SELF).ru_maxrss
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "pass_tasks": len(wl.tasks), "passes": len(tally.pass_walls)}
    if trace:
        import defosc

        untraced_wall = statistics.median(tally.pass_walls)
        tracer = tracing.Tracer()
        tracer.install(defosc)
        try:
            traced = run_pass(wl, tally, tracer)
        finally:
            tracer.uninstall()
        check_pass(wl, traced, tally)
        spans = tracer.spans()
        result["spans"] = spans
        result["layers"] = tracing.layer_totals(spans)
        result["rep_bytes"] = max((out[4] for task, out, status in traced
                                   if workload == "verify" and status is None), default=0)
        result["bytes_out"] = sum(len(out[1].encode()) for task, out, status in traced
                                  if workload == "cli" and status is None)
        result["overhead_s"] = tally.pass_walls[-1] - untraced_wall
        result["import_ms"] = import_probe_ms()
    else:
        # a task's latency is its mean over the passes: a shared host can
        # switch between a fast and a half-speed state every 0.1-0.2 s, and a
        # mean moves smoothly with the share of time spent in each where a
        # pooled median jumps from one state to the other
        task_ms = [statistics.fmean(runs) * 1e3 for runs in tally.latencies.values()]
        pct = tail_percentile(len(wl.tasks))
        result.update(
            tail_percentile=pct,
            samples=sum(map(len, tally.latencies.values())),
            task_p50_ms=statistics.median(task_ms),
            task_tail_ms=nearest_rank(task_ms, pct),
            tasks_per_s=len(wl.tasks) * len(tally.pass_walls) / sum(tally.pass_walls),
            peak_rss_mb=peak_rss_kb / 1024.0,
            setup_s=statistics.median(setup_probe_seconds(workload, seed)
                                      for _ in range(SETUP_PROBES)),
        )
    attempted = sum(tally.counts.values())
    result.update(attempted=attempted, counts=tally.counts, max_rel_err=tally.max_err,
                  problems=tally.problems,
                  ok_ratio=tally.counts["ok"] / attempted,
                  failed_ratio=tally.counts["failed"] / attempted,
                  refused_ratio=tally.counts["refused"] / attempted)
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def end_to_end_metrics(result: dict) -> dict:
    units = {"task_p50_ms": "ms", "task_tail_ms": "ms", "tasks_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}
    return {name: {"value": result[name], "unit": unit} for name, unit in units.items()}


def per_layer_metrics(result: dict) -> dict:
    metrics = {}
    for name, totals in result["layers"].items():
        metrics[f"{name}.calls"] = {"value": totals["calls"], "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": totals["self_ms"], "unit": "ms"}
        metrics[f"{name}.errors"] = {"value": totals["errors"], "unit": "count"}
    metrics["fock.rep_bytes"] = {"value": result["rep_bytes"], "unit": "bytes"}
    metrics["cli.import_ms"] = {"value": result["import_ms"], "unit": "ms"}
    metrics["cli.bytes_out"] = {"value": result["bytes_out"], "unit": "bytes"}
    metrics["check.max_rel_err"] = {"value": result["max_rel_err"], "unit": "ratio"}
    metrics["trace.overhead_s"] = {"value": result["overhead_s"], "unit": "s"}
    return metrics


def write_spans(path: Path, spans: list[tuple]) -> None:
    with gzip.open(path, "wt", compresslevel=1) as handle:
        handle.write("id\t" + "\t".join(tracing.FIELDS) + "\n")
        for i, span in enumerate(spans):
            handle.write(f"{i}\t" + "\t".join(map(repr, span)) + "\n")


def report(result: dict, metrics: dict) -> None:
    """Human-readable summary (every line before the final JSON line)."""
    print(f"workload {result['workload']}  seed {result['seed']}  passes {result['passes']}"
          f"  tasks/pass {result['pass_tasks']}  attempted {result['attempted']}")
    for name, metric in metrics.items():
        print(f"  {name:44} {metric['value']:.6g} {metric['unit']}")
    for name in ("failed_ratio", "refused_ratio"):
        print(f"  {name:44} {result[name]:.6g} ratio")
    if "tail_percentile" in result:
        print(f"  task_tail_ms is p{result['tail_percentile']:.4g} of {result['pass_tasks']} per-task mean"
              f" latencies ({TAIL_BEYOND} tasks beyond it); {result['samples']} timed tasks")
    print(f"  check.max_rel_err {result['max_rel_err']:.3g}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print("machine " + json.dumps(result["machine"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "defosc" / "__init__.py").is_file():
        print(f"error: no defosc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace) or args.workload == "all"
    results = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, trace)
        result["machine"] = machine_facts()
        metrics = per_layer_metrics(result) if trace else end_to_end_metrics(result)
        report(result, metrics)
        stem = f"{name}-seed{args.seed}-trace{int(trace)}"
        if trace:
            write_spans(OUT / f"spans-{stem}.tsv.gz", result["spans"])
        results[name] = (result, metrics)
        (OUT / f"result-{stem}.json").write_text(json.dumps(
            {k: v for k, v in result.items() if k != "spans"} | {"metrics": metrics}, indent=1))

    if trace:
        table = baseline.rows({name: r["spans"] for name, (r, _) in results.items()},
                              statistics.median(r["import_ms"] for r, _ in results.values()))
        print(baseline.format_rows(table))
        (OUT / f"baseline-{args.workload}-seed{args.seed}.json").write_text(json.dumps(table, indent=1))

    attempted = sum(r["attempted"] for r, _ in results.values())
    failed = sum(r["counts"]["failed"] + r["counts"]["refused"] for r, _ in results.values())
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": results[names[0]][1] if len(names) == 1 else
             {f"{name}.{key}": value for name, (_, m) in results.items() for key, value in m.items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
