"""Run one benchmark workload and print its metrics.

Untraced (``--trace 0``): three cold set-ups, alternating with as many
timed runs as fit in ``--seconds``; reports the end-to-end metrics (the
median set-up, and the sum over a run's operations of each one's fastest
time).  Traced
(``--trace 1``): one cold set-up and one run with every layer boundary
wrapped (see :mod:`layers`), next to untraced runs for the overhead and the
digest comparison; reports the per-layer metrics.  Every run is validated
after its timed region.  The last line of standard output is the JSON
result; ``perfbench/out/`` receives a record of the run and, when traced,
the spans as a Chrome trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from layers import CALL_COUNT_METRICS, ROOTS, SELF_TIME_METRICS, SpanRecorder, layer_spans
from repro.bench import runner
from run import PINNED_ENV
from workloads import DEFAULT_SEED, WORKLOADS

SETUP_REPEATS = 3
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "sim_iterations_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_TIME_METRICS.values()},
    **{metric: "count" for metric in CALL_COUNT_METRICS.values()},
    "bench.runner.plan_cache_hits": "count",
    "engine.tasks_built": "count",
    "hardware.events.tasks_scheduled": "count",
    "serving.continuous.cost_calls": "count",
    "serving.continuous.cost_misses": "count",
    "serving.continuous.cost_hit_ratio": "ratio",
    "serving.continuous.iterations": "count",
    "serving.fleet.router.dispatches": "count",
    "serving.fleet.router.redispatches": "count",
    "traced_setup_s": "s",
    "traced_run_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}


class Tally:
    """Operations attempted and failed, and the digests seen, over all runs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []
        self.outcome = None  # the first run's outcome

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        self.digests.append(outcome.digest)
        if self.outcome is None:
            self.outcome = outcome

    def crashed(self) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(traceback.format_exc(limit=-3))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.outcome is not None and len(set(self.digests)) == 1


def fastest(runs: list[list[float]]) -> float:
    """The sum over a run's operations of each one's fastest time, or NaN
    when a failed run left no samples.

    Every run repeats the same deterministic work, so the spread between
    runs is host interference, which only ever adds time.  On a shared
    2-vCPU VM the host's speed alternates between two levels about 40%
    apart, for seconds to a minute at a time: a median flips between the
    levels from one process to the next, the fastest time does not.  Each
    operation gets its own chance to meet a quiet stretch.
    """
    if not runs:
        return float("nan")
    return sum(min(times) for times in zip(*runs))


def cold_setup(workload) -> float:
    runner.cached_plan.cache_clear()
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def timed_runs(workload, seconds: float, tally: Tally) -> list[list[float]]:
    """Run until ``seconds`` have passed (at least once); validate each run.

    Returns each run's per-operation times.
    """
    runs: list[list[float]] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        try:
            times, results = [], []
            for call in workload.prepare():
                gc.collect()
                t0 = time.perf_counter()
                results.append(call())
                times.append(time.perf_counter() - t0)
            tally.add(workload.check(results))
        except Exception:  # a failed operation is reported, not fatal
            tally.crashed()
            break
        runs.append(times)
        del results
    return runs


def untraced(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    # Set-ups and runs alternate, so both statistics sample the whole
    # process lifetime rather than one stretch of a noisy host.
    setups: list[float] = []
    runs: list[list[float]] = []
    for _ in range(SETUP_REPEATS):
        setups.append(cold_setup(workload))
        runs += timed_runs(workload, seconds / SETUP_REPEATS, tally)
    run_s = fastest(runs)
    iterations = tally.outcome.iterations if tally.outcome else 0
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "sim_iterations_per_s": iterations / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"setup_s": setups, "run_s": runs}


def traced(workload, seconds: float, tally: Tally, trace_path: Path) -> tuple[dict, dict]:
    def plan_cache_hits() -> int:
        return runner.cached_plan.cache_info().hits

    rec = SpanRecorder()
    runner.cached_plan.cache_clear()
    gc.collect()
    before = plan_cache_hits()
    with layer_spans(rec), rec.span("setup"):
        workload.setup()
    hits = plan_cache_hits() - before

    runs = timed_runs(workload, seconds, tally)

    before = plan_cache_hits()
    calls = workload.prepare()  # a fleet's engines come from the plan cache here
    gc.collect()
    with layer_spans(rec), rec.span("run"):
        results = [call() for call in calls]
    hits += plan_cache_hits() - before
    outcome = workload.check(results)
    tally.add(outcome)
    if len(set(tally.digests)) > 1:
        tally.problems.append("traced outputs differ from untraced outputs")

    streams = outcome.outputs.get("streams", [])
    calls, misses = rec.counts["cost_calls"], rec.counts["cost_misses"]
    metrics = {
        **{metric: rec.self_s.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()},
        **{metric: rec.calls.get(span, 0) for span, metric in CALL_COUNT_METRICS.items()},
        "bench.runner.plan_cache_hits": hits,
        "engine.tasks_built": rec.counts["tasks_built"],
        "hardware.events.tasks_scheduled": rec.counts["tasks_scheduled"],
        "serving.continuous.cost_calls": calls,
        "serving.continuous.cost_misses": misses,
        "serving.continuous.cost_hit_ratio": 1.0 - misses / calls if calls else 0.0,
        "serving.continuous.iterations": sum(s["iterations"] for s in streams),
        "serving.fleet.router.dispatches": sum(s["counters"]["dispatches"] for s in streams),
        "serving.fleet.router.redispatches": sum(s["counters"]["redispatches"] for s in streams),
        "traced_setup_s": rec.total_s("setup"),
        "traced_run_s": rec.total_s("run"),
        "unattributed_s": sum(rec.self_s[root] for root in ROOTS),
        "trace_overhead_s": rec.total_s("run") - fastest(runs),
    }
    rec.save_chrome_trace(trace_path)
    print_self_times(metrics)
    return metrics, {"untraced_run_s": runs}


def print_self_times(metrics: dict) -> None:
    """The self-time table, largest first, naming the top layer."""
    total = metrics["traced_setup_s"] + metrics["traced_run_s"]
    rows = sorted(
        ((name, metrics[name]) for name in [*SELF_TIME_METRICS.values(), "unattributed_s"]),
        key=lambda row: -row[1],
    )
    print(f"self time by layer (traced set-up + run = {total:.3f} s)")
    for name, seconds in rows:
        print(f"  {name:<40} {seconds:9.3f} s  {seconds / total:6.1%}")
    print(f"layer with the most self time: {rows[0][0]}")


def git_sha() -> str:
    root = BENCH_DIR.parent
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        **{name: os.environ.get(name) for name in PINNED_ENV},
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=9.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    env = environment()
    print("environment: " + json.dumps(env))
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, samples = traced(workload, args.seconds, tally, OUT_DIR / f"{stem}.trace.json")
        units = PER_LAYER_UNITS
    else:
        metrics, samples = untraced(workload, args.seconds, tally)
        units = END_TO_END_UNITS

    outputs = tally.outcome.outputs if tally.outcome else {}
    digest = tally.digests[0] if tally.digests else None
    print(f"simulated-output digest: {digest}  {json.dumps(outputs)}")
    for problem in tally.problems:
        print(f"problem: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "digest": digest,
        "outputs": outputs,
        "problems": tally.problems,
        "samples": samples,
        "metrics": metrics,
    }
    with open(OUT_DIR / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0
