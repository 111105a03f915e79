"""Benchmark baseline harness: record a canonical suite, gate regressions.

``repro bench-baseline`` runs a canonical benchmark suite — end-to-end
tokens/s per engine x machine, continuous-serving TTFT/TBT percentiles,
fault-tolerance goodput — and writes every metric (with its orientation
and an attribution fingerprint per end-to-end config) to
``BENCH_baseline.json``.  ``repro bench-check`` re-runs the same suite,
compares each metric against the committed baseline under a per-metric
relative tolerance, prints an **attribution-aware diff** — a regressed
decode rate is explained by which roofline component's share grew — and
exits non-zero on any regression.  Everything here is a deterministic
simulation, so out-of-tolerance drift means the *code* changed behaviour,
not the machine running CI.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.analysis.attribution import analyze_iteration
from repro.bench.runner import make_engine
from repro.telemetry.power import fleet_energy, fleet_generated_tokens, request_energy

__all__ = [
    "SCHEMA_VERSION",
    "MetricRecord",
    "BenchDiff",
    "run_suite",
    "write_baseline",
    "load_baseline",
    "check_against_baseline",
    "format_diff",
]

SCHEMA_VERSION = 1

# Relative tolerance for the wall-clock simulator-throughput metrics.
# These measure how fast the *simulator* chews through events on the
# machine at hand, so they get a generous band: only a catastrophic
# slowdown (an order-of-magnitude event-loop regression) should trip it,
# never scheduler jitter or a slower CI runner.
SIMPERF_TOLERANCE = 0.9

# Relative tolerance for the J/token energy metrics.  Energy is a
# derived quantity (schedule timing x power model), so it inherits drift
# from both; 5% matches the suite default but is pinned explicitly so
# the baseline records the intended band next to the metric.
ENERGY_TOLERANCE = 0.05

# Canonical end-to-end configurations: (engine, model, machine, dtype).
# One big-model FP16 config per flagship machine comparison and one
# small-model INT4 config matching the serving/fault studies.
E2E_CONFIGS_FULL = (
    ("powerinfer", "opt-30b", "pc-high", "fp16"),
    ("llama.cpp", "opt-30b", "pc-high", "fp16"),
    ("powerinfer", "opt-6.7b", "pc-low", "int4"),
    ("llama.cpp", "opt-6.7b", "pc-low", "int4"),
)
E2E_CONFIGS_QUICK = (
    ("powerinfer", "opt-6.7b", "pc-low", "int4"),
    ("llama.cpp", "opt-6.7b", "pc-low", "int4"),
)
E2E_INPUT_LEN = 64
E2E_OUTPUT_LEN = 128

SERVING_N_REQUESTS = {"full": 48, "quick": 12}


def _e2e_key(engine: str, model: str, machine: str, dtype: str) -> str:
    return f"e2e/{engine}/{model}/{machine}/{dtype}"


@dataclass(frozen=True)
class MetricRecord:
    """One benchmarked scalar plus the direction that counts as better.

    ``tolerance`` overrides the suite-wide relative tolerance for this
    metric alone — wall-clock throughput metrics (``simperf/*``) carry a
    generous one because they measure the CI machine, not the model.
    """

    value: float
    higher_is_better: bool
    tolerance: float | None = None

    def as_dict(self) -> dict:
        record = {"value": self.value, "higher_is_better": self.higher_is_better}
        if self.tolerance is not None:
            record["tolerance"] = self.tolerance
        return record


def _metric(
    value: float, higher_is_better: bool, tolerance: float | None = None
) -> MetricRecord:
    return MetricRecord(float(value), higher_is_better, tolerance)


def _attribution_fingerprint(engine) -> dict:
    """Component shares + bottleneck of one decode iteration (the diff key)."""
    analysis = analyze_iteration(engine, E2E_INPUT_LEN + E2E_OUTPUT_LEN // 2, 1)
    return {
        "shares": analysis.decomposition.shares(),
        "critical_resource": analysis.critical_path.gating_resource(),
        "makespan_s": analysis.schedule.makespan,
    }


def run_suite(quick: bool = False) -> dict:
    """Run the canonical suite; returns the baseline document (pre-JSON).

    ``quick`` shrinks the suite for tests and local iteration: the small
    INT4 end-to-end configs, a shorter request stream, and no chaos run.
    """
    suite = "quick" if quick else "full"
    metrics: dict[str, MetricRecord] = {}
    attribution: dict[str, dict] = {}

    # -- end-to-end token rates ------------------------------------------------
    configs = E2E_CONFIGS_QUICK if quick else E2E_CONFIGS_FULL
    for engine_name, model, machine, dtype in configs:
        engine = make_engine(engine_name, model, machine, dtype)
        result = engine.simulate_request(E2E_INPUT_LEN, E2E_OUTPUT_LEN)
        key = _e2e_key(engine_name, model, machine, dtype)
        decode_tps = E2E_OUTPUT_LEN / result.decode_time
        metrics[f"{key}/decode_tps"] = _metric(decode_tps, True)
        metrics[f"{key}/total_tps"] = _metric(result.tokens_per_second, True)
        metrics[f"{key}/prompt_s"] = _metric(result.prompt_time, False)
        energy = request_energy(engine, E2E_INPUT_LEN, E2E_OUTPUT_LEN)
        energy_key = f"energy/{engine_name}/{model}/{machine}/{dtype}"
        metrics[f"{energy_key}/j_per_token"] = _metric(
            energy.j_per_token, False, tolerance=ENERGY_TOLERANCE
        )
        attribution[key] = _attribution_fingerprint(engine)

    # -- continuous-batching serving percentiles -------------------------------
    from repro.bench.fault_tolerance import (
        DEADLINE_S,
        DEFAULT_SLO,
        KV_BUDGET_BYTES,
        MACHINE,
        MAX_BATCH,
        MODEL,
        RATE_RPS,
        SEED,
    )
    from repro.bench.fault_tolerance import DTYPE as FT_DTYPE
    from repro.serving import ContinuousServer, make_policy, poisson_arrivals
    from repro.workloads import CHATGPT_PROMPTS

    engine = make_engine("powerinfer", MODEL, MACHINE, FT_DTYPE)
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=RATE_RPS,
        n_requests=SERVING_N_REQUESTS[suite],
        rng=np.random.default_rng(SEED),
        deadline=DEADLINE_S,
    )
    t0 = time.perf_counter()  # repro-lint: disable=wall-clock -- measures simulator throughput, not model time
    report = ContinuousServer(
        engine,
        policy=make_policy("chunked", max_prefill_tokens=32),
        max_batch=MAX_BATCH,
        kv_budget_bytes=KV_BUDGET_BYTES,
    ).run(requests)
    serving_wall_s = time.perf_counter() - t0  # repro-lint: disable=wall-clock -- measures simulator throughput, not model time
    metrics["simperf/serving_iterations_per_s"] = _metric(
        report.n_iterations / max(serving_wall_s, 1e-9),
        True,
        tolerance=SIMPERF_TOLERANCE,
    )
    metrics["serving/ttft_p50_s"] = _metric(report.ttft_percentile(50), False)
    metrics["serving/ttft_p95_s"] = _metric(report.ttft_percentile(95), False)
    metrics["serving/tbt_p50_s"] = _metric(report.tbt_percentile(50), False)
    metrics["serving/tbt_p95_s"] = _metric(report.tbt_percentile(95), False)
    metrics["serving/goodput_rps"] = _metric(report.goodput(DEFAULT_SLO), True)
    metrics["serving/tokens_per_s"] = _metric(report.tokens_per_second, True)

    # -- fault-tolerance goodput (chaos run, full suite only) ------------------
    if not quick:
        from repro.bench.fault_tolerance import run_fault_tolerance

        for row in run_fault_tolerance(quick=True):
            prefix = f"faults/{row['server']}"
            metrics[f"{prefix}/slo_attainment"] = _metric(row["slo_attainment"], True)
            metrics[f"{prefix}/completed"] = _metric(row["completed"], True)

    # -- fleet chaos per router policy (full suite only) -----------------------
    if not quick:
        from repro.bench.fleet_chaos import build_fleet, fleet_requests, run_fleet_chaos

        for row in run_fleet_chaos():
            condition = row["faults"] if row["failover"] else "nofailover"
            prefix = f"fleet/{row['policy']}/{condition}"
            metrics[f"{prefix}/goodput_rps"] = _metric(row["goodput_rps"], True)
            metrics[f"{prefix}/ttft_p99_s"] = _metric(row["ttft_p99_s"], False)
            metrics[f"{prefix}/availability"] = _metric(row["availability"], True)

        t0 = time.perf_counter()  # repro-lint: disable=wall-clock -- measures simulator throughput, not model time
        fleet_result = build_fleet().run(fleet_requests())
        fleet_wall_s = time.perf_counter() - t0  # repro-lint: disable=wall-clock -- measures simulator throughput, not model time
        fleet_iterations = sum(
            rep.report.n_iterations for rep in fleet_result.replicas
        )
        metrics["simperf/fleet_iterations_per_s"] = _metric(
            fleet_iterations / max(fleet_wall_s, 1e-9),
            True,
            tolerance=SIMPERF_TOLERANCE,
        )

        # Fleet-wide J/token on the canonical chaos scenario.  Needs a
        # traced run (per-replica spans feed the energy ledger), so it is
        # a separate run from the untraced simperf one above.
        from repro.bench.fleet_chaos import DEFAULT_SLO, default_fleet_monitor
        from repro.telemetry.fleet import FleetTracer

        fleet_tracer = FleetTracer(monitor=default_fleet_monitor(), slo=DEFAULT_SLO)
        traced_result = build_fleet(tracer=fleet_tracer).run(fleet_requests())
        fleet_joules = fleet_energy(traced_result, fleet_tracer)
        tokens = fleet_generated_tokens(traced_result)
        metrics["fleet/j_per_token"] = _metric(
            fleet_joules.total_joules / max(tokens, 1),
            False,
            tolerance=ENERGY_TOLERANCE,
        )

    return {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "metrics": {name: rec.as_dict() for name, rec in sorted(metrics.items())},
        "attribution": attribution,
    }


def write_baseline(path: Path | str, quick: bool = False) -> dict:
    """Run the suite and persist the baseline document; returns it."""
    document = run_suite(quick=quick)
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_baseline(path: Path | str) -> dict:
    document = json.loads(Path(path).read_text())
    schema = document.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"baseline schema {schema!r} not supported (expected {SCHEMA_VERSION})"
        )
    return document


@dataclass
class BenchDiff:
    """Outcome of one bench-check run against a baseline."""

    rows: list[dict]
    regressions: list[dict]
    attribution_notes: list[str]
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "rows": self.rows,
            "regressions": self.regressions,
            "attribution_notes": self.attribution_notes,
        }


def _share_diff_note(metric: str, old_attr: Mapping, new_attr: Mapping) -> str | None:
    """The attribution-aware explanation for one regressed e2e metric."""
    old_shares = old_attr.get("shares", {})
    new_shares = new_attr.get("shares", {})
    if not old_shares or not new_shares:
        return None
    grew = max(
        new_shares,
        key=lambda c: new_shares.get(c, 0.0) - old_shares.get(c, 0.0),
    )
    delta = new_shares.get(grew, 0.0) - old_shares.get(grew, 0.0)
    note = (
        f"{metric}: {grew} share grew "
        f"{old_shares.get(grew, 0.0):.0%} -> {new_shares.get(grew, 0.0):.0%}"
    )
    if old_attr.get("critical_resource") != new_attr.get("critical_resource"):
        note += (
            f"; critical resource moved {old_attr.get('critical_resource')}"
            f" -> {new_attr.get('critical_resource')}"
        )
    return note if delta > 0.0 else note + " (shares roughly unchanged)"


def check_against_baseline(
    baseline: Mapping, current: Mapping, tolerance: float = 0.05
) -> BenchDiff:
    """Compare a fresh suite run against a recorded baseline.

    A metric regresses when it moves beyond ``tolerance`` (relative) in
    its *bad* direction; improvements and within-tolerance noise pass.
    A baseline record carrying its own ``tolerance`` (wall-clock
    throughput metrics) overrides the suite-wide one for that metric.
    Metrics present in only one document are reported as regressions too —
    a silently dropped benchmark must not look like a pass.
    """
    base_metrics: dict = dict(baseline.get("metrics", {}))
    new_metrics: dict = dict(current.get("metrics", {}))
    rows: list[dict] = []
    regressions: list[dict] = []
    notes: list[str] = []

    for name in sorted(set(base_metrics) | set(new_metrics)):
        old = base_metrics.get(name)
        new = new_metrics.get(name)
        if old is None or new is None:
            row = {
                "metric": name,
                "baseline": old["value"] if old else None,
                "current": new["value"] if new else None,
                "change": None,
                "status": "missing-in-current" if new is None else "missing-in-baseline",
            }
            rows.append(row)
            regressions.append(row)
            continue
        old_v, new_v = old["value"], new["value"]
        higher = bool(old.get("higher_is_better", True))
        metric_tol = float(old.get("tolerance", tolerance))
        denom = abs(old_v) if old_v else 1.0
        rel = (new_v - old_v) / denom
        bad = -rel if higher else rel
        status = (
            "regression"
            if bad > metric_tol
            else ("improved" if bad < -metric_tol else "ok")
        )
        row = {
            "metric": name,
            "baseline": old_v,
            "current": new_v,
            "change": rel,
            "status": status,
        }
        rows.append(row)
        if status == "regression":
            regressions.append(row)
            if name.startswith("e2e/"):
                key = name.rsplit("/", 1)[0]
                note = _share_diff_note(
                    name,
                    baseline.get("attribution", {}).get(key, {}),
                    current.get("attribution", {}).get(key, {}),
                )
                if note:
                    notes.append(note)

    return BenchDiff(
        rows=rows, regressions=regressions, attribution_notes=notes, tolerance=tolerance
    )


def format_diff(diff: BenchDiff) -> str:
    """Human-readable bench-check report (also the CI artifact body)."""
    from repro.bench.report import format_table

    display = [
        {
            "metric": r["metric"],
            "baseline": r["baseline"] if r["baseline"] is not None else "-",
            "current": r["current"] if r["current"] is not None else "-",
            "change": f"{r['change']:+.1%}" if r["change"] is not None else "-",
            "status": r["status"],
        }
        for r in diff.rows
    ]
    lines = [format_table(display, title=f"bench-check (tolerance {diff.tolerance:.0%})")]
    if diff.attribution_notes:
        lines.append("")
        lines.append("attribution:")
        lines.extend(f"  {note}" for note in diff.attribution_notes)
    lines.append("")
    if diff.ok:
        lines.append("OK: no metric regressed beyond tolerance")
    else:
        lines.append(f"FAIL: {len(diff.regressions)} metric(s) regressed")
    return "\n".join(lines)
