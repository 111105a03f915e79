"""SLO attainment under injected faults: graceful degradation vs naive.

Chaos study for the continuous-batching server (beyond-paper).  One Poisson
request stream is played twice through the same engine and the same fault
schedule — a 4x PCIe-bandwidth degradation window, a KV-budget shrink
window, and a transient device stall — differing only in whether graceful
degradation is enabled:

* **naive** — suffers every fault but does not adapt: full batch while the
  machine is slow, admission starved while the KV budget is shrunk.
* **degraded** — caps the running batch during throughput faults (keeping
  the token cadence of admitted requests inside the TBT SLO) and re-plans a
  smaller GPU hot-neuron set when the KV budget shrinks (trading hot-neuron
  residency for KV space so admission keeps flowing).

Both servers share deadlines, bounded retry, and load shedding, so the
comparison isolates the degradation policy.  Scored on *overall* SLO
attainment — submitted requests in the denominator — so neither server can
look better by dropping work.  Everything is seeded; two runs produce
identical rows (the determinism contract the chaos tests assert).
"""

from __future__ import annotations

import numpy as np

from repro.bench.runner import make_engine
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.serving import SLO, ContinuousServer, make_policy, poisson_arrivals
from repro.workloads import CHATGPT_PROMPTS

__all__ = ["default_fault_schedule", "run_fault_tolerance", "DEFAULT_SLO"]

MODEL = "opt-6.7b"
# The low-end machine: a large cold-neuron share makes iteration cost
# genuinely sensitive to PCIe bandwidth, which is the fault under study.
MACHINE = "pc-low"
DTYPE = "int4"
N_REQUESTS = 48
RATE_RPS = 0.9
MAX_BATCH = 8
KV_BUDGET_BYTES = 0.35 * 2**30
DEADLINE_S = 12.0
MAX_RETRIES = 2
MAX_QUEUE = 16
SEED = 1234
# TBT target sits between the degraded-machine iteration cost at the capped
# batch (met) and at the full batch (missed) — the margin the brownout
# batch cap is designed to protect.
DEFAULT_SLO = SLO(ttft_target=6.0, tbt_target=0.020)


def default_fault_schedule() -> FaultSchedule:
    """The canonical chaos timeline: degrade, squeeze, stall.

    Windows are placed inside the ~55 s span of the default stream so each
    fault catches the server with work in flight.
    """
    return FaultSchedule(
        [
            FaultEvent(FaultKind.PCIE_DEGRADE, start=8.0, duration=14.0, magnitude=4.0),
            FaultEvent(FaultKind.KV_SHRINK, start=26.0, duration=14.0, magnitude=0.08),
            FaultEvent(FaultKind.DEVICE_STALL, start=44.0, duration=1.0),
        ]
    )


def _serve(engine, requests, faults, degradation: bool):
    return ContinuousServer(
        engine,
        policy=make_policy("chunked", max_prefill_tokens=32),
        max_batch=MAX_BATCH,
        kv_budget_bytes=KV_BUDGET_BYTES,
        faults=faults,
        max_retries=MAX_RETRIES,
        max_queue=MAX_QUEUE,
        degradation=degradation,
    ).run(requests)


def _row(server: str, faults_label: str, report) -> dict:
    return {
        "server": server,
        "faults": faults_label,
        "slo_attainment": report.slo_attainment_overall(DEFAULT_SLO),
        "completed": len(report.completed),
        "timed_out": len(report.timed_out),
        "shed": len(report.shed),
        "failed": len(report.failed),
        "aborts": report.n_aborts,
        "retries": report.n_retries,
        "deadline_miss_rate": report.deadline_miss_rate,
        "degraded_time_s": report.time_in_degraded_mode,
        "p99_latency_s": (
            report.latency_percentile(99) if report.completed else float("nan")
        ),
        "utilization": report.utilization,
    }


def run_fault_tolerance(quick: bool = False) -> list[dict]:
    """Naive vs degradation-enabled serving under the canonical faults.

    Returns one row per (server, fault condition).  ``quick`` skips the
    fault-free reference row (the CI smoke configuration).  Invariants
    checked here rather than trusted: every submitted request is accounted
    for, and the degradation-enabled server strictly beats the naive one
    on overall SLO attainment under faults.
    """
    engine = make_engine("powerinfer", MODEL, MACHINE, DTYPE)
    faults = default_fault_schedule()
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=RATE_RPS,
        n_requests=N_REQUESTS,
        rng=np.random.default_rng(SEED),
        deadline=DEADLINE_S,
    )

    rows: list[dict] = []
    if not quick:
        clean = _serve(engine, requests, faults=None, degradation=True)
        rows.append(_row("degraded", "none", clean))

    naive = _serve(engine, requests, faults, degradation=False)
    degraded = _serve(engine, requests, faults, degradation=True)
    for report in (naive, degraded):
        if report.n_submitted != N_REQUESTS:
            raise AssertionError(
                f"request accounting broken: {report.n_submitted} of "
                f"{N_REQUESTS} submitted requests have a disposition"
            )
    rows.append(_row("naive", "chaos", naive))
    rows.append(_row("degraded", "chaos", degraded))

    naive_att = naive.slo_attainment_overall(DEFAULT_SLO)
    degraded_att = degraded.slo_attainment_overall(DEFAULT_SLO)
    if not degraded_att > naive_att:
        raise AssertionError(
            "graceful degradation failed to beat the naive server under "
            f"faults: degraded={degraded_att:.3f} naive={naive_att:.3f}"
        )
    return rows
