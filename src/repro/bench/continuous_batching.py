"""Continuous vs static batching under Poisson load (beyond-paper study).

The paper's batching result (Figure 14) is throughput at a fixed batch
size; a serving deployment instead faces a request *stream*.  This driver
plays identical Poisson streams through three serving disciplines —
whole-request FCFS (``max_batch=1``), static batching (the ``static``
policy: admit only into an empty batch), and iteration-level continuous
batching — across arrival rates, and reports the user-facing metrics
(mean/p99 latency, TTFT, TBT, goodput) that show why production systems
schedule at token granularity.

All three run through the same serving loop over the same engine and
streams, so every metric is priced by the same code and the comparison
isolates the scheduling discipline.
"""

from __future__ import annotations

import numpy as np

from repro.bench.runner import make_engine
from repro.serving import SLO, ContinuousServer, poisson_arrivals
from repro.workloads import CHATGPT_PROMPTS

__all__ = ["ARRIVAL_RATES", "run_continuous_batching"]

MODEL = "opt-6.7b"
MACHINE = "pc-high"
DTYPE = "int4"
N_REQUESTS = 40
MAX_BATCH = 8
KV_CARVE_BYTES = 1.0 * 2**30
ARRIVAL_RATES = (0.1, 0.3, 1.0)
DEFAULT_SLO = SLO(ttft_target=5.0, tbt_target=0.5)
# (row label, scheduler policy, batch cap)
SCHEDULERS = (
    ("fcfs", "fcfs", 1),
    ("static-batch", "static", MAX_BATCH),
    ("continuous", "fcfs", MAX_BATCH),
)


def run_continuous_batching() -> list[dict]:
    """FCFS vs static batching vs continuous batching across arrival rates."""
    engine = make_engine(
        "powerinfer", MODEL, MACHINE, DTYPE, kv_gpu_budget_bytes=KV_CARVE_BYTES
    )
    rows: list[dict] = []
    for rate in ARRIVAL_RATES:
        requests = poisson_arrivals(
            CHATGPT_PROMPTS,
            rate=rate,
            n_requests=N_REQUESTS,
            rng=np.random.default_rng(1234),
        )
        for name, policy, max_batch in SCHEDULERS:
            report = ContinuousServer(engine, policy=policy, max_batch=max_batch).run(
                requests
            )
            rows.append(
                {
                    "rate_rps": rate,
                    "scheduler": name,
                    "mean_latency_s": report.mean_latency,
                    "p99_latency_s": report.latency_percentile(99),
                    "mean_ttft_s": report.mean_ttft,
                    "p99_tbt_ms": report.tbt_percentile(99) * 1e3,
                    "tokens_per_s": report.tokens_per_second,
                    "goodput_rps": report.goodput(DEFAULT_SLO),
                    "utilization": report.utilization,
                }
            )
    return rows
