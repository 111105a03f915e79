#!/usr/bin/env python
"""Serving under load: how many requests/minute can one PC sustain?

Plays Poisson request streams (ChatGPT-prompts lengths, the paper's 8/128/512
output mix) through a PowerInfer deployment of OPT-13B INT4 on PC-Low, and
through llama.cpp on the same hardware, sweeping the arrival rate.  Requests
are served one at a time (the serving loop at ``max_batch=1``, the paper's
batch-1 local setting).  Reports user-visible latency percentiles and server
utilization — the numbers that decide whether a local deployment feels
interactive.

Usage::

    python examples/serving_load.py
"""

import numpy as np

from repro import PC_LOW
from repro.bench.runner import make_engine
from repro.serving import ContinuousServer, poisson_arrivals
from repro.workloads import CHATGPT_PROMPTS

MODEL = "opt-30b"
N_REQUESTS = 40
# GPU memory withheld from neuron placement for KV cache; without it the
# plan packs the GPU and leaves no room for even one request's KV.
KV_CARVE = 0.5 * 2**30


def report_for(engine, rate: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=rate,
        n_requests=N_REQUESTS,
        rng=rng,
        output_lengths=(8, 128, 512),
        output_weights=(0.2, 0.6, 0.2),
    )
    return ContinuousServer(engine, max_batch=1).run(requests)


def main() -> None:
    print(f"Serving {MODEL} (INT4) on {PC_LOW.name}; "
          f"{N_REQUESTS} requests per trial\n")
    engines = {
        name: make_engine(name, MODEL, PC_LOW.name, "int4", kv_gpu_budget_bytes=KV_CARVE)
        for name in ("powerinfer", "llama.cpp")
    }
    print(f"{'engine':>10} | {'rate/min':>8} | {'util':>5} | "
          f"{'p50 lat':>8} | {'p95 lat':>8} | {'tok/s':>6}")
    print("-" * 62)
    for name, engine in engines.items():
        for per_minute in (1, 2, 6, 15):
            report = report_for(engine, rate=per_minute / 60.0)
            print(f"{name:>10} | {per_minute:>8} | "
                  f"{report.utilization:>4.0%} | "
                  f"{report.latency_percentile(50):>6.1f} s | "
                  f"{report.latency_percentile(95):>6.1f} s | "
                  f"{report.tokens_per_second:>6.1f}")
        print("-" * 62)
    print("\nReading: at equal arrival rates llama.cpp saturates far earlier;")
    print("once utilization nears 1 its queueing delay dominates the user-")
    print("visible latency, while PowerInfer still serves interactively.")


if __name__ == "__main__":
    main()
