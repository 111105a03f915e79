#!/usr/bin/env python
"""Continuous batching walkthrough: token-level scheduling under load.

Plays one Poisson request stream (ChatGPT-prompts lengths, the paper's
8/128/512 output mix) through three configurations of the one serving loop
on the same PowerInfer deployment of OPT-6.7B INT4 on PC-High:

1. FCFS            — ``max_batch=1``: one request at a time.
2. Static batching — the ``static`` policy: a batch forms only when the
                     previous one has drained (paper Section 8.2).
3. Continuous      — iteration-level batching: requests join the running
                     batch on arrival and leave at their own last token,
                     under KV-cache admission control.

Then sweeps the continuous scheduler's iteration policies (FCFS-join,
prefill-first, chunked prefill) to show the TTFT/TBT trade they span.

Usage::

    python examples/continuous_serving.py
"""

import numpy as np

from repro.bench.runner import make_engine
from repro.serving import (
    SLO,
    ContinuousServer,
    make_policy,
    poisson_arrivals,
)
from repro.workloads import CHATGPT_PROMPTS

MODEL = "opt-6.7b"
MACHINE = "pc-high"
N_REQUESTS = 40
RATE = 0.5  # requests/second — enough pressure to make batching matter
KV_CARVE = 1.0 * 2**30  # GPU memory reserved for KV at plan time
SLO_TARGET = SLO(ttft_target=5.0, tbt_target=0.5)



def main() -> None:
    print(f"Continuous batching on {MACHINE}: {MODEL} INT4, "
          f"{N_REQUESTS} requests at {RATE}/s\n")
    # Carving KV space out of the GPU at plan time is what makes admission
    # control meaningful: the solver packs hot neurons into the rest.
    engine = make_engine("powerinfer", MODEL, MACHINE, "int4",
                         kv_gpu_budget_bytes=KV_CARVE)
    print(f"KV budget left by the plan: {engine.kv_budget_bytes() / 2**30:.2f} GiB "
          f"({engine.kv_budget_bytes() / engine.kv_bytes_per_token():,.0f} tokens)\n")

    requests = poisson_arrivals(
        CHATGPT_PROMPTS, rate=RATE, n_requests=N_REQUESTS,
        rng=np.random.default_rng(0),
    )

    fcfs = ContinuousServer(engine, max_batch=1).run(requests)
    static = ContinuousServer(engine, policy="static", max_batch=8).run(requests)
    cont = ContinuousServer(engine, max_batch=8).run(requests)

    print(f"{'scheduler':>12} | {'mean lat':>8} | {'p99 lat':>8} | "
          f"{'TTFT':>7} | {'tok/s':>6} | {'util':>5}")
    print("-" * 62)
    for name, rep in (("fcfs", fcfs), ("static", static), ("continuous", cont)):
        print(f"{name:>12} | {rep.mean_latency:>6.1f} s | "
              f"{rep.latency_percentile(99):>6.1f} s | "
              f"{rep.mean_ttft:>5.2f} s | "
              f"{rep.tokens_per_second:>6.1f} | {rep.utilization:>4.0%}")

    print(f"\nContinuous batching token-level metrics "
          f"(SLO: TTFT<={SLO_TARGET.ttft_target:.0f}s, "
          f"TBT<={SLO_TARGET.tbt_target * 1e3:.0f}ms):")
    print(f"  TTFT p50 {cont.ttft_percentile(50):.2f} s, "
          f"p99 {cont.ttft_percentile(99):.2f} s")
    print(f"  TBT  p50 {cont.tbt_percentile(50) * 1e3:.0f} ms, "
          f"p99 {cont.tbt_percentile(99) * 1e3:.0f} ms")
    print(f"  SLO attainment {cont.slo_attainment(SLO_TARGET):.0%}, "
          f"goodput {cont.goodput(SLO_TARGET):.2f} req/s")
    print(f"  peak KV {cont.peak_kv_bytes / 2**30:.2f} GiB of "
          f"{cont.kv_budget_bytes / 2**30:.2f} GiB budget, "
          f"{cont.n_iterations} iterations")

    print("\nIteration policies (same stream, max_batch=8):")
    print(f"{'policy':>14} | {'mean lat':>8} | {'TTFT p99':>8} | {'TBT p99':>8}")
    print("-" * 50)
    policies = {
        "fcfs": make_policy("fcfs"),
        "prefill-first": make_policy("prefill-first"),
        "chunked": make_policy("chunked", max_prefill_tokens=32),
    }
    for name, policy in policies.items():
        rep = ContinuousServer(engine, policy=policy, max_batch=8).run(requests)
        print(f"{name:>14} | {rep.mean_latency:>6.1f} s | "
              f"{rep.ttft_percentile(99):>6.2f} s | "
              f"{rep.tbt_percentile(99) * 1e3:>5.0f} ms")

    print("\nReading: all three rows come from the same loop and the same")
    print("iteration prices, so they differ only in admission. Continuous")
    print("batching matches static batching on throughput while cutting mean")
    print("latency, and TTFT falls by an order of magnitude: an arrival joins")
    print("the running batch at once instead of waiting for it to drain.")
    print("Chunked prefill trades a little TTFT for the tightest TBT tail.")


if __name__ == "__main__":
    main()
