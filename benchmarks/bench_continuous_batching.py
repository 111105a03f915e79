"""Continuous batching vs static batching vs FCFS under Poisson load.

Beyond-paper serving study: at equal throughput, iteration-level
(continuous) batching strictly dominates static batching on mean latency,
because a request joins the running batch on arrival instead of waiting
for the current batch to drain.  All three disciplines run through the
same serving loop, so the comparison isolates the scheduling discipline.
"""

from conftest import run_once

from repro.bench.continuous_batching import ARRIVAL_RATES, run_continuous_batching


def test_continuous_batching(benchmark, record_rows):
    rows = run_once(benchmark, run_continuous_batching)
    record_rows(
        "continuous_batching",
        rows,
        "Continuous vs static batching — OPT-6.7B INT4 PC-High, Poisson load",
    )

    by_key = {(r["rate_rps"], r["scheduler"]): r for r in rows}
    dominant_rates = []
    for rate in ARRIVAL_RATES:
        static = by_key[(rate, "static-batch")]
        cont = by_key[(rate, "continuous")]
        if (
            cont["mean_latency_s"] < static["mean_latency_s"]
            and cont["tokens_per_s"] >= static["tokens_per_s"] * 0.999
        ):
            dominant_rates.append(rate)
    # The headline claim: strict dominance on mean latency at equal (or
    # better) throughput for at least one arrival rate.
    assert dominant_rates, "continuous batching never dominated static batching"

    # Token-level scheduling makes TTFT far better than whole-request
    # delivery at every rate (first token no longer waits for the last).
    for rate in ARRIVAL_RATES:
        assert (
            by_key[(rate, "continuous")]["mean_ttft_s"]
            < by_key[(rate, "static-batch")]["mean_ttft_s"]
        )

    # SLO metrics are populated and sane.
    for rate in ARRIVAL_RATES:
        cont = by_key[(rate, "continuous")]
        assert cont["goodput_rps"] >= 0.0
        assert cont["p99_tbt_ms"] > 0.0
        assert cont["utilization"] <= 1.0 + 1e-9
