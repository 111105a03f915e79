"""Per-request serving metrics: TTFT, TBT, latency percentiles, SLO goodput.

Every serving discipline (whole-request FCFS at ``max_batch=1``, the
``static`` batching policy, and iteration-level continuous batching) runs
through the one serving loop and returns one :class:`ContinuousReport`, so
all of them are judged by the same token-level metrics.  This module
records, for each request, the time of every emitted token, and derives the
quantities production serving systems are judged by:

* **TTFT** — time to first token (arrival until the first output token).
* **TBT**  — time between tokens during decode (the streaming cadence).
* **Latency** — arrival until the last token.
* **Goodput** — requests per second that met a configurable
  :class:`SLO` on both TTFT and worst-case TBT.

:func:`merge_busy_intervals` is the shared utilization primitive: it sums
the union of (start, end) busy spans, so overlapping work is never
double-counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.serving.arrival import Request
from repro.units import Bytes, Hertz, Ratio, Seconds, TokensPerSecond

__all__ = [
    "SLO",
    "RequestMetrics",
    "ContinuousReport",
    "merge_busy_intervals",
    "percentile",
]


def percentile(values: Iterable[float], q: float) -> float:
    """Validated percentile over a non-empty collection, ``q`` in [0, 100].

    The one shared percentile primitive of the serving reports (and the
    telemetry histograms), so validation lives in exactly one place.

    Raises:
        ValueError: When ``q`` is outside [0, 100] (or NaN), or ``values``
            is empty.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    vals = list(values)
    if not vals:
        raise ValueError("cannot take a percentile of an empty collection")
    return float(np.percentile(vals, q))


def merge_busy_intervals(intervals: Iterable[tuple[Seconds, Seconds]]) -> Seconds:
    """Total length of the union of ``(start, end)`` intervals.

    Overlapping and nested spans are merged before summing, so the result
    is the wall-clock time during which *at least one* interval was active
    — the correct notion of server busy time under batching.
    """
    spans = sorted((s, e) for s, e in intervals if e > s)
    total = 0.0
    current_start: float | None = None
    current_end = 0.0
    for start, end in spans:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


@dataclass(frozen=True)
class SLO:
    """A latency service-level objective on the streaming experience.

    Attributes:
        ttft_target: Maximum acceptable time-to-first-token, seconds.
        tbt_target: Maximum acceptable gap between consecutive tokens,
            seconds (judged against the request's *worst* gap, since one
            long stall breaks the streaming illusion).
    """

    ttft_target: Seconds
    tbt_target: Seconds

    def __post_init__(self) -> None:
        if self.ttft_target <= 0 or self.tbt_target <= 0:
            raise ValueError("SLO targets must be positive")


@dataclass(frozen=True)
class RequestMetrics:
    """Token-level timing of one served request."""

    request: Request
    admit_time: Seconds
    token_times: tuple[Seconds, ...]

    def __post_init__(self) -> None:
        if not self.token_times:
            raise ValueError("a completed request must have emitted tokens")
        if list(self.token_times) != sorted(self.token_times):
            raise ValueError("token_times must be non-decreasing")

    @property
    def n_tokens(self) -> int:
        return len(self.token_times)

    @property
    def first_token_time(self) -> Seconds:
        return self.token_times[0]

    @property
    def finish_time(self) -> Seconds:
        return self.token_times[-1]

    @property
    def queue_delay(self) -> Seconds:
        """Arrival until admission into the running batch."""
        return self.admit_time - self.request.arrival_time

    @property
    def ttft(self) -> Seconds:
        """Time to first token (arrival until first emission)."""
        return self.first_token_time - self.request.arrival_time

    @property
    def latency(self) -> Seconds:
        """Arrival-to-completion time (what the user experiences)."""
        return self.finish_time - self.request.arrival_time

    @property
    def tbts(self) -> tuple[Seconds, ...]:
        """Gaps between consecutive emitted tokens (empty for 1 token)."""
        return tuple(
            b - a for a, b in zip(self.token_times, self.token_times[1:])
        )

    @property
    def mean_tbt(self) -> Seconds:
        gaps = self.tbts
        return float(np.mean(gaps)) if gaps else 0.0

    @property
    def max_tbt(self) -> Seconds:
        gaps = self.tbts
        return max(gaps) if gaps else 0.0

    def meets_slo(self, slo: SLO) -> bool:
        """Whether this request stayed within the SLO end to end."""
        return self.ttft <= slo.ttft_target and self.max_tbt <= slo.tbt_target


@dataclass
class ContinuousReport:
    """Aggregate statistics of one serving-loop run (any policy or batch cap).

    Attributes:
        completed: Token-level metrics of every served request.
        busy_intervals: ``(start, end)`` spans during which the server ran
            an iteration (merged for utilization).
        kv_budget_bytes: KV-cache memory budget the admission controller
            enforced.
        peak_kv_bytes: Highest concurrent KV reservation observed.
        n_iterations: Model iterations executed.
        timed_out: Requests cancelled because they exceeded their deadline
            (KV reservation released; they never complete).
        shed: Requests rejected at arrival because the admission queue
            exceeded its bound (load shedding).
        failed: Requests aborted by transient faults that exhausted their
            retry budget.
        n_aborts: In-flight request aborts caused by device stalls (one
            request may abort several times across retries).
        n_retries: Abort recoveries re-queued with backoff.
        degraded_intervals: ``(start, end)`` spans the server spent in
            degraded mode (fault-adaptive batch cap or re-planned
            hot-neuron set active).
    """

    completed: list[RequestMetrics] = field(default_factory=list)
    busy_intervals: list[tuple[Seconds, Seconds]] = field(default_factory=list)
    kv_budget_bytes: Bytes = 0.0
    peak_kv_bytes: Bytes = 0.0
    n_iterations: int = 0
    timed_out: list[Request] = field(default_factory=list)
    shed: list[Request] = field(default_factory=list)
    failed: list[Request] = field(default_factory=list)
    n_aborts: int = 0
    n_retries: int = 0
    degraded_intervals: list[tuple[Seconds, Seconds]] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return len(self.completed)

    # ---- robustness accounting ---------------------------------------------

    @property
    def n_submitted(self) -> int:
        """Every request that entered the system, by final disposition.

        Each submitted request ends in exactly one of ``completed``,
        ``timed_out``, ``shed``, or ``failed``.
        """
        return (
            len(self.completed)
            + len(self.timed_out)
            + len(self.shed)
            + len(self.failed)
        )

    @property
    def deadline_miss_rate(self) -> Ratio:
        """Fraction of submitted requests cancelled past their deadline."""
        n = self.n_submitted
        return len(self.timed_out) / n if n else 0.0

    @property
    def shed_rate(self) -> Ratio:
        """Fraction of submitted requests rejected by load shedding."""
        n = self.n_submitted
        return len(self.shed) / n if n else 0.0

    @property
    def time_in_degraded_mode(self) -> Seconds:
        """Seconds the server operated with degradation measures active."""
        return merge_busy_intervals(self.degraded_intervals)

    @property
    def makespan(self) -> Seconds:
        if not self.completed:
            return 0.0
        return max(m.finish_time for m in self.completed)

    @property
    def throughput_rps(self) -> Hertz:
        """Requests completed per second of simulated time."""
        span = self.makespan
        return self.n_requests / span if span else 0.0

    @property
    def tokens_per_second(self) -> TokensPerSecond:
        span = self.makespan
        total = sum(m.n_tokens for m in self.completed)
        return total / span if span else 0.0

    @property
    def utilization(self) -> Ratio:
        """Fraction of simulated time at least one iteration was running."""
        span = self.makespan
        return merge_busy_intervals(self.busy_intervals) / span if span else 0.0

    @property
    def mean_latency(self) -> Seconds:
        if not self.completed:
            return 0.0
        return float(np.mean([m.latency for m in self.completed]))

    @property
    def mean_ttft(self) -> Seconds:
        if not self.completed:
            return 0.0
        return float(np.mean([m.ttft for m in self.completed]))

    @property
    def mean_queue_delay(self) -> Seconds:
        if not self.completed:
            return 0.0
        return float(np.mean([m.queue_delay for m in self.completed]))

    def latency_percentile(self, q: float) -> Seconds:
        """User-visible latency percentile, ``q`` in [0, 100]."""
        return percentile((m.latency for m in self.completed), q)

    def ttft_percentile(self, q: float) -> Seconds:
        return percentile((m.ttft for m in self.completed), q)

    def tbt_percentile(self, q: float) -> Seconds:
        """Percentile over all inter-token gaps, pooled across requests."""
        return percentile((g for m in self.completed for g in m.tbts), q)

    def slo_attainment(self, slo: SLO) -> Ratio:
        """Fraction of *completed* requests that met the SLO."""
        if not self.completed:
            return 0.0
        met = sum(1 for m in self.completed if m.meets_slo(slo))
        return met / self.n_requests

    def slo_attainment_overall(self, slo: SLO) -> Ratio:
        """Fraction of *submitted* requests that completed within the SLO.

        Unlike :meth:`slo_attainment`, the denominator includes requests
        that timed out, were shed, or failed — a server cannot improve
        this number by dropping inconvenient requests, which makes it the
        honest metric for comparing degradation strategies.
        """
        n = self.n_submitted
        if not n:
            return 0.0
        return sum(1 for m in self.completed if m.meets_slo(slo)) / n

    def goodput(self, slo: SLO) -> Hertz:
        """SLO-meeting requests completed per second of simulated time."""
        span = self.makespan
        if not span:
            return 0.0
        return sum(1 for m in self.completed if m.meets_slo(slo)) / span

    def to_dict(
        self,
        slo: SLO | None = None,
        percentiles: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0),
    ) -> dict:
        """The report as a JSON-ready dict (for structured benchmark output).

        Scalars and percentile tables only — per-token timelines belong to
        the telemetry subsystem (:mod:`repro.telemetry`), whose registry
        summary merges into this dict via
        :meth:`~repro.telemetry.metrics.MetricsRegistry.merge_into`.

        Args:
            slo: When given, adds an ``"slo"`` block with the targets and
                attainment/goodput against them.
            percentiles: Quantiles rendered into each percentile table.
        """
        def table(values: list[float]) -> dict[str, float]:
            return {
                f"p{q:g}": percentile(values, q) for q in percentiles
            } if values else {}

        result = {
            "n_requests": self.n_requests,
            "n_submitted": self.n_submitted,
            "n_iterations": self.n_iterations,
            "n_timed_out": len(self.timed_out),
            "n_shed": len(self.shed),
            "n_failed": len(self.failed),
            "n_aborts": self.n_aborts,
            "n_retries": self.n_retries,
            "makespan_s": self.makespan,
            "throughput_rps": self.throughput_rps,
            "tokens_per_second": self.tokens_per_second,
            "utilization": self.utilization,
            "kv_budget_bytes": self.kv_budget_bytes,
            "peak_kv_bytes": self.peak_kv_bytes,
            "mean_latency_s": self.mean_latency,
            "mean_ttft_s": self.mean_ttft,
            "mean_queue_delay_s": self.mean_queue_delay,
            "deadline_miss_rate": self.deadline_miss_rate,
            "shed_rate": self.shed_rate,
            "time_in_degraded_mode_s": self.time_in_degraded_mode,
            "latency_percentiles_s": table([m.latency for m in self.completed]),
            "ttft_percentiles_s": table([m.ttft for m in self.completed]),
            "tbt_percentiles_s": table(
                [g for m in self.completed for g in m.tbts]
            ),
        }
        if slo is not None:
            result["slo"] = {
                "ttft_target_s": slo.ttft_target,
                "tbt_target_s": slo.tbt_target,
                "attainment": self.slo_attainment(slo),
                "attainment_overall": self.slo_attainment_overall(slo),
                "goodput_rps": self.goodput(slo),
            }
        return result
