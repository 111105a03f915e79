"""Fleet-wide distributed tracing: per-replica tracers merged on one clock.

PR-3 tracing observes one :class:`~repro.serving.continuous
.ContinuousServer`; a fleet run spreads one request across a router and
N replicas, so a single flat tracer cannot say *which replica* ran a
span or *which dispatch attempt* an event belongs to.  This module adds
the two missing pieces:

* :class:`TraceContext` — the propagation token.  The router mints one
  per request and advances its **hop counter** at every dispatch
  (initial, re-dispatch after failover, hedge twin, post-transfer decode
  segment); sessions stamp the hop onto every request event they record,
  so a request that visits the same replica twice stays unambiguous.
* :class:`FleetTracer` — one :class:`~repro.telemetry.tracer.Tracer` per
  replica plus a router tracer, all on the single fleet clock, plus the
  hop log, a :class:`~repro.telemetry.timeseries.TimeSeriesBank` sampled
  on fleet ticks, and an optional
  :class:`~repro.telemetry.slo.SLOMonitor`.  Exported as one Chrome
  trace with a process lane per replica
  (:func:`~repro.telemetry.exporters.to_chrome_trace_fleet`).

:func:`explain_request` is the forensics entry point: it merges one
request's events from every lane — dispatches, queueing, retries, KV
migration, per-token progress, burn-rate alerts — into a single causal
timeline with a disposition summary (rendered by
:func:`format_explanation`, served by ``repro fleet --explain``).

Everything is opt-in: a fleet run with ``tracer=None`` records nothing
and stays bit-identical to the untraced schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.telemetry.slo import SLOMonitor
from repro.telemetry.timeseries import TimeSeriesBank
from repro.telemetry.tracer import RequestEvent, Tracer
from repro.units import Seconds

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.hardware.faults import FaultSchedule

__all__ = [
    "SAMPLE_INTERVAL_S",
    "TraceContext",
    "TraceHop",
    "FleetTracer",
    "record_fleet_fault_schedule",
    "explain_request",
    "format_explanation",
]

# Spacing of the fleet tick grid: the router samples the time-series bank
# and evaluates the SLO monitor every SAMPLE_INTERVAL_S simulated seconds.
SAMPLE_INTERVAL_S: Seconds = 0.25


@dataclass(frozen=True)
class TraceContext:
    """The per-request propagation token threaded through the fleet.

    ``hop`` counts dispatch attempts (0 = minted at the router, before
    any dispatch); ``parent`` is the hop this one descends from — a
    failover re-dispatch descends from the failed segment, a hedge twin
    from the same parent as its sibling.
    """

    request_id: int
    hop: int = 0
    parent: int | None = None

    def child(self) -> "TraceContext":
        """The context of the next dispatch attempt."""
        return TraceContext(self.request_id, self.hop + 1, parent=self.hop)


@dataclass(frozen=True)
class TraceHop:
    """One dispatch attempt: which replica, why, and when."""

    request_id: int
    hop: int
    parent: int | None
    target: str
    kind: str  # dispatch | redispatch | hedge | decode
    time: float


class FleetTracer:
    """A router tracer plus one tracer per replica, on one fleet clock.

    Attach to :class:`~repro.serving.fleet.router.FleetRouter` in place
    of a plain :class:`Tracer` to get the deep fleet trace: the router
    records its events (dispatches, failovers, hedges, per-token
    delivery, KV transfers, alerts) on :attr:`router`; each replica's
    session records on its own :meth:`replica` tracer; the hop log ties
    them together.  The router samples :attr:`timeseries` (and evaluates
    :attr:`monitor`) on a :data:`SAMPLE_INTERVAL_S` tick grid.
    """

    enabled: bool = True

    def __init__(
        self,
        monitor: SLOMonitor | None = None,
        slo=None,
    ) -> None:
        self.router = Tracer()
        self.monitor = monitor
        # The latency targets (a repro.serving.metrics.SLO) completed
        # requests are judged against when feeding `monitor`; without it
        # only non-completed dispositions burn budget.
        self.slo = slo
        self.timeseries = TimeSeriesBank()
        self.hops: list[TraceHop] = []
        self._replicas: dict[str, Tracer] = {}

    # ---- recording -------------------------------------------------------------

    def replica(self, name: str) -> Tracer:
        """Get-or-create the tracer observing replica ``name``."""
        tracer = self._replicas.get(name)
        if tracer is None:
            tracer = self._replicas[name] = Tracer()
        return tracer

    def begin_hop(
        self, ctx: TraceContext, target: str, kind: str, time: float
    ) -> TraceContext:
        """Log one dispatch attempt; returns ``ctx`` for chaining."""
        self.hops.append(
            TraceHop(
                request_id=ctx.request_id,
                hop=ctx.hop,
                parent=ctx.parent,
                target=target,
                kind=kind,
                time=time,
            )
        )
        return ctx

    # ---- queries ---------------------------------------------------------------

    @property
    def replica_names(self) -> tuple[str, ...]:
        """Replica lanes observed so far, in attach order."""
        return tuple(self._replicas)

    @property
    def alerts(self):
        """Alerts the attached monitor fired (empty without a monitor)."""
        return self.monitor.alerts if self.monitor is not None else []

    def __len__(self) -> int:
        """Total recorded events across the router and every replica."""
        return (
            len(self.router)
            + sum(len(t) for t in self._replicas.values())
            + len(self.hops)
        )

    def hops_of(self, request_id: int) -> list[TraceHop]:
        """The dispatch attempts of one request, in hop order."""
        return sorted(
            (h for h in self.hops if h.request_id == request_id),
            key=lambda h: h.hop,
        )

    def request_events(self, request_id: int) -> list[tuple[str, RequestEvent]]:
        """One request's events from every lane, merged in time order.

        Returns ``(source, event)`` pairs where ``source`` is
        ``"router"`` or a replica name.  Ties break router-first, then
        by recording order (stable for same-instant replica events).
        """
        merged: list[tuple[float, int, int, str, RequestEvent]] = []
        for rank, (source, tracer) in enumerate(
            [("router", self.router)] + list(self._replicas.items())
        ):
            for seq, ev in enumerate(tracer.request_events):
                if ev.request_id == request_id:
                    merged.append((ev.time, rank, seq, source, ev))
        merged.sort(key=lambda item: item[:3])
        return [(source, ev) for _, _, _, source, ev in merged]

    def merged_busy_union(self) -> float:
        """Seconds any replica device lane was busy, fleet-wide."""
        from repro.serving.metrics import merge_busy_intervals

        return merge_busy_intervals(
            (s.start, s.end)
            for tracer in self._replicas.values()
            for s in tracer.task_spans
        )


def record_fleet_fault_schedule(
    tracer: Tracer, faults: "FaultSchedule", replica: str = ""
) -> None:
    """Annotate a tracer with a schedule's *fleet-level* fault windows.

    The complement of :func:`~repro.telemetry.tracer
    .record_fault_schedule`: sessions record the machine-view faults
    (stalls, throttles) on their own ``faults`` lane, but the fleet
    kinds — ``replica-crash`` / ``replica-recover`` / ``link-degrade`` —
    are dropped by ``machine_view()`` translation and would vanish from
    the trace.  This records them as regions (plus a start instant each)
    on a ``fleet-faults`` lane, suffixed with the replica name when
    given, so crash and interconnect windows line up with the router's
    failover decisions in the merged timeline.
    """
    from repro.hardware.faults import FaultKind

    lane = f"fleet-faults:{replica}" if replica else "fleet-faults"
    for event in faults.events:
        if event.kind not in FaultKind.FLEET:
            continue
        tracer.add_region(
            lane,
            event.kind,
            event.start,
            event.end,
            args={"magnitude": event.magnitude},
        )
        tracer.add_instant(lane, f"{event.kind}-start", event.start)


# ---- request forensics ----------------------------------------------------------

# Event kinds that represent one delivered token (collapsed into runs by
# the text renderer; kept verbatim in the JSON timeline).
_TOKEN_KINDS = ("token", "first_token")


def _disposition_of(result, request_id: int) -> tuple[str, object | None]:
    report = result.report
    for metrics in report.completed:
        if metrics.request.request_id == request_id:
            return "completed", metrics
    for label, requests in (
        ("timed_out", report.timed_out),
        ("shed", report.shed),
        ("failed", report.failed),
    ):
        for request in requests:
            if request.request_id == request_id:
                return label, None
    return "unknown", None


def explain_request(
    tracer: FleetTracer, result, request_id: int, energy=None
) -> dict:
    """Reconstruct one request's causal timeline across the fleet.

    Merges the router's and every replica's events for ``request_id``
    with the hop log, the KV-transfer spans that moved its context, and
    any burn-rate alerts fired while it was in flight, into one
    time-ordered entry list plus a disposition summary.  ``result`` is
    the run's :class:`~repro.serving.fleet.report.FleetResult` (the
    ground truth the summary quotes).

    ``energy`` optionally takes the run's
    :class:`~repro.telemetry.power.FleetEnergyReport`; each timeline
    entry then carries ``fleet_joules`` — cumulative fleet energy at
    that instant from the merged power meter — and the summary gains an
    ``energy`` block (fleet joules burned while the request was in
    flight).  Omitted by default so existing transcripts are unchanged.
    """
    entries: list[dict] = []
    for hop in tracer.hops_of(request_id):
        entries.append(
            {
                "time": hop.time,
                "source": "router",
                "kind": f"hop-{hop.kind}",
                "hop": hop.hop,
                "detail": f"-> {hop.target}"
                + (f" (parent hop {hop.parent})" if hop.parent else ""),
            }
        )
    for source, ev in tracer.request_events(request_id):
        entries.append(
            {
                "time": ev.time,
                "source": source,
                "kind": ev.kind,
                "hop": ev.hop,
                "detail": "",
            }
        )
    prefix = f"kv/{request_id}/"
    for span in tracer.router.task_spans:
        if span.tag == "kv-transfer" and span.name.startswith(prefix):
            entries.append(
                {
                    "time": span.start,
                    "source": "router",
                    "kind": "kv-transfer",
                    "hop": None,
                    "detail": f"{span.name} streamed for {span.duration * 1e3:.2f} ms",
                }
            )
    # Hops sort ahead of same-instant events (the dispatch *causes* them);
    # everything else keeps recording order within an instant.
    order = {"hop-dispatch": 0, "hop-redispatch": 0, "hop-hedge": 0, "hop-decode": 0}
    entries.sort(
        key=lambda e: (e["time"], order.get(e["kind"], 1))
    )

    hops = tracer.hops_of(request_id)
    disposition, metrics = _disposition_of(result, request_id)
    summary: dict = {
        "request_id": request_id,
        "disposition": disposition,
        "n_hops": len(hops),
        "replicas": [h.target for h in hops],
        "replay_path": [f"{h.kind}->{h.target}" for h in hops],
        "hedged": request_id in result.hedged_ids,
        "n_events": len(entries),
    }
    if metrics is not None:
        summary["ttft_s"] = metrics.ttft
        summary["latency_s"] = metrics.latency
        summary["n_tokens"] = len(metrics.token_times)
    alerts = [
        a.to_dict()
        for a in tracer.alerts
        if any(
            e["time"] <= a.time <= entries[-1]["time"] for e in entries[:1]
        )
    ] if entries else []
    if energy is not None and entries:
        meter = energy.meter()
        for entry in entries:
            entry["fleet_joules"] = meter.cumulative_joules(entry["time"])
        t_first, t_last = entries[0]["time"], entries[-1]["time"]
        summary["energy"] = {
            "fleet_joules_in_flight": meter.energy_between(t_first, t_last),
            "fleet_avg_watts_in_flight": (
                meter.energy_between(t_first, t_last) / (t_last - t_first)
                if t_last > t_first
                else meter.power_at(t_first)
            ),
            "fleet_total_joules": energy.total_joules,
            "grams_co2": energy.grams_co2(),
        }
    return {"summary": summary, "timeline": entries, "alerts_during": alerts}


def format_explanation(explanation: dict) -> str:
    """Render :func:`explain_request` output as a human-readable log.

    Consecutive per-token events from one source collapse into a single
    ``tokens xN`` line so a 200-token decode does not drown the
    dispatch/failover structure the reader came for.
    """
    summary = explanation["summary"]
    lines = [
        f"request {summary['request_id']}: {summary['disposition']} after "
        f"{summary['n_hops']} hop(s) via {' -> '.join(summary['replicas']) or '-'}"
    ]
    if "ttft_s" in summary:
        lines.append(
            f"  ttft {summary['ttft_s']:.3f}s, latency {summary['latency_s']:.3f}s, "
            f"{summary['n_tokens']} tokens"
        )
    if "energy" in summary:
        energy = summary["energy"]
        lines.append(
            f"  fleet energy in flight {energy['fleet_joules_in_flight']:.1f} J "
            f"({energy['fleet_avg_watts_in_flight']:.0f} W avg); "
            f"run total {energy['fleet_total_joules']:.0f} J, "
            f"{energy['grams_co2']:.2f} gCO2"
        )

    def joules_col(entry: dict) -> str:
        if "fleet_joules" not in entry:
            return ""
        return f"  [{entry['fleet_joules']:8.1f} J]"

    run: list[dict] = []

    def flush() -> None:
        if not run:
            return
        first, last = run[0], run[-1]
        hop = f" hop={first['hop']}" if first["hop"] is not None else ""
        if len(run) == 1:
            lines.append(
                f"  {first['time']:9.4f}s  {first['source']:<16} token{hop}"
                f"{joules_col(first)}"
            )
        else:
            lines.append(
                f"  {first['time']:9.4f}s  {first['source']:<16} "
                f"tokens x{len(run)}{hop} (through {last['time']:.4f}s)"
                f"{joules_col(last)}"
            )
        run.clear()

    for entry in explanation["timeline"]:
        if entry["kind"] in _TOKEN_KINDS:
            if run and run[-1]["source"] != entry["source"]:
                flush()
            run.append(entry)
            continue
        flush()
        hop = f" hop={entry['hop']}" if entry["hop"] is not None else ""
        detail = f" {entry['detail']}" if entry["detail"] else ""
        lines.append(
            f"  {entry['time']:9.4f}s  {entry['source']:<16} "
            f"{entry['kind']}{hop}{detail}{joules_col(entry)}"
        )
    flush()
    for alert in explanation.get("alerts_during", ()):
        lines.append(
            f"  ! alert {alert['objective']} at {alert['time']:.3f}s "
            f"(burn {alert['burn_rate_long']:.1f}x)"
        )
    return "\n".join(lines)
