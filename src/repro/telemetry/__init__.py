"""Telemetry: event tracing, counter time-series, and trace exporters.

The observability layer of the reproduction (see docs/observability.md).
A :class:`Tracer` attached to the engine / continuous server records typed
span events (operator tasks on their device lanes, request lifecycles,
fault epochs, degraded-mode windows) plus sampled counters, aggregates
summaries in a :class:`MetricsRegistry`, and exports Chrome ``trace_event``
JSON (Perfetto / chrome://tracing), JSONL event logs, and a matplotlib
timeline figure.  With no tracer attached the instrumented code paths cost
one ``is None`` check and produce bit-identical results.

Fleet-wide observability builds on the same primitives: a
:class:`FleetTracer` holds one tracer per replica plus a router lane on
one simulated clock, a :class:`TimeSeriesBank` of ring-buffered series
sampled on fleet ticks, and an :class:`SLOMonitor` firing multi-window
burn-rate :class:`Alert`\\ s — with :func:`explain_request` reconstructing
any single request's cross-replica causal timeline.

Energy metering (:mod:`repro.telemetry.power`, see docs/energy.md) turns
the same realized schedules into watts, joules, and grams of CO2: linear
idle/busy/peak device power models with throttle-aware DVFS scaling,
per-task energy ledgers reconciled against an integrated
:class:`PowerMeter`, request-level J/token, and fleet-wide watt lanes
sampled into the time-series bank — all post-hoc, never touching the
simulation.
"""

from repro.telemetry.exporters import (
    save_chrome_trace,
    save_fleet_chrome_trace,
    save_jsonl,
    to_chrome_trace,
    to_chrome_trace_fleet,
    to_jsonl_records,
)
from repro.telemetry.fleet import (
    FleetTracer,
    TraceContext,
    TraceHop,
    explain_request,
    format_explanation,
    record_fleet_fault_schedule,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.power import (
    EnergyReport,
    FleetEnergyReport,
    PowerMeter,
    PowerModel,
    RequestEnergy,
    TaskEnergy,
    fleet_energy,
    grams_co2,
    request_energy,
    sample_fleet_power,
    schedule_energy,
    tracer_energy,
)
from repro.telemetry.slo import Alert, BurnRateRule, SLOMonitor, SLOObjective
from repro.telemetry.timeline import MissingDependencyError, plot_timeline
from repro.telemetry.timeseries import Series, TimeSeriesBank
from repro.telemetry.tracer import (
    CounterSample,
    Instant,
    NullTracer,
    Region,
    RequestEvent,
    RequestPhase,
    RequestSpan,
    TaskSpan,
    Tracer,
    record_fault_schedule,
)

__all__ = [
    "Alert",
    "BurnRateRule",
    "Counter",
    "CounterSample",
    "EnergyReport",
    "FleetEnergyReport",
    "FleetTracer",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "MissingDependencyError",
    "NullTracer",
    "PowerMeter",
    "PowerModel",
    "Region",
    "RequestEnergy",
    "RequestEvent",
    "RequestPhase",
    "RequestSpan",
    "SLOMonitor",
    "SLOObjective",
    "Series",
    "TaskEnergy",
    "TaskSpan",
    "TimeSeriesBank",
    "TraceContext",
    "TraceHop",
    "Tracer",
    "explain_request",
    "fleet_energy",
    "format_explanation",
    "grams_co2",
    "plot_timeline",
    "record_fault_schedule",
    "record_fleet_fault_schedule",
    "request_energy",
    "sample_fleet_power",
    "save_chrome_trace",
    "schedule_energy",
    "tracer_energy",
    "save_fleet_chrome_trace",
    "save_jsonl",
    "to_chrome_trace",
    "to_chrome_trace_fleet",
    "to_jsonl_records",
]
