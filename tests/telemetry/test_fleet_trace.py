"""Fleet-wide observability: merged traces, reconciliation, forensics.

Acceptance bar for the fleet telemetry layer, on the canonical 3-replica
chaos scenario (r0-pc-high crashes at 6 s for 18 s, one request fails
over mid-decode):

* the merged fleet trace reconciles with the :class:`FleetResult` to
  1e-6 (busy union, per-token times, disposition counts);
* attaching the :class:`FleetTracer` changes *nothing* about the run —
  bit-identical to ``tracer=None``;
* ``explain_request`` (served by ``repro fleet --explain``) reproduces
  the failover request's replay path exactly (golden transcript);
* burn-rate alerts land inside the crash window, annotated with it;
* the replica fault schedule and Chrome export carry the fleet lanes.
"""

import json

import pytest

from repro.bench.fleet_chaos import (
    DEFAULT_SLO,
    build_fleet,
    default_fleet_monitor,
    fleet_requests,
)
from repro.check.schedule import validate_fleet_run
from repro.serving.metrics import merge_busy_intervals
from repro.telemetry import (
    FleetTracer,
    TraceContext,
    explain_request,
    format_explanation,
    to_chrome_trace_fleet,
)

CRASH_WINDOW = (6.0, 24.0)
# The canonical failover victim: dispatched to r0-pc-high just before the
# crash, aborted mid-decode, replayed on r1-pc-low (see golden below).
FAILOVER_RID = 9


def deep_tracer():
    return FleetTracer(monitor=default_fleet_monitor(), slo=DEFAULT_SLO)


@pytest.fixture(scope="module")
def traced():
    tracer = deep_tracer()
    result = build_fleet(tracer=tracer).run(fleet_requests())
    return tracer, result


class TestReconciliation:
    def test_validator_clean_with_and_without_tracer(self, traced):
        tracer, result = traced
        assert validate_fleet_run(result) == []
        assert validate_fleet_run(result, tracer=tracer) == []

    def test_busy_union_matches_report_to_1e6(self, traced):
        tracer, result = traced
        report_union = merge_busy_intervals(result.report.busy_intervals)
        assert tracer.merged_busy_union() == pytest.approx(
            report_union, rel=1e-6, abs=1e-9
        )

    def test_router_token_events_are_the_report_floats(self, traced):
        tracer, result = traced
        tokens: dict[int, list[float]] = {}
        for ev in tracer.router.request_events:
            if ev.kind == "token":
                tokens.setdefault(ev.request_id, []).append(ev.time)
        for metrics in result.report.completed:
            rid = metrics.request.request_id
            assert tokens[rid] == list(metrics.token_times)

    def test_doctored_trace_is_caught(self, traced):
        tracer, result = traced
        tracer.router.add_request_event(
            result.report.completed[0].request.request_id, "token", 1e9
        )
        try:
            violations = validate_fleet_run(result, tracer=tracer)
            assert any(v.check == "fleet-trace-tokens" for v in violations)
        finally:
            tracer.router.request_events.pop()


class TestBitIdentity:
    def test_deep_tracing_changes_nothing(self, traced):
        _, result = traced
        bare = build_fleet(tracer=None).run(fleet_requests())
        assert bare.to_dict(slo=DEFAULT_SLO) == result.to_dict(slo=DEFAULT_SLO)


class TestAlerts:
    def test_alerts_fire_inside_crash_window_with_annotation(self, traced):
        tracer, _ = traced
        alerts = tracer.alerts
        assert alerts, "the 18 s crash must fire at least one burn-rate alert"
        for alert in alerts:
            assert CRASH_WINDOW[0] <= alert.time <= CRASH_WINDOW[1]
            assert "crash:r0-pc-high" in alert.context
        # Alerts also land on the router's annotation lane for the trace.
        instants = [i for i in tracer.router.instants if i.lane == "alerts"]
        assert len(instants) == len(alerts)

    def test_fault_free_run_stays_silent(self):
        tracer = deep_tracer()
        build_fleet(chaos=False, tracer=tracer).run(fleet_requests())
        assert tracer.alerts == []


class TestMergedTrace:
    def test_fault_schedule_on_fleet_lane(self, traced):
        tracer, _ = traced
        regions = tracer.router.regions_on("fleet-faults:r0-pc-high")
        assert [(r.name, r.start, r.end) for r in regions] == [
            ("replica-crash", *CRASH_WINDOW)
        ]

    def test_timeseries_sees_the_crash(self, traced):
        tracer, _ = traced
        up = tracer.timeseries.series("fleet/up_replicas")
        assert min(v for _, v in up.samples()) == 2.0
        assert up.window_mean(0.0, CRASH_WINDOW[0]) == 3.0
        for name in ("queue_depth", "kv_used_bytes", "busy_s"):
            assert f"r0-pc-high/{name}" in tracer.timeseries

    def test_chrome_export_has_one_lane_per_replica_plus_router(self, traced):
        tracer, _ = traced
        events = to_chrome_trace_fleet(tracer)
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert any(n.startswith("router/") for n in names)
        for replica in tracer.replica_names:
            assert any(n.startswith(f"{replica}/") for n in names)
        hops = {
            e["args"]["hop"]
            for e in events
            if e.get("ph") == "i" and "hop" in e.get("args", {})
        }
        assert hops >= {0, 1}
        json.dumps(events)  # must be JSON-serializable as exported


class TestExplainRequest:
    def test_failover_replay_path_is_exact(self, traced):
        tracer, result = traced
        explanation = explain_request(tracer, result, FAILOVER_RID)
        summary = explanation["summary"]
        assert summary["disposition"] == "completed"
        assert summary["n_hops"] == 2
        assert summary["replay_path"] == [
            "dispatch->r0-pc-high",
            "redispatch->r1-pc-low",
        ]
        assert summary["replicas"] == ["r0-pc-high", "r1-pc-low"]
        assert summary["n_tokens"] == 128
        kinds = [e["kind"] for e in explanation["timeline"]]
        # Crash forensics in causal order: aborted on the dead replica,
        # failed over, replayed, finished on the survivor.
        for a, b in (
            ("hop-dispatch", "abort"),
            ("abort", "failover"),
            ("failover", "hop-redispatch"),
            ("hop-redispatch", "fleet-finish"),
        ):
            assert kinds.index(a) < kinds.index(b)
        # The crash's burn-rate alerts fire later (the long window has to
        # fill with post-crash badness) — none overlap this request.
        assert explanation["alerts_during"] == []

    def test_golden_transcript(self, traced):
        """The full rendered forensics for the failover request, verbatim."""
        tracer, result = traced
        text = format_explanation(explain_request(tracer, result, FAILOVER_RID))
        golden = "\n".join(
            [
                "request 9: completed after 2 hop(s) via r0-pc-high -> r1-pc-low",
                "  ttft 0.008s, latency 2.006s, 128 tokens",
                "     5.8417s  router           hop-dispatch hop=0 -> r0-pc-high",
                "     5.8417s  router           dispatch hop=0",
                "     5.8417s  r0-pc-high       arrive hop=0",
                "     5.8417s  r0-pc-high       admit hop=0",
                "     5.8497s  router           token",
                "     5.8497s  r0-pc-high       token hop=0",
                "     5.8543s  router           tokens x32 (through 5.9965s)",
                "     6.0000s  r0-pc-high       abort hop=0",
                "     6.5000s  router           failover",
                "     6.5000s  router           redispatch",
                "     6.5500s  router           hop-redispatch hop=1 -> r1-pc-low",
                "     6.5500s  router           dispatch hop=1",
                "     6.5500s  r1-pc-low        arrive hop=1",
                "     6.5543s  r1-pc-low        admit hop=1",
                "     6.6100s  router           token",
                "     6.6100s  r1-pc-low        token hop=1",
                "     6.6256s  router           tokens x94 (through 7.8472s)",
                "     7.8472s  router           fleet-finish",
                "     7.8472s  r1-pc-low        finish hop=1",
            ]
        )
        assert text == golden

    def test_in_flight_alerts_render_inline(self, traced):
        """A request overlapping the alert window carries the alerts."""
        tracer, result = traced
        explanation = explain_request(tracer, result, 35)
        times = [a["time"] for a in explanation["alerts_during"]]
        assert times == [15.0, 15.75, 18.5]
        assert all(a["objective"] == "tbt" for a in explanation["alerts_during"])
        text = format_explanation(explanation)
        assert "! alert tbt at 15.000s" in text

    def test_unknown_request_has_empty_timeline(self, traced):
        tracer, result = traced
        explanation = explain_request(tracer, result, 10_000)
        assert explanation["summary"]["disposition"] == "unknown"
        assert explanation["timeline"] == []


class TestTraceContext:
    def test_child_increments_hop(self):
        ctx = TraceContext(request_id=7)
        assert (ctx.hop, ctx.parent) == (0, None)
        child = ctx.child()
        assert (child.request_id, child.hop, child.parent) == (7, 1, 0)
