"""Trace/report reconciliation on a traced chaos run.

The acceptance bar for the telemetry subsystem: a trace is only useful if
it *agrees* with the aggregate report of the same run.  These tests run
one fault-injected continuous-batching serve over the mini engine with a
tracer attached and check that device busy time, request lifecycles, fault
annotations, and degraded windows all reconcile — and that attaching the
tracer changed nothing about the simulation itself.

Timescales reference the mini engine: one 16-token prefill iteration costs
~6 ms, one decode step ~1.7 ms, a (16 in, 32 out) request ~60 ms end to
end.
"""

import pytest

from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.serving import ContinuousServer, Request
from repro.serving.metrics import merge_busy_intervals
from repro.telemetry import NullTracer, Tracer

BUDGET = 256 * 2**20


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


def burst(n, input_len=16, output_len=32, gap=0.004, deadline=None):
    return [
        Request(request_id=i, arrival_time=gap * i, input_len=input_len,
                output_len=output_len, deadline=deadline)
        for i in range(n)
    ]


def chaos_faults():
    """Degrade + squeeze + stall, timed to land mid-run on the mini engine."""
    return FaultSchedule(
        [
            FaultEvent(FaultKind.PCIE_DEGRADE, start=0.02, duration=0.05,
                       magnitude=3.0),
            FaultEvent(FaultKind.KV_SHRINK, start=0.08, duration=0.05,
                       magnitude=0.5),
            FaultEvent(FaultKind.DEVICE_STALL, start=0.15, duration=0.01),
        ]
    )


SERVE_KWARGS = dict(max_batch=4, kv_budget_bytes=BUDGET, deadline=5.0,
                    max_retries=2)


@pytest.fixture(scope="module")
def traced_run(engine):
    faults = chaos_faults()
    tracer = Tracer()
    report = ContinuousServer(
        engine, faults=faults, tracer=tracer, **SERVE_KWARGS
    ).run(burst(12))
    return tracer, report, faults


class TestTracingIsPassive:
    def test_report_identical_with_and_without_tracer(self, engine, traced_run):
        _, traced, faults = traced_run
        untraced = ContinuousServer(
            engine, faults=chaos_faults(), **SERVE_KWARGS
        ).run(burst(12))
        assert untraced.busy_intervals == traced.busy_intervals
        assert untraced.degraded_intervals == traced.degraded_intervals
        assert untraced.n_iterations == traced.n_iterations
        assert untraced.n_aborts == traced.n_aborts
        assert untraced.peak_kv_bytes == traced.peak_kv_bytes
        assert [m.token_times for m in untraced.completed] == [
            m.token_times for m in traced.completed
        ]

    def test_null_tracer_records_nothing_and_changes_nothing(self, engine, traced_run):
        _, traced, _ = traced_run
        null = NullTracer()
        report = ContinuousServer(
            engine, faults=chaos_faults(), tracer=null, **SERVE_KWARGS
        ).run(burst(12))
        assert len(null) == 0
        assert len(null.metrics) == 0
        assert report.busy_intervals == traced.busy_intervals


class TestDeviceReconciliation:
    def test_fault_run_exercises_every_event_class(self, traced_run):
        tracer, report, _ = traced_run
        assert report.n_aborts > 0  # the stall really hit in-flight work
        assert report.time_in_degraded_mode > 0
        assert tracer.task_spans and tracer.request_spans and tracer.counters

    def test_busy_union_matches_report_busy_time(self, traced_run):
        tracer, report, _ = traced_run
        busy = merge_busy_intervals(report.busy_intervals)
        assert abs(tracer.busy_union() - busy) < 1e-6

    def test_utilization_matches_within_tolerance(self, traced_run):
        tracer, report, _ = traced_run
        assert tracer.busy_union() / report.makespan == pytest.approx(
            report.utilization, abs=1e-6
        )

    def test_iteration_regions_cover_exactly_the_busy_intervals(self, traced_run):
        tracer, report, _ = traced_run
        regions = [
            (r.start, r.end)
            for r in tracer.regions_on("server")
            if r.name in ("iteration", "iteration-aborted")
        ]
        assert regions == report.busy_intervals
        n_committed = sum(
            1 for r in tracer.regions_on("server") if r.name == "iteration"
        )
        assert n_committed == report.n_iterations

    def test_task_spans_stay_inside_their_iteration_window(self, traced_run):
        tracer, report, _ = traced_run
        windows = [
            (r.start, r.end)
            for r in tracer.regions_on("server")
            if r.name == "iteration"
        ]
        clipped = 0
        for span in tracer.task_spans:
            if span.iteration is None:  # lost work cut short by a stall
                clipped += 1
                continue
            window = windows[span.iteration]
            assert span.start >= window[0] - 1e-9
            assert span.end <= window[1] + 1e-9
        assert clipped > 0  # the chaos schedule preempts at least one iteration

    def test_degraded_regions_sum_to_report_time(self, traced_run):
        tracer, report, _ = traced_run
        degraded = [
            (r.start, r.end)
            for r in tracer.regions_on("server")
            if r.name == "degraded"
        ]
        assert merge_busy_intervals(degraded) == pytest.approx(
            report.time_in_degraded_mode
        )


class TestRequestReconciliation:
    def events_of(self, tracer, rid, kind):
        return [e for e in tracer.request_events
                if e.request_id == rid and e.kind == kind]

    def test_completed_requests_reconcile_with_metrics(self, traced_run):
        tracer, report, _ = traced_run
        assert report.completed, "chaos run completed no requests"
        for m in report.completed:
            rid = m.request.request_id
            (finish,) = self.events_of(tracer, rid, "finish")
            assert finish.time == m.finish_time
            first = self.events_of(tracer, rid, "first_token")[-1]
            assert first.time == m.token_times[0]
            spans = [s for s in tracer.request_spans if s.request_id == rid]
            prefill = [s for s in spans if s.phase == "prefill"][-1]
            assert prefill.start == m.admit_time
            assert prefill.end == m.token_times[0]
            assert prefill.end - m.request.arrival_time == pytest.approx(m.ttft)
            queued = [s for s in spans if s.phase == "queued"][-1]
            assert queued.end == m.admit_time

    def test_abort_and_fail_events_match_report_counts(self, traced_run):
        tracer, report, _ = traced_run
        aborts = [e for e in tracer.request_events if e.kind == "abort"]
        assert len(aborts) == report.n_aborts
        fails = [e for e in tracer.request_events if e.kind == "fail"]
        assert len(fails) == len(report.failed)
        requeues = [e for e in tracer.request_events if e.kind == "requeue"]
        assert len(requeues) <= report.n_retries

    def test_every_request_arrives_exactly_once(self, traced_run):
        tracer, _, _ = traced_run
        arrivals = [e for e in tracer.request_events if e.kind == "arrive"]
        assert len(arrivals) == 12
        assert {e.request_id for e in arrivals} == set(range(12))
        for e in arrivals:
            assert e.time == pytest.approx(0.004 * e.request_id)

    def test_timeouts_are_traced(self, engine):
        tracer = Tracer()
        report = ContinuousServer(
            engine, max_batch=2, kv_budget_bytes=BUDGET, deadline=0.05, tracer=tracer
        ).run(burst(6, output_len=64))
        assert report.timed_out
        timeouts = [e for e in tracer.request_events if e.kind == "timeout"]
        assert {e.request_id for e in timeouts} == {
            r.request_id for r in report.timed_out
        }
        assert tracer.metrics.counter("timeouts").value == len(report.timed_out)


class TestFaultAnnotations:
    def test_fault_regions_match_the_schedule(self, traced_run):
        tracer, _, faults = traced_run
        regions = tracer.regions_on("faults")
        assert [(r.name, r.start, r.end) for r in regions] == [
            (e.kind, e.start, e.end) for e in faults.events
        ]
        for region, event in zip(regions, faults.events):
            assert region.args == {"magnitude": event.magnitude}

    def test_epoch_instants_match_the_boundaries(self, traced_run):
        tracer, _, faults = traced_run
        marks = [i.time for i in tracer.instants
                 if i.lane == "faults" and i.name == "epoch"]
        assert marks == list(faults.boundaries)


class TestCountersAndMetrics:
    def test_counter_samples_once_per_priced_iteration(self, traced_run):
        tracer, report, _ = traced_run
        depth = tracer.counter_series("queue_depth")
        batch = tracer.counter_series("running_batch")
        assert len(depth) == len(batch) >= report.n_iterations
        assert all(v >= 1 for _, v in batch)

    def test_kv_counter_stays_within_the_tracked_peak(self, traced_run):
        tracer, report, _ = traced_run
        kv = tracer.counter_series("kv_used_bytes")
        assert kv and max(v for _, v in kv) <= report.peak_kv_bytes
        assert tracer.metrics.gauge("peak_kv_bytes").value == report.peak_kv_bytes

    def test_busy_fraction_counters_are_fractions(self, traced_run):
        tracer, _, _ = traced_run
        for lane in ("gpu", "cpu", "pcie"):
            series = tracer.counter_series(f"busy_frac_{lane}")
            assert series
            assert all(0.0 <= v <= 1.0 + 1e-9 for _, v in series)

    def test_registry_mirrors_the_report(self, traced_run):
        tracer, report, _ = traced_run
        counters = tracer.metrics.summary()["counters"]
        assert counters["iterations"] == report.n_iterations
        assert counters["completed"] == len(report.completed)
        assert counters["aborts"] == report.n_aborts
        assert counters["retries"] == report.n_retries
        assert tracer.metrics.histogram("latency_s").count == len(report.completed)
        merged = tracer.metrics.merge_into(report.to_dict())
        assert merged["telemetry"]["counters"]["iterations"] == report.n_iterations
