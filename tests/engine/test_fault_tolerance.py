"""Tests for fault injection, deadlines, retries, shedding, and degradation.

Timescales reference the mini engine: one 16-token prefill iteration costs
~6 ms, one decode step ~1.7 ms, a (16 in, 32 out) request ~60 ms end to
end, and its KV reservation is 3 MiB.
"""

import pytest

from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.serving import ContinuousServer, Request
from repro.serving.continuous import RETRY_BACKOFF_S, IterationCostCache

BUDGET = 256 * 2**20


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


def burst(n, input_len=16, output_len=32, gap=0.001, deadline=None):
    return [
        Request(request_id=i, arrival_time=gap * i, input_len=input_len,
                output_len=output_len, deadline=deadline)
        for i in range(n)
    ]


def throttle(start, duration, magnitude=4.0):
    return FaultEvent(FaultKind.GPU_THROTTLE, start=start, duration=duration,
                      magnitude=magnitude)


class TestFaultAwareCosts:
    def test_cost_rises_inside_fault_window(self, engine):
        faults = FaultSchedule([throttle(1.0, 1.0)])
        cache = IterationCostCache(engine, faults=faults)
        assert cache.cost(16, 1, 1, now=1.5) > cache.cost(16, 1, 1, now=0.5)

    def test_cache_keys_carry_the_epoch(self, engine):
        faults = FaultSchedule([throttle(1.0, 1.0)])
        cache = IterationCostCache(engine, faults=faults)
        cache.cost(16, 1, 1, now=0.0)
        cache.cost(16, 1, 1, now=0.5)  # same epoch: cache hit
        assert len(cache) == 1
        cache.cost(16, 1, 1, now=1.5)  # inside the window: new epoch
        assert len(cache) == 2

    def test_cost_recovers_past_the_horizon(self, engine):
        faults = FaultSchedule([throttle(1.0, 1.0)])
        faulty = IterationCostCache(engine, faults=faults)
        pristine = IterationCostCache(engine)
        assert faulty.cost(16, 1, 1, now=5.0) == pytest.approx(
            pristine.cost(16, 1, 1)
        )


class TestDeadlines:
    def test_timeout_releases_kv_and_skips_percentiles(self, engine):
        # req 0 reserves the whole budget and cannot finish 512 tokens in
        # 20 ms; req 1 fits only after req 0's reservation is released.
        requests = [
            Request(request_id=0, arrival_time=0.0, input_len=16, output_len=512,
                    deadline=0.02),
            Request(request_id=1, arrival_time=0.001, input_len=16, output_len=16),
        ]
        budget = engine.request_kv_bytes(16, 512)
        report = ContinuousServer(engine, kv_budget_bytes=budget).run(requests)
        assert [r.request_id for r in report.timed_out] == [0]
        assert [m.request.request_id for m in report.completed] == [1]
        assert report.n_submitted == 2
        # The cancelled request never pollutes the completed percentiles.
        survivor = report.completed[0]
        assert report.latency_percentile(100) == pytest.approx(survivor.latency)
        assert report.deadline_miss_rate == pytest.approx(0.5)

    def test_waiting_request_can_time_out_in_queue(self, engine):
        requests = [
            Request(request_id=0, arrival_time=0.0, input_len=16, output_len=256),
            Request(request_id=1, arrival_time=0.001, input_len=16, output_len=8,
                    deadline=0.01),
        ]
        report = ContinuousServer(
            engine, max_batch=1, kv_budget_bytes=BUDGET
        ).run(requests)
        assert [r.request_id for r in report.timed_out] == [1]
        assert [m.request.request_id for m in report.completed] == [0]

    def test_server_default_deadline_and_per_request_override(self, engine):
        requests = [
            # Overrides the generous server default with a hopeless one.
            Request(request_id=0, arrival_time=0.0, input_len=16, output_len=512,
                    deadline=0.01),
            Request(request_id=1, arrival_time=0.0, input_len=16, output_len=16),
        ]
        report = ContinuousServer(
            engine, kv_budget_bytes=BUDGET, deadline=30.0
        ).run(requests)
        assert [r.request_id for r in report.timed_out] == [0]
        assert [m.request.request_id for m in report.completed] == [1]

    def test_no_deadline_means_no_timeouts(self, engine):
        report = ContinuousServer(engine, kv_budget_bytes=BUDGET).run(burst(4))
        assert not report.timed_out
        assert report.n_requests == 4


class TestStallsAndRetries:
    STALL = FaultEvent(FaultKind.DEVICE_STALL, start=0.003, duration=0.003)

    def test_stall_aborts_then_retry_completes(self, engine):
        faults = FaultSchedule([self.STALL])  # inside the first prefill
        report = ContinuousServer(
            engine,
            kv_budget_bytes=BUDGET,
            faults=faults,
            max_retries=2,
        ).run(burst(1))
        assert report.n_aborts == 1
        assert report.n_retries == 1
        assert not report.failed
        assert report.n_requests == 1
        # Re-admitted only after the stall cleared plus the backoff.
        assert report.completed[0].admit_time >= self.STALL.end + RETRY_BACKOFF_S
        # No iteration span crosses the stall window's interior.
        for start, end in report.busy_intervals:
            assert end <= self.STALL.start + 1e-12 or start >= self.STALL.end - 1e-12

    def test_retry_exhaustion_marks_failed(self, engine):
        faults = FaultSchedule([self.STALL])
        report = ContinuousServer(
            engine, kv_budget_bytes=BUDGET, faults=faults, max_retries=0
        ).run(burst(1))
        assert report.n_aborts == 1
        assert report.n_retries == 0
        assert [r.request_id for r in report.failed] == [0]
        assert not report.completed
        assert report.n_submitted == 1

    def test_backoff_grows_exponentially(self, engine):
        # Two stalls hit the same request's first and second attempts; the
        # second retry must wait twice the base backoff.
        first_retry = self.STALL.end + RETRY_BACKOFF_S  # 0.006 + 0.05 = 0.056
        second = FaultEvent(
            FaultKind.DEVICE_STALL, start=first_retry + 0.0045, duration=0.003
        )  # inside the retried first prefill
        report = ContinuousServer(
            engine,
            kv_budget_bytes=BUDGET,
            faults=FaultSchedule([self.STALL, second]),
            max_retries=3,
        ).run(burst(1))
        assert report.n_aborts == 2
        assert report.completed[0].admit_time >= second.end + 2 * RETRY_BACKOFF_S

    def test_stall_while_idle_delays_without_aborts(self, engine):
        faults = FaultSchedule(
            [FaultEvent(FaultKind.DEVICE_STALL, start=9.9, duration=0.6)]
        )
        requests = [
            Request(request_id=0, arrival_time=10.0, input_len=16, output_len=8)
        ]
        report = ContinuousServer(
            engine, kv_budget_bytes=BUDGET, faults=faults
        ).run(requests)
        assert report.n_aborts == 0
        # Arrived mid-stall: service waits for the window to clear.
        assert report.completed[0].ttft >= 0.5


class TestLoadShedding:
    def test_queue_bound_sheds_excess_arrivals(self, engine):
        report = ContinuousServer(
            engine,
            max_batch=1,
            kv_budget_bytes=engine.request_kv_bytes(16, 32),
            max_queue=2,
        ).run(burst(6, gap=0.0))
        assert len(report.shed) == 4
        assert report.n_requests == 2
        assert report.n_submitted == 6
        assert report.shed_rate == pytest.approx(4 / 6)
        # Shed requests never held KV.
        assert report.peak_kv_bytes <= report.kv_budget_bytes + 1e-6

    def test_unbounded_queue_sheds_nothing(self, engine):
        report = ContinuousServer(
            engine, max_batch=1, kv_budget_bytes=engine.request_kv_bytes(16, 32)
        ).run(burst(6, gap=0.0))
        assert not report.shed
        assert report.n_requests == 6


class TestKvShrinkDegradation:
    FAULTS = FaultSchedule(
        [FaultEvent(FaultKind.KV_SHRINK, start=0.0, duration=5.0, magnitude=0.1)]
    )

    def run(self, engine, degradation):
        return ContinuousServer(
            engine,
            kv_budget_bytes=2 * engine.request_kv_bytes(16, 32),
            faults=self.FAULTS,
            deadline=1.0,
            degradation=degradation,
        ).run(burst(4))

    def test_naive_starves_degraded_replans(self, engine):
        naive = self.run(engine, degradation=False)
        degraded = self.run(engine, degradation=True)
        # 10% of a two-request budget fits nothing: the naive server waits
        # out the 5 s window and every 1 s deadline expires.
        assert len(naive.timed_out) == 4
        assert not naive.completed
        # Demoting hot neurons buys the budget back: all served, slower.
        assert degraded.n_requests == 4
        assert not degraded.timed_out
        assert degraded.time_in_degraded_mode > 0.0
        assert naive.time_in_degraded_mode == 0.0

    def test_degraded_run_is_deterministic(self, engine):
        assert self.run(engine, degradation=True) == self.run(
            engine, degradation=True
        )

    def test_replan_keeps_engine_settings(self, mini_plan):
        engine = PowerInferEngine(mini_plan, selective_sync=False)
        server = ContinuousServer(
            engine, kv_budget_bytes=2 * engine.request_kv_bytes(16, 32), faults=self.FAULTS
        )
        degraded, _, freed = server._degraded_runtime()
        assert freed > 0.0 and degraded.plan is not mini_plan
        assert degraded.selective_sync is False
        assert engine.plan is mini_plan  # the pristine engine is untouched
        # Priced exactly as a fresh engine with the same settings would be.
        same = PowerInferEngine(degraded.plan, selective_sync=False)
        assert (
            degraded.simulate_iteration(128, 1).makespan
            == same.simulate_iteration(128, 1).makespan
        )

    def test_with_gpu_bytes_freed_plan_properties(self, mini_plan):
        nbytes = 10 * 2**20
        smaller = mini_plan.with_gpu_bytes_freed(nbytes)
        assert smaller.gpu_weight_bytes <= mini_plan.gpu_weight_bytes - nbytes
        # The pristine plan is untouched (masks were copied)...
        assert mini_plan.with_gpu_bytes_freed(0) is mini_plan
        assert mini_plan.gpu_weight_bytes > smaller.gpu_weight_bytes
        # ...and demotion is idempotent in the masks' dtype/shape.
        for a, b in zip(smaller.mlp_gpu_masks, mini_plan.mlp_gpu_masks):
            assert a.shape == b.shape
            assert a.sum() <= b.sum()


class TestThroughputBrownout:
    FAULTS = FaultSchedule([throttle(0.0, 10.0, magnitude=4.0)])

    @staticmethod
    def peak_in_flight(report):
        events = []
        for m in report.completed:
            events.append((m.admit_time, 1))
            events.append((m.finish_time, -1))
        peak = in_flight = 0
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            in_flight += delta
            peak = max(peak, in_flight)
        return peak

    def test_batch_cap_engages_only_with_degradation(self, engine):
        # max_batch=4 caps the batch at max(1, 4 // 4) = 1 under faults.
        kwargs = dict(max_batch=4, kv_budget_bytes=BUDGET, faults=self.FAULTS)
        naive = ContinuousServer(
            engine, degradation=False, **kwargs
        ).run(burst(4, gap=0.0))
        capped = ContinuousServer(
            engine, degradation=True, **kwargs
        ).run(burst(4, gap=0.0))
        assert self.peak_in_flight(naive) > 1
        assert self.peak_in_flight(capped) == 1
        assert capped.time_in_degraded_mode > 0.0
        assert capped.time_in_degraded_mode <= capped.makespan + 1e-9
        assert naive.time_in_degraded_mode == 0.0


class TestDeterminismAndRecovery:
    def test_same_fault_seed_reproduces_the_report(self, engine):
        reports = []
        for _ in range(2):
            faults = FaultSchedule.from_seed(3, horizon=0.5, n_events=3)
            reports.append(
                ContinuousServer(
                    engine,
                    kv_budget_bytes=BUDGET,
                    faults=faults,
                    deadline=5.0,
                    max_retries=2,
                ).run(burst(8))
            )
        assert reports[0] == reports[1]

    def test_server_recovers_after_fault_window(self, engine):
        faults = FaultSchedule([throttle(0.0, 0.05, magnitude=8.0)])
        faulted = ContinuousServer(
            engine, kv_budget_bytes=BUDGET, faults=faults
        ).run(burst(6))
        clean = ContinuousServer(engine, kv_budget_bytes=BUDGET).run(burst(6))
        # Everything completes once the window passes — slower overall,
        # but with no residual effect on correctness.
        assert faulted.n_requests == 6
        assert not faulted.failed and not faulted.timed_out
        assert faulted.makespan > clean.makespan
