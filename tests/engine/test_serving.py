"""Tests for arrivals and whole-request FCFS serving (``max_batch=1``)."""

import numpy as np
import pytest

from repro.engine.powerinfer import PowerInferEngine
from repro.serving import ContinuousReport, ContinuousServer
from repro.serving.arrival import Request, poisson_arrivals
from repro.workloads.prompts import CHATGPT_PROMPTS

# Ample budget: admission control never binds in these tests.
BUDGET = 256 * 2**20


class TestArrivals:
    def test_arrival_times_sorted_and_positive(self, rng):
        reqs = poisson_arrivals(CHATGPT_PROMPTS, rate=2.0, n_requests=50, rng=rng)
        times = [r.arrival_time for r in reqs]
        assert times == sorted(times)
        assert times[0] > 0

    def test_rate_controls_density(self, rng):
        slow = poisson_arrivals(
            CHATGPT_PROMPTS, rate=0.5, n_requests=200, rng=np.random.default_rng(1)
        )
        fast = poisson_arrivals(
            CHATGPT_PROMPTS, rate=5.0, n_requests=200, rng=np.random.default_rng(1)
        )
        assert fast[-1].arrival_time < slow[-1].arrival_time

    def test_output_mixture(self, rng):
        reqs = poisson_arrivals(
            CHATGPT_PROMPTS,
            rate=1.0,
            n_requests=300,
            rng=rng,
            output_lengths=(8, 128),
            output_weights=(0.5, 0.5),
        )
        outputs = {r.output_len for r in reqs}
        assert outputs == {8, 128}

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            poisson_arrivals(CHATGPT_PROMPTS, rate=0.0, n_requests=5, rng=rng)
        with pytest.raises(ValueError):
            poisson_arrivals(CHATGPT_PROMPTS, rate=1.0, n_requests=-1, rng=rng)
        with pytest.raises(ValueError):
            poisson_arrivals(
                CHATGPT_PROMPTS, 1.0, 5, rng, output_lengths=(8,), output_weights=(0.5, 0.5)
            )
        with pytest.raises(ValueError):
            poisson_arrivals(
                CHATGPT_PROMPTS, 1.0, 5, rng, output_lengths=(), output_weights=()
            )

    def test_zero_requests_yield_empty_stream(self, rng):
        assert poisson_arrivals(CHATGPT_PROMPTS, rate=1.0, n_requests=0, rng=rng) == []

    def test_weight_validation(self, rng):
        with pytest.raises(ValueError):
            poisson_arrivals(
                CHATGPT_PROMPTS, 1.0, 5, rng,
                output_lengths=(8, 128), output_weights=(0.5, -0.5),
            )
        with pytest.raises(ValueError):
            poisson_arrivals(
                CHATGPT_PROMPTS, 1.0, 5, rng,
                output_lengths=(8, 128), output_weights=(0.0, 0.0),
            )
        with pytest.raises(ValueError):
            poisson_arrivals(
                CHATGPT_PROMPTS, 1.0, 5, rng,
                output_lengths=(8, 128), output_weights=(float("nan"), 1.0),
            )
        with pytest.raises(ValueError):
            poisson_arrivals(
                CHATGPT_PROMPTS, 1.0, 5, rng,
                output_lengths=(0, 128), output_weights=(0.5, 0.5),
            )

    def test_unnormalized_weights_are_normalized(self):
        scaled = poisson_arrivals(
            CHATGPT_PROMPTS, 1.0, 100, np.random.default_rng(7),
            output_lengths=(8, 128), output_weights=(3.0, 3.0),
        )
        unit = poisson_arrivals(
            CHATGPT_PROMPTS, 1.0, 100, np.random.default_rng(7),
            output_lengths=(8, 128), output_weights=(0.5, 0.5),
        )
        assert scaled == unit


class TestServing:
    """FCFS is the serving loop with one request in flight at a time."""

    @pytest.fixture(scope="class")
    def engine(self, mini_plan):
        return PowerInferEngine(mini_plan)

    @staticmethod
    def serve(engine, requests):
        return ContinuousServer(engine, max_batch=1, kv_budget_bytes=BUDGET).run(
            requests
        )

    def test_fcfs_no_overlap(self, engine, rng):
        reqs = poisson_arrivals(CHATGPT_PROMPTS, rate=50.0, n_requests=10, rng=rng)
        report = self.serve(engine, reqs)
        done = sorted(report.completed, key=lambda m: m.admit_time)
        for a, b in zip(done, done[1:]):
            assert b.admit_time >= a.finish_time - 1e-9

    def test_latency_at_least_service_time(self, engine, rng):
        reqs = poisson_arrivals(CHATGPT_PROMPTS, rate=5.0, n_requests=10, rng=rng)
        report = self.serve(engine, reqs)
        for m in report.completed:
            assert m.latency >= m.finish_time - m.admit_time - 1e-12
            assert m.queue_delay >= 0

    def test_overload_builds_queue(self, engine):
        # Back-to-back arrivals: queueing delay must grow with position.
        reqs = [
            Request(request_id=i, arrival_time=0.001 * i, input_len=16, output_len=32)
            for i in range(6)
        ]
        report = self.serve(engine, reqs)
        delays = [m.queue_delay for m in report.completed]
        assert delays[-1] > delays[0]
        assert report.utilization > 0.9

    def test_light_load_has_no_queueing(self, engine):
        reqs = [
            Request(request_id=i, arrival_time=100.0 * i, input_len=16, output_len=32)
            for i in range(3)
        ]
        report = self.serve(engine, reqs)
        assert report.mean_queue_delay == pytest.approx(0.0)
        assert report.utilization < 0.1

    def test_report_statistics(self, engine, rng):
        reqs = poisson_arrivals(CHATGPT_PROMPTS, rate=2.0, n_requests=12, rng=rng)
        report = self.serve(engine, reqs)
        assert report.n_requests == 12
        assert report.throughput_rps > 0
        assert report.tokens_per_second > 0
        p50 = report.latency_percentile(50)
        p95 = report.latency_percentile(95)
        assert p95 >= p50

    def test_empty_report_guards(self):
        report = ContinuousReport()
        assert report.throughput_rps == 0.0
        with pytest.raises(ValueError):
            report.latency_percentile(50)

    def test_empty_request_list(self, engine):
        report = self.serve(engine, [])
        assert report.n_requests == 0
        assert report.makespan == 0.0
        assert report.utilization == 0.0
        assert report.mean_queue_delay == 0.0

    def test_simultaneous_arrivals_fcfs_order(self, engine):
        reqs = [
            Request(request_id=i, arrival_time=0.0, input_len=16, output_len=8)
            for i in range(4)
        ]
        report = self.serve(engine, reqs)
        starts = [
            m.admit_time
            for m in sorted(report.completed, key=lambda m: m.request.request_id)
        ]
        assert starts == sorted(starts)
