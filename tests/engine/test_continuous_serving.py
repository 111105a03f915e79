"""Tests for the continuous-batching server, policies, and KV admission."""

import pytest

from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.memory import OutOfMemoryError
from repro.serving import (
    ChunkedPrefillPolicy,
    ContinuousServer,
    Request,
    make_policy,
)
from repro.serving.continuous import IterationCostCache


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


# Ample budget: admission control never binds unless a test narrows it.
BUDGET = 256 * 2**20


def burst(n, input_len=16, output_len=32, gap=0.001):
    return [
        Request(request_id=i, arrival_time=gap * i, input_len=input_len, output_len=output_len)
        for i in range(n)
    ]


class TestKvFootprintHelpers:
    def test_request_kv_bytes_arithmetic(self, engine):
        per_token = engine.kv_bytes_per_token()
        assert per_token > 0
        assert engine.request_kv_bytes(16, 32) == pytest.approx(48 * per_token)

    def test_request_kv_bytes_validation(self, engine):
        with pytest.raises(ValueError):
            engine.request_kv_bytes(0, 32)
        with pytest.raises(ValueError):
            engine.request_kv_bytes(16, 0)

    def test_kv_budget_non_negative_and_bounded(self, engine):
        budget = engine.kv_budget_bytes()
        assert 0.0 <= budget <= engine.machine.gpu.memory_capacity


class TestContinuousServing:
    def test_all_requests_complete_with_all_tokens(self, engine):
        report = ContinuousServer(
            engine, max_batch=4, kv_budget_bytes=BUDGET
        ).run(burst(10))
        assert report.n_requests == 10
        for metrics in report.completed:
            assert metrics.n_tokens == metrics.request.output_len
            assert list(metrics.token_times) == sorted(metrics.token_times)
            assert metrics.ttft > 0
            assert metrics.latency >= metrics.ttft

    def test_empty_request_list(self, engine):
        report = ContinuousServer(engine, kv_budget_bytes=BUDGET).run([])
        assert report.n_requests == 0
        assert report.makespan == 0.0
        assert report.utilization == 0.0
        assert report.tokens_per_second == 0.0
        with pytest.raises(ValueError):
            report.latency_percentile(50)

    def test_capacity_one_degenerates_to_fcfs(self, engine):
        requests = burst(5, gap=0.002)
        # Independent whole-request FCFS reference: each request starts
        # when it has arrived and the previous one has finished, and takes
        # the engine's end-to-end request time.
        fcfs_makespan = 0.0
        for r in requests:
            start = max(r.arrival_time, fcfs_makespan)
            fcfs_makespan = (
                start + engine.simulate_request(r.input_len, r.output_len).total_time
            )
        cont = ContinuousServer(
            engine, max_batch=1, kv_budget_bytes=BUDGET, ctx_bucket=1
        ).run(requests)
        # One request at a time, in arrival order, with no overlap.
        order = [m.request.request_id for m in sorted(cont.completed, key=lambda m: m.finish_time)]
        assert order == [r.request_id for r in requests]
        spans = sorted(cont.busy_intervals)
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 >= e0 - 1e-12
        # Aggregate timing matches the whole-request FCFS reference (the
        # only differences are decode-context sampling vs exact summation
        # and the prefill step emitting token one).
        assert cont.makespan == pytest.approx(fcfs_makespan, rel=0.05)

    def test_simultaneous_arrivals_served_in_arrival_order(self, engine):
        requests = [
            Request(request_id=i, arrival_time=0.0, input_len=16, output_len=16)
            for i in range(6)
        ]
        report = ContinuousServer(
            engine, max_batch=2, kv_budget_bytes=BUDGET
        ).run(requests)
        first_tokens = [m.first_token_time for m in report.completed]
        # request_id order == submission order; earlier requests must not
        # see their first token after later ones.
        assert first_tokens == sorted(first_tokens)

    def test_requests_leave_batch_at_last_token(self, engine):
        # A short and a long request admitted together: the short one must
        # finish first instead of waiting for the batch (the static-batching
        # pathology this subsystem removes).
        requests = [
            Request(request_id=0, arrival_time=0.0, input_len=16, output_len=8),
            Request(request_id=1, arrival_time=0.0, input_len=16, output_len=64),
        ]
        report = ContinuousServer(
            engine, max_batch=2, kv_budget_bytes=BUDGET
        ).run(requests)
        short, long_ = report.completed
        assert short.finish_time < long_.finish_time

    def test_continuous_beats_static_on_mean_latency(self, engine):
        requests = [
            Request(request_id=i, arrival_time=0.001 * i, input_len=16,
                    output_len=64 if i % 2 else 8)
            for i in range(12)
        ]
        static = ContinuousServer(
            engine, policy="static", max_batch=4, kv_budget_bytes=BUDGET
        ).run(requests)
        cont = ContinuousServer(
            engine, max_batch=4, kv_budget_bytes=BUDGET
        ).run(requests)
        assert cont.mean_latency < static.mean_latency
        assert cont.tokens_per_second >= static.tokens_per_second

    def test_utilization_at_most_one(self, engine):
        report = ContinuousServer(
            engine, max_batch=8, kv_budget_bytes=BUDGET
        ).run(burst(8))
        assert 0.0 < report.utilization <= 1.0 + 1e-9

    def test_invalid_parameters(self, engine):
        with pytest.raises(ValueError):
            ContinuousServer(engine, max_batch=0, kv_budget_bytes=BUDGET)
        with pytest.raises(ValueError):
            ContinuousServer(engine, kv_budget_bytes=-1.0)
        with pytest.raises(KeyError):
            make_policy("not-a-policy")


class TestAdmissionControl:
    def test_peak_kv_never_exceeds_budget(self, engine):
        budget = 3 * engine.request_kv_bytes(16, 32)
        report = ContinuousServer(
            engine, max_batch=8, kv_budget_bytes=budget
        ).run(burst(9))
        assert report.n_requests == 9
        assert report.peak_kv_bytes <= report.kv_budget_bytes + 1e-6
        assert report.peak_kv_bytes > 0

    def test_budget_caps_concurrency(self, engine):
        # Budget for exactly 2 requests: no instant may hold 3 in flight.
        budget = 2 * engine.request_kv_bytes(16, 32)
        report = ContinuousServer(
            engine, max_batch=8, kv_budget_bytes=budget
        ).run(burst(6))
        events = []
        for m in report.completed:
            events.append((m.admit_time, 1))
            events.append((m.finish_time, -1))
        in_flight = 0
        for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
            in_flight += delta
            assert in_flight <= 2

    def test_queue_on_full_delays_admission_in_order(self, engine):
        budget = engine.request_kv_bytes(16, 32)  # one request at a time
        report = ContinuousServer(
            engine, max_batch=8, kv_budget_bytes=budget
        ).run(burst(4))
        admits = [m.admit_time for m in report.completed]
        assert admits == sorted(admits)
        # Later arrivals waited for a KV slot, not just for their arrival.
        assert report.completed[-1].queue_delay > 0

    def test_oversized_request_raises(self, engine):
        budget = engine.request_kv_bytes(16, 32) * 0.5
        with pytest.raises(OutOfMemoryError):
            ContinuousServer(engine, kv_budget_bytes=budget).run(burst(1))


class TestSchedulerPolicies:
    def test_chunked_prefill_protects_decode_tbt(self, engine):
        # A decoding request (A) is joined mid-stream by a long prompt (B).
        # Under FCFS-join, B's whole prompt runs in one iteration and stalls
        # A; chunked prefill bounds A's worst inter-token gap.
        requests = [
            Request(request_id=0, arrival_time=0.0, input_len=16, output_len=64),
            Request(request_id=1, arrival_time=0.05, input_len=96, output_len=8),
        ]
        fcfs = ContinuousServer(
            engine, policy="fcfs", max_batch=2, kv_budget_bytes=BUDGET
        ).run(requests)
        chunked = ContinuousServer(
            engine,
            policy=make_policy("chunked", max_prefill_tokens=16),
            max_batch=2,
            kv_budget_bytes=BUDGET,
        ).run(requests)
        a_fcfs = next(m for m in fcfs.completed if m.request.request_id == 0)
        a_chunked = next(m for m in chunked.completed if m.request.request_id == 0)
        assert a_chunked.max_tbt < a_fcfs.max_tbt

    def test_chunked_prefill_caps_iteration_prompt_tokens(self, engine):
        policy = ChunkedPrefillPolicy(max_prefill_tokens=8)
        server = ContinuousServer(
            engine, policy=policy, max_batch=2, kv_budget_bytes=BUDGET
        )
        report = server.run(burst(2, input_len=32, output_len=4))
        # 64 prompt tokens at <= 8/iteration need >= 8 prefill iterations.
        assert report.n_iterations >= 8

    def test_prefill_priority_lowers_joiner_ttft(self, engine):
        requests = [
            Request(request_id=0, arrival_time=0.0, input_len=16, output_len=64),
            Request(request_id=1, arrival_time=0.05, input_len=64, output_len=8),
        ]
        fcfs = ContinuousServer(
            engine, policy="fcfs", max_batch=2, kv_budget_bytes=BUDGET
        ).run(requests)
        priority = ContinuousServer(
            engine, policy="prefill-first", max_batch=2, kv_budget_bytes=BUDGET
        ).run(requests)
        b_fcfs = next(m for m in fcfs.completed if m.request.request_id == 1)
        b_priority = next(m for m in priority.completed if m.request.request_id == 1)
        assert b_priority.ttft < b_fcfs.ttft

    def test_chunked_policy_validation(self):
        with pytest.raises(ValueError):
            ChunkedPrefillPolicy(max_prefill_tokens=0)


class TestIterationCostCache:
    def test_bucketing_bounds_engine_calls(self, engine):
        cache = IterationCostCache(engine, ctx_bucket=32)
        costs = {cache.cost(ctx, 1, 1) for ctx in range(49, 64)}
        assert len(cache) == 1  # all contexts round to the 64 bucket
        assert len(costs) == 1

    def test_cached_cost_matches_engine(self, engine):
        cache = IterationCostCache(engine, ctx_bucket=1)
        expected = engine.simulate_iteration(64, 1, 2).makespan
        assert cache.cost(64, 1, 2) == pytest.approx(expected)

    def test_invalid_bucket(self, engine):
        with pytest.raises(ValueError):
            IterationCostCache(engine, ctx_bucket=0)

    def test_invalid_queries_fail_loudly_and_cache_nothing(self, engine):
        cache = IterationCostCache(engine)
        with pytest.raises(ValueError, match="ctx_len"):
            cache.cost(-1, 1, 1)
        with pytest.raises(ValueError, match="n_tokens"):
            cache.cost(16, 0, 1)
        with pytest.raises(ValueError, match="batch"):
            cache.cost(16, 1, 0)
        assert len(cache) == 0
