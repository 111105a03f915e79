"""Tests for static batching: the ``static`` policy of the serving loop.

Static batching admits only into an empty batch: a batch forms from the
requests waiting when the previous one has drained and runs closed until
its last member finishes.  FCFS is the same loop at ``max_batch=1``.
"""

import pytest

from repro.engine.powerinfer import PowerInferEngine
from repro.serving import ContinuousServer
from repro.serving.arrival import Request

# Ample budget: admission control never binds in these tests.
BUDGET = 256 * 2**20


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


def burst(n, input_len=16, output_len=32, gap=0.001):
    return [
        Request(request_id=i, arrival_time=gap * i, input_len=input_len, output_len=output_len)
        for i in range(n)
    ]


def static(engine, requests, max_batch=8):
    server = ContinuousServer(
        engine, policy="static", max_batch=max_batch, kv_budget_bytes=BUDGET
    )
    return server.run(requests)


def fcfs(engine, requests):
    return ContinuousServer(engine, max_batch=1, kv_budget_bytes=BUDGET).run(requests)


class TestBatchedServing:
    def test_all_requests_complete(self, engine):
        report = static(engine, burst(10), max_batch=4)
        assert report.n_requests == 10

    def test_batch_members_finish_together(self, engine):
        report = static(engine, burst(6), max_batch=8)
        finishes = sorted({round(m.finish_time, 9) for m in report.completed})
        # First request starts alone (nothing else has arrived); the other
        # five batch together on the second dispatch.
        assert len(finishes) <= 3

    def test_max_batch_respected(self, engine):
        report = static(engine, burst(9), max_batch=2)
        starts = [m.admit_time for m in report.completed]
        for start in set(starts):
            assert starts.count(start) <= 2

    def test_batching_beats_fcfs_on_makespan_under_burst(self, engine):
        requests = burst(12)
        # Union-activation batching amortizes weight reads: the burst
        # drains faster (Figure 14's throughput effect).
        assert static(engine, requests).makespan < fcfs(engine, requests).makespan

    def test_no_queue_degenerates_to_fcfs(self, engine):
        spaced = [
            Request(request_id=i, arrival_time=100.0 * i, input_len=16, output_len=32)
            for i in range(3)
        ]
        batched = static(engine, spaced)
        single = fcfs(engine, spaced)
        assert batched.makespan == pytest.approx(single.makespan, rel=1e-6)

    def test_never_admits_into_running_batch(self, engine):
        # Request 2 arrives while the first batch still runs: it waits for
        # the batch to drain, even though a slot frees up when the short
        # member finishes.
        requests = [
            Request(request_id=0, arrival_time=0.0, input_len=8, output_len=8),
            Request(request_id=1, arrival_time=0.0, input_len=32, output_len=64),
            Request(request_id=2, arrival_time=0.001, input_len=8, output_len=8),
        ]
        report = static(engine, requests, max_batch=2)
        short, long_, late = report.completed
        assert short.admit_time == long_.admit_time == 0.0
        assert short.finish_time < long_.finish_time
        assert late.admit_time == pytest.approx(long_.finish_time)

    def test_invalid_max_batch(self, engine):
        with pytest.raises(ValueError):
            ContinuousServer(engine, policy="static", max_batch=0, kv_budget_bytes=BUDGET)

    def test_max_batch_one_matches_fcfs_exactly(self, engine):
        requests = burst(6, gap=0.01) + [
            Request(request_id=6, arrival_time=10.0, input_len=32, output_len=8)
        ]
        single = fcfs(engine, requests)
        batched = static(engine, requests, max_batch=1)
        for a, b in zip(single.completed, batched.completed):
            assert b.admit_time == pytest.approx(a.admit_time, abs=1e-12)
            assert b.finish_time == pytest.approx(a.finish_time, abs=1e-12)

    def test_empty_request_list(self, engine):
        report = static(engine, [], max_batch=4)
        assert report.n_requests == 0
        assert report.makespan == 0.0
        assert report.utilization == 0.0

    def test_utilization_never_exceeds_one(self, engine):
        # 8 requests dispatched as one batch: utilization counts the busy
        # interval once, not 8 times.
        simultaneous = [
            Request(request_id=i, arrival_time=0.0, input_len=16, output_len=32)
            for i in range(8)
        ]
        report = static(engine, simultaneous, max_batch=8)
        assert 0.0 < report.utilization <= 1.0 + 1e-9
