"""Tracer threading: every simulation path records spans, none pay for it.

PR contract: passing ``tracer=None`` (default), a ``NullTracer``, or a
real ``Tracer`` must yield bit-identical simulation results — tracing is
observation, never perturbation — and the paths that used to drop the
parameter (request integration, static batching, speculative decoding)
now record complete timelines.
"""

import pytest

from repro.engine.baselines import LlamaCppEngine
from repro.engine.powerinfer import PowerInferEngine
from repro.engine.speculative import SpeculativeEngine
from repro.serving import ContinuousServer
from repro.serving.arrival import Request
from repro.telemetry.tracer import NullTracer, Tracer


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


def _request_fields(result):
    return (result.prompt_time, result.decode_time, result.breakdown)


class TestSimulateRequest:
    def test_bit_identity_across_tracers(self, engine):
        untraced = engine.simulate_request(16, 8)
        null = NullTracer()
        with_null = engine.simulate_request(16, 8, tracer=null)
        real = Tracer()
        with_real = engine.simulate_request(16, 8, tracer=real, trace_t0=5.0)
        assert _request_fields(untraced) == _request_fields(with_null)
        assert _request_fields(untraced) == _request_fields(with_real)
        assert len(null) == 0

    def test_sampled_timeline_recorded(self, engine):
        tracer = Tracer()
        engine.simulate_request(16, 8, tracer=tracer, trace_t0=2.0)
        iterations = {s.iteration for s in tracer.task_spans}
        assert 0 in iterations, "prompt iteration must be labelled 0"
        assert len(iterations) > 1, "decode samples must be recorded too"
        assert min(s.start for s in tracer.task_spans) == 2.0
        # Back-to-back: each iteration starts where the previous ended.
        spans = tracer.task_spans
        for it in sorted(iterations)[1:]:
            prev_end = max(s.end for s in spans if s.iteration == it - 1)
            this_start = min(s.start for s in spans if s.iteration == it)
            assert this_start == pytest.approx(prev_end, rel=1e-12)


class TestBatchedServing:
    """Static batching (the ``static`` policy) through the serving loop."""

    def _requests(self):
        # Two windows with identical shape: the second is priced from the
        # iteration cost cache.
        return [
            Request(request_id=0, arrival_time=0.0, input_len=16, output_len=8),
            Request(request_id=1, arrival_time=1000.0, input_len=16, output_len=8),
        ]

    def _serve(self, engine, tracer):
        server = ContinuousServer(
            engine, policy="static", kv_budget_bytes=256 * 2**20, tracer=tracer
        )
        return server.run(self._requests())

    def test_bit_identity_across_tracers(self, engine):
        reports = [
            self._serve(engine, tracer) for tracer in (None, NullTracer(), Tracer())
        ]
        finish = [
            [(m.request.request_id, m.admit_time, m.token_times) for m in r.completed]
            for r in reports
        ]
        assert finish[0] == finish[1] == finish[2]
        assert reports[0].busy_intervals == reports[2].busy_intervals

    def test_cache_hit_window_still_traced(self, engine):
        tracer = Tracer()
        report = self._serve(engine, tracer)
        windows = tracer.regions_on("server")
        assert len(windows) == report.n_iterations
        assert all(w.name == "iteration" for w in windows)
        # The second request's iterations are cache hits, but their spans
        # are still there.
        second = report.completed[1]
        assert any(s.start >= second.admit_time for s in tracer.task_spans)

    def test_null_tracer_records_nothing(self, engine):
        null = NullTracer()
        self._serve(engine, null)
        assert len(null) == 0

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_each_distinct_iteration_priced_once(self, mini_plan, traced):
        engine = PowerInferEngine(mini_plan)
        priced = []
        price = engine.price_iteration

        def spy(*args, **kwargs):
            priced.append(args)
            return price(*args, **kwargs)

        engine.price_iteration = spy
        server = ContinuousServer(
            engine,
            policy="static",
            kv_budget_bytes=256 * 2**20,
            tracer=Tracer() if traced else None,
        )
        server.run(self._requests())
        assert len(priced) == len(server.costs) > 0
        # A traced session replays the schedules its misses priced; an
        # untraced one keeps makespans only.
        assert len(server.costs._schedules) == (len(server.costs) if traced else 0)


class TestSpeculative:
    @pytest.fixture(scope="class")
    def spec(self, mini_plan, mini_plan_none):
        return SpeculativeEngine(
            target=PowerInferEngine(mini_plan),
            draft=LlamaCppEngine(mini_plan_none),
            draft_len=3,
            acceptance_rate=0.8,
        )

    def test_round_time_bit_identity(self, spec):
        untraced = spec.round_time(32)
        assert spec.round_time(32, tracer=NullTracer()) == untraced
        tracer = Tracer()
        assert spec.round_time(32, tracer=tracer, trace_t0=1.0) == untraced
        assert tracer.task_spans

    def test_request_bit_identity(self, spec):
        untraced = spec.simulate_request(16, 8)
        with_null = spec.simulate_request(16, 8, tracer=NullTracer())
        real = Tracer()
        with_real = spec.simulate_request(16, 8, tracer=real)
        assert _request_fields(untraced) == _request_fields(with_null)
        assert _request_fields(untraced) == _request_fields(with_real)
        assert {s.iteration for s in real.task_spans} >= {0}
