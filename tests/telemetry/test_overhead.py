"""The telemetry layer must be free when no tracer is attached.

Two guarantees: (1) results are *bit-identical* with ``tracer=None``, a
``NullTracer``, or no tracer argument at all; (2) the ``is None`` guard in
``simulate_iteration`` costs less than 2% of an iteration simulation,
measured against the raw simulator path with no wrapper at all.
"""

import time

import pytest

from repro.engine.base import RESOURCES
from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.events import EventSimulator
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.telemetry import NullTracer, Tracer

OVERHEAD_BOUND = 1.02
ATTEMPTS = 5
SAMPLES = 40


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


class TestBitIdentical:
    def test_default_none_and_null_tracer_agree_exactly(self, engine):
        base = engine.simulate_iteration(64, 4, 2)
        with_none = engine.simulate_iteration(64, 4, 2, tracer=None)
        with_null = engine.simulate_iteration(64, 4, 2, tracer=NullTracer())
        assert base == with_none == with_null

    def test_traced_run_returns_the_same_schedule(self, engine):
        tracer = Tracer()
        base = engine.simulate_iteration(64, 4, 2)
        traced = engine.simulate_iteration(64, 4, 2, tracer=tracer, trace_t0=5.0)
        assert traced == base
        assert len(tracer.task_spans) == len(base.tasks)
        assert min(s.start for s in tracer.task_spans) >= 5.0

    def test_faulted_iteration_traces_at_t0(self, engine):
        faults = FaultSchedule(
            [FaultEvent(FaultKind.PCIE_DEGRADE, start=0.0, duration=10.0, magnitude=4.0)]
        )
        tracer = Tracer()
        result = engine.simulate_iteration(
            64,
            1,
            1,
            machine=faults.perturbed_machine(engine.machine, 2.5),
            tracer=tracer,
            trace_t0=2.5,
        )
        assert len(tracer.task_spans) == len(result.tasks)
        assert min(s.start for s in tracer.task_spans) >= 2.5


class TestOverhead:
    def _min_time(self, fn):
        """Minimum single-call wall time over SAMPLES calls (noise floor)."""
        best = float("inf")
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def test_untraced_wrapper_overhead_below_two_percent(self, engine):
        """simulate_iteration (guard included) vs. the raw simulator path.

        Min-of-many timing with bounded retries: scheduler jitter can push
        any single attempt over the bound, but the minimum is stable, so
        one clean attempt out of five is conclusive — while a systematic
        regression (e.g. eager span construction on the untraced path)
        fails all five.
        """

        def wrapped():
            engine.simulate_iteration(64, 1, 2)

        def raw():
            EventSimulator(list(RESOURCES)).run(
                engine.iteration_tasks(engine.machine, 64, 1, 2)
            )

        wrapped()  # warm caches before timing
        raw()
        ratios = []
        for _ in range(ATTEMPTS):
            t_raw = self._min_time(raw)
            t_wrapped = self._min_time(wrapped)
            ratios.append(t_wrapped / t_raw)
            if ratios[-1] < OVERHEAD_BOUND:
                return
        pytest.fail(
            f"untraced simulate_iteration exceeded {OVERHEAD_BOUND:.0%} of the "
            f"raw simulator path in all {ATTEMPTS} attempts: ratios {ratios}"
        )
