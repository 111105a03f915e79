"""End-to-end tests of the opt-in ``validate=True`` hooks and verify suite.

Two properties matter: validation must *pass* on everything the simulator
actually produces (engines and the continuous server are invariant-clean),
and turning it on must not change a single simulated number — the hooks
observe, they never steer.
"""

import numpy as np
import pytest

from repro.check.verify import ITERATION_POINTS, SERVING_N_REQUESTS
from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.serving import ContinuousServer
from repro.serving.arrival import Request
from repro.telemetry.tracer import Tracer


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


BUDGET = 256 * 2**20


def burst(n, input_len=16, output_len=32, gap=0.001):
    return [
        Request(request_id=i, arrival_time=gap * i, input_len=input_len, output_len=output_len)
        for i in range(n)
    ]


def report_fingerprint(report):
    return (
        report.makespan,
        report.n_iterations,
        report.peak_kv_bytes,
        tuple(report.busy_intervals),
        tuple((m.request.request_id, tuple(m.token_times)) for m in report.completed),
    )


class TestEngineValidateHook:
    @pytest.mark.parametrize(
        "ctx_len,n_tokens,batch",
        [point[1:] for point in ITERATION_POINTS],
        ids=[point[0] for point in ITERATION_POINTS],
    )
    def test_engine_schedules_are_invariant_clean(self, engine, ctx_len, n_tokens, batch):
        engine.simulate_iteration(ctx_len, n_tokens, batch=batch, validate=True)

    def test_validation_does_not_change_the_schedule(self, engine):
        plain = engine.simulate_iteration(128, 1, batch=2)
        checked = engine.simulate_iteration(128, 1, batch=2, validate=True)
        assert checked.makespan == plain.makespan
        assert {n: (t.start, t.end) for n, t in checked.tasks.items()} == {
            n: (t.start, t.end) for n, t in plain.tasks.items()
        }

    def test_faulted_iteration_validates(self, engine):
        faults = FaultSchedule(
            [FaultEvent(FaultKind.PCIE_DEGRADE, start=0.0, duration=10.0, magnitude=4.0)]
        )
        engine.simulate_iteration(
            128, 1, machine=faults.perturbed_machine(engine.machine, 1.0), validate=True
        )


class TestServerValidateHook:
    def test_clean_run_passes_and_populates_ledger(self, engine):
        plain = ContinuousServer(
            engine, max_batch=4, kv_budget_bytes=BUDGET
        ).run(burst(8))
        checked = ContinuousServer(
            engine, max_batch=4, kv_budget_bytes=BUDGET, validate=True
        ).run(burst(8))
        assert report_fingerprint(checked) == report_fingerprint(plain)

    def test_ledger_only_recorded_when_validating(self, engine):
        server = ContinuousServer(
            engine, max_batch=4, kv_budget_bytes=BUDGET, validate=True
        )
        server.run(burst(6))
        assert server.last_kv_ledger, "validated run must record KV events"
        allocs = [ev for ev in server.last_kv_ledger if ev.op == "alloc"]
        frees = [ev for ev in server.last_kv_ledger if ev.op == "free"]
        assert len(allocs) == 6
        assert len(frees) == 6

        untracked = ContinuousServer(engine, max_batch=4, kv_budget_bytes=BUDGET)
        untracked.run(burst(6))
        assert untracked.last_kv_ledger == []

    def test_faulted_traced_run_validates(self, engine):
        faults = FaultSchedule(
            [
                FaultEvent(FaultKind.DEVICE_STALL, start=0.05, duration=0.02),
                FaultEvent(FaultKind.KV_SHRINK, start=0.1, duration=0.2, magnitude=0.5),
            ]
        )
        report = ContinuousServer(
            engine,
            max_batch=4,
            kv_budget_bytes=BUDGET,
            faults=faults,
            max_retries=2,
            tracer=Tracer(),
            validate=True,
        ).run(burst(8))
        assert report.n_iterations > 0


class TestVerifySuite:
    def test_grid_constants(self):
        kinds = [k for k, *_ in ITERATION_POINTS]
        assert kinds == ["prompt", "decode", "batched-decode"]
        assert SERVING_N_REQUESTS["quick"] < SERVING_N_REQUESTS["full"]

    def test_quick_suite_passes(self):
        from repro.check.verify import run_verification

        doc = run_verification(quick=True)
        assert doc["ok"] is True
        assert doc["n_violations"] == 0
        assert doc["n_cases"] >= 3
        statuses = {c["status"] for c in doc["cases"]}
        assert statuses <= {"ok", "skipped"}
