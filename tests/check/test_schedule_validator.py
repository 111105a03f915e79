"""Dynamic schedule-validator tests: clean schedules pass, seeded faults
are detected with precise task/time diagnostics.

The seeded-fault fixtures are the acceptance set from the issue: a
dependency-order race, an exclusive-device overlap, a KV double-free, and
a TaskCost component-sum mismatch — each must be reported with the
offending task id and simulated timestamp.
"""

import math

import pytest

from repro.check.schedule import (
    KVEvent,
    ScheduleValidationError,
    Violation,
    require_valid,
    validate_kv_ledger,
    validate_resource_chain,
    validate_schedule,
    validate_server_run,
)
from repro.hardware.costmodel import CostModel, OpWork
from repro.hardware.events import (
    EventSimulator,
    ScheduleResult,
    SimTask,
    TaskResult,
)
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.spec import PC_HIGH
from repro.serving.metrics import ContinuousReport


def run_dag(tasks):
    return EventSimulator(["gpu", "cpu", "pcie"]).run(tasks)


def diamond_tasks():
    return [
        SimTask("load", "pcie", 0.002),
        SimTask("gpu-a", "gpu", 0.001, deps=("load",)),
        SimTask("cpu-a", "cpu", 0.003, deps=("load",)),
        SimTask("merge", "gpu", 0.001, deps=("gpu-a", "cpu-a")),
    ]


def result_from(task_results, makespan=None, busy=None, tags=None):
    """Assemble a (possibly tampered) ScheduleResult from TaskResults."""
    by_name = {tr.name: tr for tr in task_results}
    if busy is None:
        busy = {}
        for tr in task_results:
            busy[tr.resource] = busy.get(tr.resource, 0.0) + tr.duration
    if makespan is None:
        makespan = max((tr.end for tr in task_results), default=0.0)
    if tags is None:
        tags = {}
        for tr in task_results:
            if tr.tag:
                tags[tr.tag] = tags.get(tr.tag, 0.0) + tr.duration
    return ScheduleResult(
        tasks=by_name, makespan=makespan, busy_time=busy, tag_time=tags
    )


class TestCleanSchedules:
    def test_simulated_diamond_is_valid(self):
        result = run_dag(diamond_tasks())
        assert validate_schedule(result) == []

    def test_deps_recorded_on_task_results(self):
        result = run_dag(diamond_tasks())
        assert result.tasks["merge"].deps == ("gpu-a", "cpu-a")
        assert result.tasks["load"].deps == ()

    def test_priced_tasks_validate_cost_contract(self):
        gpu = PC_HIGH.gpu
        cost = CostModel.op_cost(OpWork(flops=1e9, bytes_read=1e6), gpu, sync=1e-5)
        task = SimTask("op", "gpu", cost.duration, cost=cost)
        result = run_dag([task])
        assert validate_schedule(result) == []

    def test_empty_schedule_is_valid(self):
        assert validate_schedule(run_dag([])) == []


class TestSeededFaults:
    """The issue's intentional-fault fixtures, each caught with diagnostics."""

    def test_dependency_race_detected(self):
        # `child` starts at t=0.5 while its dependency finishes at t=1.0.
        tampered = result_from(
            [
                TaskResult("parent", "gpu", 0.0, 1.0),
                TaskResult("child", "cpu", 0.5, 1.5, deps=("parent",)),
            ]
        )
        violations = validate_schedule(tampered)
        assert [v.check for v in violations] == ["dependency-order"]
        v = violations[0]
        assert v.task == "child"
        assert v.time == pytest.approx(0.5)
        assert "'parent'" in v.message and "1" in v.message

    def test_device_overlap_detected(self):
        tampered = result_from(
            [
                TaskResult("first", "gpu", 0.0, 1.0),
                TaskResult("second", "gpu", 0.5, 1.5),
            ]
        )
        violations = validate_schedule(tampered)
        assert [v.check for v in violations] == ["device-overlap"]
        v = violations[0]
        assert v.task == "second"
        assert v.time == pytest.approx(0.5)
        assert "'first'" in v.message and "gpu" in v.message

    def test_kv_double_free_detected(self):
        ledger = [
            KVEvent(0.0, "alloc", "req-1", 100.0),
            KVEvent(1.0, "free", "req-1", 100.0),
            KVEvent(2.0, "free", "req-1", 100.0),
        ]
        violations = validate_kv_ledger(ledger, budget=1000.0)
        assert [v.check for v in violations] == ["kv-double-free"]
        assert violations[0].task == "req-1"
        assert violations[0].time == pytest.approx(2.0)

    def test_cost_sum_mismatch_detected(self):
        class BrokenCost:
            duration = 1.0

            @staticmethod
            def components():
                return {"memory": 0.7, "compute": 0.0, "launch": 0.1}  # sums to 0.8

        tampered = result_from(
            [TaskResult("op", "gpu", 0.0, 1.0, cost=BrokenCost())]
        )
        violations = validate_schedule(tampered)
        assert [v.check for v in violations] == ["cost-sum-mismatch"]
        assert violations[0].task == "op"
        assert "0.8" in violations[0].message


class TestScheduleChecks:
    def test_negative_duration(self):
        tampered = result_from([TaskResult("op", "gpu", 1.0, 0.5)], makespan=1.0)
        checks = {v.check for v in validate_schedule(tampered)}
        assert "negative-duration" in checks

    def test_nan_time(self):
        tampered = result_from(
            [TaskResult("op", "gpu", 0.0, math.nan)], makespan=0.0, busy={"gpu": 0.0}
        )
        checks = {v.check for v in validate_schedule(tampered)}
        assert "non-finite-time" in checks

    def test_cost_duration_mismatch(self):
        gpu = PC_HIGH.gpu
        cost = CostModel.op_cost(OpWork(flops=1e9, bytes_read=1e6), gpu)
        # Scheduled for twice what the cost model priced.
        tampered = result_from(
            [TaskResult("op", "gpu", 0.0, 2.0 * cost.duration, cost=cost)]
        )
        checks = [v.check for v in validate_schedule(tampered)]
        assert checks == ["cost-duration-mismatch"]

    def test_missing_dependency(self):
        tampered = result_from(
            [TaskResult("child", "gpu", 0.0, 1.0, deps=("ghost",))]
        )
        checks = [v.check for v in validate_schedule(tampered)]
        assert checks == ["missing-dependency"]

    def test_busy_accounting_mismatch(self):
        tampered = result_from(
            [TaskResult("op", "gpu", 0.0, 1.0)], busy={"gpu": 2.0}
        )
        checks = [v.check for v in validate_schedule(tampered)]
        assert checks == ["busy-accounting"]

    def test_tag_accounting_mismatch(self):
        tampered = result_from(
            [TaskResult("op", "gpu", 0.0, 1.0, tag="mlp")], tags={"mlp": 0.25}
        )
        checks = [v.check for v in validate_schedule(tampered)]
        assert checks == ["tag-accounting"]

    def test_makespan_mismatch(self):
        tampered = result_from([TaskResult("op", "gpu", 0.0, 1.0)], makespan=9.0)
        checks = [v.check for v in validate_schedule(tampered)]
        assert checks == ["makespan-mismatch"]

    def test_explicit_tasks_override_recorded_deps(self):
        # The recorded results carry no deps; the original DAG does.
        tampered = result_from(
            [
                TaskResult("parent", "gpu", 0.0, 1.0),
                TaskResult("child", "cpu", 0.5, 1.5),
            ]
        )
        dag = [
            SimTask("parent", "gpu", 1.0),
            SimTask("child", "cpu", 1.0, deps=("parent",)),
        ]
        assert validate_schedule(tampered) == []
        assert [v.check for v in validate_schedule(tampered, dag)] == [
            "dependency-order"
        ]


class TestResourceChain:
    def test_diamond_keeps_the_chain(self):
        assert validate_resource_chain(diamond_tasks()) == []

    def test_descent_through_other_resources_counts(self):
        tasks = [
            SimTask("a", "gpu", 1.0),
            SimTask("x", "pcie", 1.0, deps=("a",)),
            SimTask("y", "cpu", 1.0, deps=("x",)),
            SimTask("b", "gpu", 1.0, deps=("y",)),
        ]
        assert validate_resource_chain(tasks) == []

    def test_independent_tasks_on_one_resource_break_it(self):
        tasks = [
            SimTask("a", "gpu", 1.0),
            SimTask("b", "cpu", 1.0),
            SimTask("c", "gpu", 1.0, deps=("b",)),
        ]
        (violation,) = validate_resource_chain(tasks)
        assert (violation.check, violation.task) == ("resource-chain", "c")
        assert "'a'" in violation.message

    def test_engine_dags_keep_the_chain_on_perturbed_machines(self):
        from repro.bench.runner import ENGINE_CLASSES, make_engine
        from repro.check.verify import ITERATION_POINTS

        for engine_name in sorted(ENGINE_CLASSES):
            engine = make_engine(engine_name, "opt-6.7b", "pc-low", "int4")
            for kind in FaultKind.THROUGHPUT:
                machine = FaultSchedule(
                    [FaultEvent(kind, start=0.0, duration=1.0, magnitude=4.0)]
                ).perturbed_machine(engine.machine, 0.5)
                for _, ctx, n_tokens, batch in ITERATION_POINTS:
                    tasks = engine.iteration_tasks(machine, ctx, n_tokens, batch)
                    assert validate_resource_chain(tasks) == [], engine_name

    def test_schedule_verification_runs_the_rule(self, monkeypatch):
        from repro.check.verify import _iteration_cases
        from repro.engine.baselines import LlamaCppEngine

        original = LlamaCppEngine.iteration_tasks

        def with_stray_task(self, *args, **kwargs):
            return original(self, *args, **kwargs) + [SimTask("stray", "gpu", 1e-3)]

        monkeypatch.setattr(LlamaCppEngine, "iteration_tasks", with_stray_task)
        failed = [c for c in _iteration_cases(quick=True) if c["status"] == "fail"]
        assert failed and all("/llama.cpp/" in c["case"] for c in failed)
        assert {v["check"] for c in failed for v in c["violations"]} == {"resource-chain"}


class TestKvLedger:
    def test_clean_ledger(self):
        ledger = [
            KVEvent(0.0, "alloc", "req-1", 100.0),
            KVEvent(0.5, "alloc", "req-2", 200.0),
            KVEvent(1.0, "free", "req-1", 100.0),
            KVEvent(2.0, "free", "req-2", 200.0),
        ]
        assert validate_kv_ledger(ledger, budget=400.0, peak=300.0) == []

    def test_double_alloc(self):
        ledger = [
            KVEvent(0.0, "alloc", "req-1", 100.0),
            KVEvent(1.0, "alloc", "req-1", 100.0),
            KVEvent(2.0, "free", "req-1", 100.0),
        ]
        checks = [v.check for v in validate_kv_ledger(ledger, budget=400.0)]
        assert checks == ["kv-double-alloc"]

    def test_over_budget(self):
        ledger = [
            KVEvent(0.0, "alloc", "req-1", 300.0),
            KVEvent(0.5, "alloc", "req-2", 300.0),
            KVEvent(1.0, "free", "req-1", 300.0),
            KVEvent(1.0, "free", "req-2", 300.0),
        ]
        violations = validate_kv_ledger(ledger, budget=400.0)
        assert [v.check for v in violations] == ["kv-over-budget"]
        assert violations[0].task == "req-2"
        assert violations[0].time == pytest.approx(0.5)

    def test_leak(self):
        ledger = [KVEvent(0.0, "alloc", "req-1", 100.0)]
        violations = validate_kv_ledger(ledger, budget=400.0)
        assert [v.check for v in violations] == ["kv-leak"]
        assert violations[0].task == "req-1"

    def test_size_mismatch(self):
        ledger = [
            KVEvent(0.0, "alloc", "req-1", 100.0),
            KVEvent(1.0, "free", "req-1", 64.0),
        ]
        checks = [v.check for v in validate_kv_ledger(ledger, budget=400.0)]
        assert checks == ["kv-size-mismatch"]

    def test_time_order(self):
        ledger = [
            KVEvent(1.0, "alloc", "req-1", 100.0),
            KVEvent(0.5, "free", "req-1", 100.0),
        ]
        checks = [v.check for v in validate_kv_ledger(ledger, budget=400.0)]
        assert "kv-time-order" in checks

    def test_bad_bytes(self):
        checks = [
            v.check
            for v in validate_kv_ledger(
                [KVEvent(0.0, "alloc", "req-1", -5.0)], budget=400.0
            )
        ]
        assert checks == ["kv-bad-bytes"]

    def test_peak_reconciliation(self):
        ledger = [
            KVEvent(0.0, "alloc", "req-1", 100.0),
            KVEvent(1.0, "free", "req-1", 100.0),
        ]
        violations = validate_kv_ledger(ledger, budget=400.0, peak=250.0)
        assert [v.check for v in violations] == ["kv-peak-mismatch"]


class TestServerRun:
    def test_clean_report(self):
        report = ContinuousReport(
            busy_intervals=[(0.0, 1.0), (1.0, 2.0)], n_iterations=2
        )
        assert validate_server_run(report) == []

    def test_iteration_overlap(self):
        report = ContinuousReport(busy_intervals=[(0.0, 1.0), (0.9, 2.0)])
        violations = validate_server_run(report)
        assert [v.check for v in violations] == ["iteration-overlap"]
        assert violations[0].time == pytest.approx(0.9)

    def test_degenerate_interval(self):
        report = ContinuousReport(busy_intervals=[(1.0, 0.5)])
        checks = [v.check for v in validate_server_run(report)]
        assert "bad-busy-interval" in checks

    def test_stall_overlap(self):
        faults = FaultSchedule(
            [FaultEvent(FaultKind.DEVICE_STALL, start=1.0, duration=2.0)]
        )
        report = ContinuousReport(busy_intervals=[(0.0, 1.5)])
        violations = validate_server_run(report, faults=faults)
        assert [v.check for v in violations] == ["stall-overlap"]
        assert violations[0].time == pytest.approx(1.0)

    def test_busy_interval_ending_at_stall_start_ok(self):
        faults = FaultSchedule(
            [FaultEvent(FaultKind.DEVICE_STALL, start=1.0, duration=2.0)]
        )
        report = ContinuousReport(busy_intervals=[(0.0, 1.0), (3.0, 4.0)])
        assert validate_server_run(report, faults=faults) == []

    def test_ledger_requires_budget(self):
        report = ContinuousReport()
        with pytest.raises(ValueError, match="budget"):
            validate_server_run(report, ledger=[])

    def test_trace_drift_detected(self):
        from repro.telemetry.tracer import Tracer

        tracer = Tracer()
        tracer.add_task("op", "gpu", 0.0, 0.4)  # report says busy until 1.0
        tracer.metrics.counter("iterations").inc()
        report = ContinuousReport(busy_intervals=[(0.0, 1.0)], n_iterations=1)
        violations = validate_server_run(report, tracer=tracer)
        assert [v.check for v in violations] == ["trace-drift"]

    def test_iteration_count_mismatch_detected(self):
        from repro.telemetry.tracer import Tracer

        tracer = Tracer()
        tracer.add_task("op", "gpu", 0.0, 1.0)
        report = ContinuousReport(busy_intervals=[(0.0, 1.0)], n_iterations=3)
        violations = validate_server_run(report, tracer=tracer)
        assert [v.check for v in violations] == ["iteration-count-mismatch"]


class TestRequireValid:
    def test_raises_with_diagnostics(self):
        violations = [
            Violation(check="device-overlap", message="boom", task="op", time=1.25)
        ]
        with pytest.raises(ScheduleValidationError) as exc_info:
            require_valid(violations)
        err = exc_info.value
        assert err.violations == violations
        assert "device-overlap" in str(err)
        assert "task=op" in str(err)
        assert "t=1.25s" in str(err)

    def test_silent_on_clean(self):
        require_valid([])

    def test_violation_serialization(self):
        v = Violation(check="kv-leak", message="m", task="req-1", time=2.0)
        assert v.to_dict() == {
            "check": "kv-leak",
            "message": "m",
            "task": "req-1",
            "time": 2.0,
        }
        assert Violation(check="x", message="m").to_dict() == {
            "check": "x",
            "message": "m",
        }
