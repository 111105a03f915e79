"""Tests for the discrete-event DAG scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.events import EventSimulator, Resource, SimTask


def simulate(tasks):
    resources = sorted({t.resource for t in tasks})
    return EventSimulator(resources).run(tasks)


class TestResource:
    def test_reserve_serializes(self):
        res = Resource(name="r")
        s1, e1 = res.reserve(0.0, 2.0)
        s2, e2 = res.reserve(0.0, 3.0)
        assert (s1, e1) == (0.0, 2.0)
        assert (s2, e2) == (2.0, 5.0)
        assert res.busy_time == 5.0

    def test_reserve_waits_for_earliest(self):
        res = Resource(name="r")
        start, end = res.reserve(10.0, 1.0)
        assert (start, end) == (10.0, 11.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Resource(name="r").reserve(0.0, -1.0)

    def test_reset(self):
        res = Resource(name="r")
        res.reserve(0.0, 5.0)
        res.reset()
        assert res.available_at == 0.0
        assert res.busy_time == 0.0


class TestScheduling:
    def test_chain_is_sequential(self):
        result = simulate(
            [
                SimTask("a", "r", 1.0),
                SimTask("b", "r", 2.0, deps=("a",)),
                SimTask("c", "r", 3.0, deps=("b",)),
            ]
        )
        assert result.makespan == pytest.approx(6.0)
        assert result.tasks["c"].start == pytest.approx(3.0)

    def test_independent_tasks_on_distinct_resources_overlap(self):
        result = simulate([SimTask("a", "x", 5.0), SimTask("b", "y", 3.0)])
        assert result.makespan == pytest.approx(5.0)
        assert result.tasks["b"].start == 0.0

    def test_join_waits_for_both_parents(self):
        result = simulate(
            [
                SimTask("a", "x", 5.0),
                SimTask("b", "y", 3.0),
                SimTask("c", "x", 1.0, deps=("a", "b")),
            ]
        )
        assert result.tasks["c"].start == pytest.approx(5.0)

    def test_same_resource_serializes_independent_tasks(self):
        result = simulate([SimTask("a", "r", 2.0), SimTask("b", "r", 2.0)])
        assert result.makespan == pytest.approx(4.0)

    def test_equal_time_ties_start_in_insertion_order(self):
        # Three tasks on one resource all become ready at t=1 when "gate"
        # finishes; they start in the order they were listed.
        result = simulate(
            [
                SimTask("gate", "x", 1.0),
                SimTask("c", "r", 1.0, deps=("gate",)),
                SimTask("a", "r", 1.0, deps=("gate",)),
                SimTask("b", "r", 1.0, deps=("gate",)),
                SimTask("z", "r", 1.0),
                SimTask("y", "r", 1.0),
            ]
        )
        starts = {name: t.start for name, t in result.tasks.items()}
        assert (starts["z"], starts["y"]) == (0.0, 1.0)
        assert (starts["c"], starts["a"], starts["b"]) == (2.0, 3.0, 4.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            simulate([SimTask("a", "r", 1.0), SimTask("a", "r", 1.0)])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            simulate([SimTask("a", "r", 1.0, deps=("ghost",))])

    def test_unknown_resource_rejected(self):
        sim = EventSimulator(["r"])
        with pytest.raises(ValueError, match="unknown resource"):
            sim.run([SimTask("a", "other", 1.0)])

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            simulate(
                [SimTask("a", "r", 1.0, deps=("b",)), SimTask("b", "r", 1.0, deps=("a",))]
            )

    def test_empty_dag(self):
        assert simulate([]).makespan == 0.0

    def test_tag_time_accumulates(self):
        result = simulate(
            [
                SimTask("a", "r", 1.0, tag="compute"),
                SimTask("b", "r", 2.0, tag="compute"),
                SimTask("c", "r", 4.0, tag="transfer"),
            ]
        )
        assert result.time_by_tag() == {"compute": 3.0, "transfer": 4.0}

    def test_utilization(self):
        result = simulate([SimTask("a", "x", 2.0), SimTask("b", "y", 4.0)])
        assert result.resource_utilization("x") == pytest.approx(0.5)
        assert result.resource_utilization("y") == pytest.approx(1.0)

    def test_duplicate_resource_registration_rejected(self):
        sim = EventSimulator(["r"])
        with pytest.raises(ValueError):
            sim.add_resource("r")

    def test_reset_allows_reuse(self):
        sim = EventSimulator(["r"])
        sim.run([SimTask("a", "r", 3.0)])
        sim.reset()
        result = sim.run([SimTask("a", "r", 3.0)])
        assert result.tasks["a"].start == 0.0


class TestSchedulingProperties:
    @staticmethod
    def _random_dag(durations, edge_flags):
        tasks = []
        n = len(durations)
        flag_iter = iter(edge_flags)
        for i, dur in enumerate(durations):
            deps = tuple(
                f"t{j}" for j in range(i) if next(flag_iter, False)
            )
            tasks.append(SimTask(f"t{i}", f"r{i % 2}", dur, deps=deps))
        return tasks

    @given(
        durations=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
        edge_flags=st.lists(st.booleans(), min_size=0, max_size=28),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_for_random_dags(self, durations, edge_flags):
        tasks = self._random_dag(durations, edge_flags)
        result = simulate(tasks)
        by_name = {t.name: t for t in tasks}
        # 1. Every task scheduled exactly once.
        assert set(result.tasks) == {t.name for t in tasks}
        # 2. Dependencies respected.
        for task in tasks:
            for dep in task.deps:
                assert result.tasks[task.name].start >= result.tasks[dep].end
        # 3. Makespan bounds: critical path <= makespan <= sum of durations.
        assert result.makespan <= sum(durations) + 1e-9
        # 4. No overlap per resource.
        for res in ("r0", "r1"):
            intervals = sorted(
                (r.start, r.end)
                for r in result.tasks.values()
                if by_name[r.name].resource == res
            )
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9
