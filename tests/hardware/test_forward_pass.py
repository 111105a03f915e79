"""The forward pass against the list scheduler, its oracle.

Where ``forward_pass`` returns times, every start and end must be the one
``EventSimulator.run`` gives, bit for bit, and so the makespan too.  On
engine DAGs it must return them; on any other DAG it returns ``None``, and
``PerfEngine.price_iteration`` falls back to the list scheduler.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import make_engine
from repro.check.schedule import validate_resource_chain
from repro.check.verify import ITERATION_POINTS, _iteration_grid
from repro.engine.base import RESOURCES, PerfEngine
from repro.hardware.events import EventSimulator, SimTask, dag_arrays, forward_pass
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.memory import OutOfMemoryError


def pass_times(tasks):
    """The pass's ``(starts, ends)`` of ``tasks``, or ``None`` to fall back."""
    arrays = dag_arrays(tasks, RESOURCES)
    return None if arrays is None else forward_pass(*arrays, [t.duration for t in tasks])


def assert_matches_list_scheduler(tasks):
    times = pass_times(tasks)
    assert times is not None, "the pass fell back"
    starts, ends = times
    expected = EventSimulator(list(RESOURCES)).run(tasks)
    assert {t.name: (s, e) for t, s, e in zip(tasks, starts, ends)} == {
        name: (r.start, r.end) for name, r in expected.tasks.items()
    }
    assert max(ends, default=0.0) == expected.makespan


def machines_under_faults(machine):
    """The plan's machine and one perturbed copy per throughput fault kind."""
    machines = [machine]
    for kind in FaultKind.THROUGHPUT:
        faults = FaultSchedule([FaultEvent(kind, start=0.0, duration=10.0, magnitude=3.0)])
        machines.append(faults.perturbed_machine(machine, 1.0))
    return machines


@pytest.mark.parametrize(
    "engine_name,model,machine,dtype",
    list(_iteration_grid(quick=False)),
    ids=str,
)
def test_engine_dags_match_the_list_scheduler(engine_name, model, machine, dtype):
    """Every engine on the ``repro check --full`` grid, every canonical
    shape, on the plan's machine and one perturbed machine per fault kind."""
    try:
        engine = make_engine(engine_name, model, machine, dtype)
    except OutOfMemoryError:
        pytest.skip("does not fit")
    shapes = [(ctx, n, b) for _, ctx, n, b in ITERATION_POINTS] + [(192, 1, 8), (40, 32, 1)]
    for spec in machines_under_faults(engine.machine):
        for ctx, n_tokens, batch in shapes:
            assert_matches_list_scheduler(engine.iteration_tasks(spec, ctx, n_tokens, batch))


class _FixedDagEngine(PerfEngine):
    """An engine whose every iteration is one hand-built DAG."""

    name = "fixed-dag"

    def __init__(self, plan, tasks) -> None:
        super().__init__(plan)
        self.tasks = tasks

    def iteration_tasks(self, machine, ctx_len, n_tokens, batch, rng=None):
        return list(self.tasks)


def untraced_price(plan, tasks):
    makespan, schedule = _FixedDagEngine(plan, tasks).price_iteration(
        0, 1, keep_schedule=False
    )
    assert schedule is None
    return makespan


class TestFallBack:
    def test_two_independent_tasks_on_one_resource(self, mini_plan):
        """The ``resource-chain`` rule fails, the pass falls back, and the
        price is the list scheduler's (not the longest path, 2.0)."""
        tasks = [SimTask("a", "gpu", 1.0), SimTask("b", "gpu", 2.0)]
        assert [v.check for v in validate_resource_chain(tasks)] == ["resource-chain"]
        assert pass_times(tasks) is None
        expected = EventSimulator(list(RESOURCES)).run(tasks)
        assert expected.makespan == 3.0
        assert untraced_price(mini_plan, tasks) == expected.makespan

    def test_task_listed_before_its_dependency(self, mini_plan):
        tasks = [SimTask("b", "cpu", 2.0, deps=("a",)), SimTask("a", "gpu", 1.0)]
        assert pass_times(tasks) is None
        expected = EventSimulator(list(RESOURCES)).run(tasks)
        assert untraced_price(mini_plan, tasks) == expected.makespan == 3.0

    def test_zero_length_task_tie(self, mini_plan):
        """``t`` is listed before ``u`` on one resource, but ``u`` becomes
        ready first at the same instant; with ``t`` of zero length the walk
        would find the resource free, yet the list scheduler runs ``u``
        first and delays ``t``."""
        tasks = [
            SimTask("a", "gpu", 1.0),
            SimTask("b", "cpu", 1.0),
            SimTask("t", "pcie", 0.0, deps=("b",)),
            SimTask("u", "pcie", 1.0, deps=("a",)),
        ]
        assert pass_times(tasks) is None
        expected = EventSimulator(list(RESOURCES)).run(tasks)
        assert expected.tasks["t"].start == 2.0
        assert untraced_price(mini_plan, tasks) == expected.makespan

    @pytest.mark.parametrize(
        "tasks,message",
        [
            ([SimTask("a", "gpu", 1.0), SimTask("a", "cpu", 1.0)], "duplicate task name"),
            ([SimTask("a", "gpu", 1.0, deps=("z",))], "unknown task"),
            ([SimTask("a", "tpu", 1.0)], "unknown resource"),
            ([SimTask("a", "gpu", 1.0, deps=("a",))], "dependency cycle"),
            ([SimTask("a", "gpu", -1.0)], "non-negative"),
        ],
    )
    def test_bad_dags_fail_as_in_the_list_scheduler(self, mini_plan, tasks, message):
        assert pass_times(tasks) is None
        with pytest.raises(ValueError, match=message):
            untraced_price(mini_plan, tasks)

    def test_empty_dag(self):
        assert pass_times([]) == ([], [])
        assert EventSimulator(list(RESOURCES)).run([]).makespan == 0.0


@st.composite
def chain_dags(draw):
    """Random DAGs that satisfy the ``resource-chain`` rule.

    Tasks are listed in dependency order.  Each depends on the previous
    task on its resource (which makes the rule hold) and on a random
    subset of earlier tasks.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    tasks: list[SimTask] = []
    last_on: dict[str, str] = {}
    for i in range(n):
        resource = draw(st.sampled_from(RESOURCES))
        extra = draw(st.lists(st.integers(0, max(i - 1, 0)), max_size=3)) if i else []
        deps = [last_on[resource]] if resource in last_on else []
        deps += [f"t{j}" for j in extra]
        tasks.append(
            SimTask(
                f"t{i}",
                resource,
                draw(st.floats(min_value=1e-6, max_value=1.0)),
                deps=tuple(deps),
            )
        )
        last_on[resource] = f"t{i}"
    return tasks


@settings(max_examples=60, deadline=None)
@given(chain_dags())
def test_random_chain_dags_match_the_list_scheduler(tasks):
    assert validate_resource_chain(tasks) == []
    assert_matches_list_scheduler(tasks)
