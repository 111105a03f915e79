"""Discrete-event scheduling of operator DAGs onto device timelines.

PowerInfer's online engine (paper Section 5.3) builds a DAG of inference
operators, tags each with its prerequisite operators, and lets per-device
executors pull ready operators from a global queue.  This module provides the
simulation equivalent: :class:`Resource` models a serially-occupied device
(GPU stream, CPU thread pool, PCIe link) and :class:`EventSimulator` performs
event-driven list scheduling of a task DAG over those resources.

Scheduling discipline: at every point in virtual time, each resource runs at
most one task; a task becomes *ready* when all its dependencies have
finished; ready tasks start in order of their earliest start time, ties
broken by insertion order (the order in which they became ready, which for
tasks without dependencies is their order in the task list).  That makes
the simulation fully deterministic.

Engine DAGs never need the list scheduler's resource bookkeeping: every
engine lists its tasks in dependency order, and on every resource each task
is a descendant of the previous one (the ``resource-chain`` rule of
:mod:`repro.check.schedule`).  A task then never waits for its device, so
its start is the longest path to it.  :func:`forward_pass` computes exactly
those starts and ends in one walk over the list, bit for bit the list
scheduler's; the serving cost cache prices a makespan with it.  Any DAG the
walk cannot vouch for goes to :class:`EventSimulator`, which builds every
:class:`ScheduleResult` and stays the fall-back and the oracle of the tests.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.units import Ratio, Seconds

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.hardware.costmodel import TaskCost

__all__ = [
    "Resource",
    "SimTask",
    "TaskResult",
    "ScheduleResult",
    "EventSimulator",
    "dag_arrays",
    "forward_pass",
]


@dataclass
class Resource:
    """A serially occupied execution resource with a busy-time counter."""

    name: str
    available_at: Seconds = 0.0
    busy_time: Seconds = 0.0

    def reserve(self, earliest: Seconds, duration: Seconds) -> tuple[Seconds, Seconds]:
        """Occupy the resource for ``duration`` starting no earlier than
        ``earliest``; returns the (start, end) interval chosen."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        start = max(earliest, self.available_at)
        end = start + duration
        self.available_at = end
        self.busy_time += duration
        return start, end

    def reset(self) -> None:
        self.available_at = 0.0
        self.busy_time = 0.0


@dataclass
class SimTask:
    """One node of the simulated operator DAG.

    Attributes:
        name: Unique task identifier.
        resource: Name of the resource that executes the task.
        duration: Execution time in seconds.
        deps: Names of tasks that must finish before this one starts.
        tag: Free-form label used for per-category time accounting
            (e.g. ``"transfer"``, ``"mlp"``, ``"predictor"``).
        cost: Optional structured cost terms behind ``duration``
            (:class:`~repro.hardware.costmodel.TaskCost`) — attached by
            engines so attribution can decompose the task.
    """

    name: str
    resource: str
    duration: Seconds
    deps: tuple[str, ...] = ()
    tag: str = ""
    cost: "TaskCost | None" = None


@dataclass(frozen=True)
class TaskResult:
    """Scheduled interval for one task.

    ``deps`` records the task's (deduplicated) dependency edges so a
    realized :class:`ScheduleResult` is self-contained —
    :func:`repro.check.schedule.validate_schedule` verifies dependency
    order and :func:`repro.analysis.attribution.critical_path` walks the
    edges without the original :class:`SimTask` list.
    """

    name: str
    resource: str
    start: Seconds
    end: Seconds
    tag: str = ""
    cost: "TaskCost | None" = None
    deps: tuple[str, ...] = ()

    @property
    def duration(self) -> Seconds:
        return self.end - self.start


@dataclass
class ScheduleResult:
    """Outcome of simulating a DAG: per-task intervals plus summaries."""

    tasks: dict[str, TaskResult]
    makespan: Seconds
    busy_time: dict[str, Seconds]
    tag_time: dict[str, Seconds] = field(default_factory=dict)

    def resource_utilization(self, resource: str) -> Ratio:
        """Fraction of the makespan the resource was busy."""
        if self.makespan == 0:
            return 0.0
        return self.busy_time.get(resource, 0.0) / self.makespan

    def time_by_tag(self) -> dict[str, Seconds]:
        """Total busy seconds per task tag (for breakdown figures)."""
        return dict(self.tag_time)

    def to_chrome_trace(self) -> list[dict]:
        """Trace-event JSON objects for chrome://tracing / Perfetto.

        One complete ("X") event per task; resources map to trace threads.
        Times are microseconds, as the trace-event format expects.
        """
        tids = {name: i for i, name in enumerate(sorted(self.busy_time))}
        events: list[dict] = []
        for name, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        for task in self.tasks.values():
            events.append(
                {
                    "name": task.name,
                    "cat": task.tag or "op",
                    "ph": "X",
                    "pid": 0,
                    "tid": tids[task.resource],
                    "ts": task.start * 1e6,
                    "dur": task.duration * 1e6,
                }
            )
        return events

    def save_chrome_trace(self, path) -> None:
        """Write :meth:`to_chrome_trace` output as a JSON file."""
        import json

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.to_chrome_trace()}, fh)


class EventSimulator:
    """Event-driven list scheduler for :class:`SimTask` DAGs."""

    def __init__(self, resources: list[str] | None = None) -> None:
        self._resources: dict[str, Resource] = {}
        for name in resources or []:
            self.add_resource(name)

    def add_resource(self, name: str) -> Resource:
        """Register a resource; returns the resource object."""
        if name in self._resources:
            raise ValueError(f"resource {name!r} already registered")
        res = Resource(name=name)
        self._resources[name] = res
        return res

    def resource(self, name: str) -> Resource:
        return self._resources[name]

    def reset(self) -> None:
        """Clear all resource timelines (keeps registrations)."""
        for res in self._resources.values():
            res.reset()

    def run(self, tasks: list[SimTask]) -> ScheduleResult:
        """Schedule the task DAG; returns per-task intervals and makespan.

        Raises:
            ValueError: On duplicate task names, unknown resources, missing
                dependencies, or dependency cycles.
        """
        by_name: dict[str, SimTask] = {}
        for task in tasks:
            if task.name in by_name:
                raise ValueError(f"duplicate task name: {task.name!r}")
            if task.resource not in self._resources:
                raise ValueError(f"unknown resource: {task.resource!r}")
            by_name[task.name] = task
        for task in tasks:
            for dep in task.deps:
                if dep not in by_name:
                    raise ValueError(f"task {task.name!r} depends on unknown task {dep!r}")

        # dict.fromkeys (not set) deduplicates while keeping declaration
        # order, so the dependents lists — and with them heap tiebreaks —
        # are stable run to run.
        unique_deps = {t.name: tuple(dict.fromkeys(t.deps)) for t in tasks}
        indegree = {name: len(deps) for name, deps in unique_deps.items()}
        dependents: dict[str, list[str]] = {t.name: [] for t in tasks}
        for task in tasks:
            for dep in unique_deps[task.name]:
                dependents[dep].append(task.name)

        counter = itertools.count()
        # Ready heap entries: (earliest start, insertion tiebreak, name).
        ready: list[tuple[float, int, str]] = []
        dep_finish: dict[str, float] = {t.name: 0.0 for t in tasks}
        for task in tasks:
            if indegree[task.name] == 0:
                heapq.heappush(ready, (0.0, next(counter), task.name))

        results: dict[str, TaskResult] = {}
        tag_time: dict[str, float] = {}
        completed = 0
        while ready:
            earliest, _, name = heapq.heappop(ready)
            task = by_name[name]
            res = self._resources[task.resource]
            start, end = res.reserve(earliest, task.duration)
            results[name] = TaskResult(
                name=name,
                resource=task.resource,
                start=start,
                end=end,
                tag=task.tag,
                cost=task.cost,
                deps=unique_deps[name],
            )
            if task.tag:
                tag_time[task.tag] = tag_time.get(task.tag, 0.0) + task.duration
            completed += 1
            for child in dependents[name]:
                dep_finish[child] = max(dep_finish[child], end)
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, (dep_finish[child], next(counter), child))

        if completed != len(tasks):
            unresolved = sorted(set(by_name) - set(results))
            raise ValueError(f"dependency cycle involving tasks: {unresolved[:5]}")

        makespan = max((r.end for r in results.values()), default=0.0)
        busy = {name: res.busy_time for name, res in self._resources.items()}
        return ScheduleResult(
            tasks=results, makespan=makespan, busy_time=busy, tag_time=tag_time
        )


# ---- the longest-path pass --------------------------------------------------------


def dag_arrays(
    tasks: Sequence[SimTask], resources: Sequence[str]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
    """Each task's dependencies and resource as list indices.

    Dependencies are deduplicated in declaration order, as the list
    scheduler records them.  Returns ``None`` for a DAG the list scheduler
    would reject (a duplicate name, an unknown dependency or resource), so
    that :meth:`EventSimulator.run` reports it.
    """
    index: dict[str, int] = {}
    for i, task in enumerate(tasks):
        index.setdefault(task.name, i)
    if len(index) != len(tasks):
        return None
    slot = {name: k for k, name in enumerate(resources)}
    try:
        deps = tuple(tuple(index[d] for d in dict.fromkeys(t.deps)) for t in tasks)
        where = tuple(slot[t.resource] for t in tasks)
    except KeyError:
        return None
    return deps, where


def forward_pass(
    deps: Sequence[tuple[int, ...]],
    resources: Sequence[int],
    durations: Sequence[float],
) -> tuple[list[float], list[float]] | None:
    """Start and end of every task by one walk in list order.

    Each task starts at the latest end of its dependencies and ends
    ``duration`` later.  Returns ``None`` when that may differ from
    :meth:`EventSimulator.run`: a task listed before one of its
    dependencies, a task that would start before its resource is free, or
    a task that ends the instant it starts (a zero-length task can tie
    with another in the list scheduler's ready queue).  Otherwise every
    task finds its resource free, and the list scheduler's starts and ends
    are these, bit for bit.
    """
    n = len(durations)
    starts = [0.0] * n
    ends = [0.0] * n
    free: dict[int, float] = {}
    for i, (task_deps, resource, duration) in enumerate(zip(deps, resources, durations)):
        start = 0.0
        for j in task_deps:
            if j >= i:
                return None
            end = ends[j]
            if end > start:
                start = end
        if start < free.get(resource, 0.0):
            return None
        end = start + duration
        if not end > start:
            return None
        starts[i] = start
        ends[i] = end
        free[resource] = end
    return starts, ends
