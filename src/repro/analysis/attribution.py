"""Performance attribution over scheduled operator DAGs.

PowerInfer's headline claims are attribution claims: Section 6.2 argues the
speedup comes from shrinking PCIe-bound weight streaming and overlapping
CPU/GPU neuron work, and Figures 15/16 decompose where time goes.  The
telemetry layer records *what* ran where; this module answers *why* a
configuration is slow:

* :func:`decompose` — roofline **time decomposition**: every task span is
  split into memory / compute / launch / sync / transfer seconds using the
  :class:`~repro.hardware.costmodel.TaskCost` the engines attached at
  pricing time, aggregated by device, operator tag, and layer.  Because
  each task's components sum to its duration exactly, the per-device totals
  reconcile against the simulator's busy-time counters to float precision.
* :func:`critical_path` — **critical-path analysis** of a realized
  schedule: the chain of tasks with zero slack that sets the makespan, the
  gating reason for each segment (dependency wait vs. resource
  serialization), and per-operator slack for everything off the path.
* :func:`analyze_iteration` — one-call convenience: price one engine
  iteration with ``simulate_iteration`` and return the schedule, its
  decomposition, and its critical path together.

All inputs are the simulator's own records (a :class:`ScheduleResult`,
whose tasks carry their dependency edges and cost terms, or recorded
:class:`~repro.telemetry.tracer.TaskSpan` lists); nothing here re-prices
or re-schedules, so attribution is exact for the run it describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.hardware.costmodel import COST_COMPONENTS
from repro.hardware.events import ScheduleResult, TaskResult
from repro.units import Ratio, Seconds

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.engine.base import PerfEngine
    from repro.telemetry.tracer import TaskSpan

__all__ = [
    "TimeDecomposition",
    "CriticalSegment",
    "CriticalPath",
    "IterationAnalysis",
    "decompose",
    "decompose_spans",
    "critical_path",
    "analyze_iteration",
    "layer_of",
]


def layer_of(task_name: str) -> str:
    """Layer key of a task name (``"L12.mlp_gpu"`` → ``"L12"``).

    Tasks outside the per-layer naming convention (``lm_head``,
    ``hidden_xfer``) fall into ``"other"``.
    """
    if task_name.startswith("L"):
        head = task_name.split(".", 1)[0]
        if head[1:].isdigit():
            return head
    return "other"


def _zero_components() -> dict[str, Seconds]:
    return {c: 0.0 for c in COST_COMPONENTS}


@dataclass
class TimeDecomposition:
    """Where every simulated second went, along three groupings.

    Each value dict maps :data:`~repro.hardware.costmodel.COST_COMPONENTS`
    names (``memory`` / ``compute`` / ``launch`` / ``sync`` / ``transfer``)
    to seconds.  ``uncosted`` counts span seconds whose task carried no
    :class:`~repro.hardware.costmodel.TaskCost` — always zero for schedules
    built by the in-tree engines.
    """

    by_device: dict[str, dict[str, Seconds]] = field(default_factory=dict)
    by_tag: dict[str, dict[str, Seconds]] = field(default_factory=dict)
    by_layer: dict[str, dict[str, Seconds]] = field(default_factory=dict)
    uncosted: Seconds = 0.0

    def _accumulate(
        self, device: str, tag: str, layer: str, components: Mapping[str, Seconds]
    ) -> None:
        for group, key in (
            (self.by_device, device),
            (self.by_tag, tag or "untagged"),
            (self.by_layer, layer),
        ):
            bucket = group.setdefault(key, _zero_components())
            for name, seconds in components.items():
                bucket[name] += seconds

    @property
    def totals(self) -> dict[str, Seconds]:
        """Seconds per component summed over all devices."""
        out = _zero_components()
        for bucket in self.by_device.values():
            for name, seconds in bucket.items():
                out[name] += seconds
        return out

    @property
    def total_seconds(self) -> Seconds:
        """All decomposed busy seconds (plus any uncosted span time)."""
        return sum(self.totals.values()) + self.uncosted

    def device_total(self, device: str) -> Seconds:
        """Decomposed seconds attributed to one device."""
        return sum(self.by_device.get(device, {}).values())

    def shares(self) -> dict[str, Ratio]:
        """Fraction of total decomposed time per component."""
        totals = self.totals
        denom = sum(totals.values())
        if denom <= 0.0:
            return {name: 0.0 for name in totals}
        return {name: seconds / denom for name, seconds in totals.items()}

    def reconciliation_error(self, busy_time: Mapping[str, Seconds]) -> Seconds:
        """Largest per-device gap between decomposed and reported busy time.

        ``busy_time`` is the simulator's (or tracer's) busy-seconds map.
        Engines attach exact component splits, so this should sit at float
        rounding noise — the acceptance bar is 1e-6 seconds.
        """
        devices = set(busy_time) | set(self.by_device)
        return max(
            (
                abs(self.device_total(dev) - busy_time.get(dev, 0.0))
                for dev in devices
            ),
            default=0.0,
        )

    def as_rows(self, group: str = "device") -> list[dict]:
        """Table-friendly rows for one grouping (device / tag / layer)."""
        buckets = {
            "device": self.by_device,
            "tag": self.by_tag,
            "layer": self.by_layer,
        }[group]
        rows = []
        for key in sorted(buckets):
            row: dict = {group: key}
            row.update(buckets[key])
            row["total"] = sum(buckets[key].values())
            rows.append(row)
        return rows


def decompose(result: ScheduleResult) -> TimeDecomposition:
    """Roofline time decomposition of one simulated schedule."""
    return _decompose(result.tasks.values())


def decompose_spans(spans: "Iterable[TaskSpan]") -> TimeDecomposition:
    """Decomposition of recorded tracer spans (e.g. a whole serving run)."""
    return _decompose(spans)


def _decompose(tasks: "Iterable[TaskResult | TaskSpan]") -> TimeDecomposition:
    deco = TimeDecomposition()
    for task in tasks:
        device = getattr(task, "resource", None) or getattr(task, "lane", "?")
        if task.cost is None:
            deco.uncosted += task.duration
            continue
        deco._accumulate(device, task.tag, layer_of(task.name), task.cost.components())
    return deco


@dataclass(frozen=True)
class CriticalSegment:
    """One task on the critical path and why it started when it did.

    ``gate`` explains what the task was waiting on at its start instant:
    ``"dependency"`` (a DAG predecessor finished exactly then),
    ``"resource"`` (its device was busy with the previous task on the same
    lane), or ``"start"`` (it began at time zero).
    """

    name: str
    resource: str
    tag: str
    start: Seconds
    end: Seconds
    gate: str

    @property
    def duration(self) -> Seconds:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The zero-slack task chain that sets a schedule's makespan."""

    segments: list[CriticalSegment]
    makespan: Seconds
    slack: dict[str, Seconds]

    @property
    def length(self) -> Seconds:
        """Summed duration of critical segments (gaps excluded)."""
        return sum(s.duration for s in self.segments)

    def time_by_resource(self) -> dict[str, Seconds]:
        """Critical seconds attributed to each device."""
        out: dict[str, Seconds] = {}
        for seg in self.segments:
            out[seg.resource] = out.get(seg.resource, 0.0) + seg.duration
        return dict(sorted(out.items()))

    def gating_resource(self) -> str:
        """Device carrying the most critical-path time — the bottleneck."""
        by_res = self.time_by_resource()
        if not by_res:
            return ""
        return max(by_res, key=by_res.__getitem__)

    def as_rows(self) -> list[dict]:
        return [
            {
                "task": s.name,
                "resource": s.resource,
                "tag": s.tag,
                "start": s.start,
                "duration": s.duration,
                "gate": s.gate,
            }
            for s in self.segments
        ]


def critical_path(result: ScheduleResult) -> CriticalPath:
    """Critical-path analysis of a realized schedule.

    The dependency edges are the ones the simulator recorded on each
    :class:`TaskResult`.  Two edge families constrain each task's start:
    its declared dependencies and the previous task scheduled on the same
    resource (devices are serial).  The critical path is walked backward
    from the makespan-setting task through whichever predecessor finished
    exactly at each task's start; slack comes from the standard backward
    (latest-start) pass over the same edges, so critical tasks report
    slack 0 and every other task the seconds it could slip without moving
    the makespan.
    """
    res = result.tasks
    if not res:
        return CriticalPath(segments=[], makespan=0.0, slack={})

    # Previous/next task on the same resource, in scheduled order.
    prev_on_resource: dict[str, str] = {}
    succ: dict[str, list[str]] = {name: [] for name in res}
    lanes: dict[str, list[str]] = {}
    for name, tr in res.items():
        lanes.setdefault(tr.resource, []).append(name)
    for names in lanes.values():
        names.sort(key=lambda n: (res[n].start, res[n].end))
        for earlier, later in zip(names, names[1:]):
            prev_on_resource[later] = earlier
            succ[earlier].append(later)
    for name, tr in res.items():
        for dep in tr.deps:
            succ[dep].append(name)

    # Backward pass: latest finish such that the makespan is preserved.
    # Visit in reverse topological order of the combined edge set (time
    # order alone cannot break ties between zero-duration tasks).
    indegree = {name: 0 for name in res}
    for children in succ.values():
        for child in children:
            indegree[child] += 1
    frontier = [name for name, deg in indegree.items() if deg == 0]
    topo: list[str] = []
    while frontier:
        name = frontier.pop()
        topo.append(name)
        for child in succ[name]:
            indegree[child] -= 1
            if indegree[child] == 0:
                frontier.append(child)
    makespan = result.makespan
    latest_finish = {name: makespan for name in res}
    for name in reversed(topo):
        for child in succ[name]:
            child_latest_start = latest_finish[child] - res[child].duration
            latest_finish[name] = min(latest_finish[name], child_latest_start)
    slack = {
        name: (latest_finish[name] - res[name].duration) - res[name].start
        for name in res
    }

    # Walk backward from the task that realizes the makespan.
    current = max(res.values(), key=lambda tr: (tr.end, tr.start)).name
    chain: list[CriticalSegment] = []
    while current is not None:
        tr = res[current]
        gate = "start"
        nxt = None
        for dep in tr.deps:
            # Gate classification is exact by construction: the scheduler
            # sets each start to the float max of dep finishes and resource
            # availability, so the gating predecessor matches bit-for-bit.
            if res[dep].end == tr.start:  # repro-lint: disable=float-time-eq -- exact by construction
                gate, nxt = "dependency", dep
                break
        if nxt is None:
            prev = prev_on_resource.get(current)
            if prev is not None and res[prev].end == tr.start:  # repro-lint: disable=float-time-eq -- exact by construction
                gate, nxt = "resource", prev
        chain.append(
            CriticalSegment(
                name=current,
                resource=tr.resource,
                tag=tr.tag,
                start=tr.start,
                end=tr.end,
                gate=gate,
            )
        )
        current = nxt
    chain.reverse()
    return CriticalPath(segments=chain, makespan=makespan, slack=slack)


@dataclass
class IterationAnalysis:
    """Bundle returned by :func:`analyze_iteration`."""

    schedule: ScheduleResult
    decomposition: TimeDecomposition
    critical_path: CriticalPath


def analyze_iteration(
    engine: "PerfEngine",
    ctx_len: int,
    n_tokens: int,
    batch: int = 1,
) -> IterationAnalysis:
    """Simulate one engine iteration and attribute its time end to end."""
    result = engine.simulate_iteration(ctx_len, n_tokens, batch)
    return IterationAnalysis(
        schedule=result,
        decomposition=decompose(result),
        critical_path=critical_path(result),
    )
