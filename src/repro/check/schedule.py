"""Dynamic invariant checks over realized schedules and serving runs.

The static linter (:mod:`repro.check.lint`) keeps discipline in the
*source*; this module checks the *output*: a realized
:class:`~repro.hardware.events.ScheduleResult` or a full
:class:`~repro.serving.metrics.ContinuousReport` is replayed against the
invariants the simulator promises —

* exclusive devices never run two tasks at once (no busy-interval races);
* no task starts before every dependency has finished;
* on every resource, each task of a DAG is a descendant of the previous
  task on that resource (the ``resource-chain`` rule, which makes the
  forward pass of :mod:`repro.hardware.events` exact);
* durations are finite and non-negative;
* each task's :class:`~repro.hardware.costmodel.TaskCost` components sum
  to its scheduled duration (the attribution contract);
* per-resource busy time and per-tag time account exactly for the task
  intervals, and the makespan is the last task end;
* KV memory is conserved (every allocate matched by one free, the pool
  never exceeds its budget, nothing leaks past the end of the run);
* nothing executes inside a device-stall fault window; and
* an attached trace reconciles with the report (busy-union drift and the
  iteration counter).

All checks report, they do not repair: each problem becomes a
:class:`Violation` carrying the offending task id and simulated
timestamp.  ``require_valid`` turns a non-empty violation list into a
:class:`ScheduleValidationError`.  Engines and the serving loop expose
this as an opt-in ``validate=True`` hook; ``repro check --only schedule`` runs
it across the bench-suite engine × machine grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.hardware.events import ScheduleResult, SimTask
    from repro.hardware.faults import FaultSchedule
    from repro.serving.metrics import ContinuousReport
    from repro.telemetry.tracer import Tracer

__all__ = [
    "Violation",
    "ScheduleValidationError",
    "KVEvent",
    "validate_schedule",
    "validate_resource_chain",
    "validate_kv_ledger",
    "validate_server_run",
    "validate_fleet_run",
    "validate_energy_report",
    "validate_fleet_energy",
    "require_valid",
]


@dataclass(frozen=True)
class Violation:
    """One invariant broken at one point of the realized schedule."""

    check: str
    message: str
    task: str | None = None
    time: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"check": self.check, "message": self.message}
        if self.task is not None:
            out["task"] = self.task
        if self.time is not None:
            out["time"] = self.time
        return out

    def format(self) -> str:
        where = ""
        if self.task is not None:
            where += f" task={self.task}"
        if self.time is not None:
            where += f" t={self.time:.6g}s"
        return f"{self.check}:{where} {self.message}"


class ScheduleValidationError(ValueError):
    """A realized schedule broke one or more simulator invariants."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        lines = [v.format() for v in self.violations[:10]]
        extra = len(self.violations) - len(lines)
        if extra > 0:
            lines.append(f"... and {extra} more")
        super().__init__(
            f"{len(self.violations)} schedule invariant violation(s):\n  "
            + "\n  ".join(lines)
        )


def require_valid(violations: Sequence[Violation]) -> None:
    """Raise :class:`ScheduleValidationError` if any violations exist."""
    if violations:
        raise ScheduleValidationError(violations)


def _tol(scale: float, rel_tol: float) -> float:
    return rel_tol * max(abs(scale), 1.0)


# ---- single-iteration schedules -------------------------------------------------


def validate_schedule(
    result: "ScheduleResult",
    tasks: Iterable["SimTask"] | None = None,
    rel_tol: float = 1e-9,
) -> list[Violation]:
    """Check one realized DAG schedule against the simulator invariants.

    Dependency edges come from each :class:`TaskResult`'s recorded
    ``deps`` (the simulator stamps them); passing the original ``tasks``
    overrides that — which is also how tests replay a tampered DAG.
    ``rel_tol`` scales every float comparison by the magnitude compared.
    """
    violations: list[Violation] = []
    results = result.tasks

    deps_of: dict[str, tuple[str, ...]] = {
        name: tr.deps for name, tr in results.items()
    }
    if tasks is not None:
        deps_of = {t.name: tuple(t.deps) for t in tasks}

    # Finite, non-negative intervals.
    for name, tr in results.items():
        for label, value in (("start", tr.start), ("end", tr.end)):
            if not math.isfinite(value):
                violations.append(
                    Violation(
                        check="non-finite-time",
                        task=name,
                        time=None,
                        message=f"{label} is {value!r}",
                    )
                )
        if math.isfinite(tr.start) and math.isfinite(tr.end) and tr.end < tr.start:
            violations.append(
                Violation(
                    check="negative-duration",
                    task=name,
                    time=tr.start,
                    message=f"end {tr.end:.6g} precedes start {tr.start:.6g}",
                )
            )

    clean = {
        name: tr
        for name, tr in results.items()
        if math.isfinite(tr.start) and math.isfinite(tr.end) and tr.end >= tr.start
    }

    # Exclusive devices: intervals on one resource must not overlap.
    by_resource: dict[str, list] = {}
    for tr in clean.values():
        by_resource.setdefault(tr.resource, []).append(tr)
    for resource in sorted(by_resource):
        intervals = sorted(by_resource[resource], key=lambda t: (t.start, t.end, t.name))
        for prev, cur in zip(intervals, intervals[1:]):
            overlap = prev.end - cur.start
            if overlap > _tol(prev.end, rel_tol):
                violations.append(
                    Violation(
                        check="device-overlap",
                        task=cur.name,
                        time=cur.start,
                        message=(
                            f"{cur.name!r} starts at {cur.start:.6g} while "
                            f"{prev.name!r} still occupies {resource!r} until "
                            f"{prev.end:.6g} (overlap {overlap:.3g}s)"
                        ),
                    )
                )

    # Dependency order: a task may not start before its deps finish.
    for name, tr in clean.items():
        for dep in deps_of.get(name, ()):
            dep_tr = clean.get(dep)
            if dep_tr is None:
                if dep not in results:
                    violations.append(
                        Violation(
                            check="missing-dependency",
                            task=name,
                            time=tr.start,
                            message=f"depends on {dep!r} which was never scheduled",
                        )
                    )
                continue
            lag = dep_tr.end - tr.start
            if lag > _tol(dep_tr.end, rel_tol):
                violations.append(
                    Violation(
                        check="dependency-order",
                        task=name,
                        time=tr.start,
                        message=(
                            f"starts at {tr.start:.6g} but dependency "
                            f"{dep!r} finishes at {dep_tr.end:.6g} "
                            f"({lag:.3g}s too early)"
                        ),
                    )
                )

    # Attribution contract: cost duration and component sum match the
    # scheduled interval bit-tightly (both are built from the same floats).
    for name, tr in clean.items():
        if tr.cost is None:
            continue
        if abs(tr.cost.duration - tr.duration) > _tol(tr.duration, rel_tol):
            violations.append(
                Violation(
                    check="cost-duration-mismatch",
                    task=name,
                    time=tr.start,
                    message=(
                        f"scheduled duration {tr.duration:.6g}s but TaskCost "
                        f"prices it at {tr.cost.duration:.6g}s"
                    ),
                )
            )
        comp_sum = sum(tr.cost.components().values())
        if abs(comp_sum - tr.cost.duration) > _tol(tr.cost.duration, rel_tol):
            violations.append(
                Violation(
                    check="cost-sum-mismatch",
                    task=name,
                    time=tr.start,
                    message=(
                        f"TaskCost components sum to {comp_sum:.6g}s, not the "
                        f"cost duration {tr.cost.duration:.6g}s"
                    ),
                )
            )

    # Busy-time accounting per resource.
    for resource, recorded in sorted(result.busy_time.items()):
        actual = sum(tr.duration for tr in clean.values() if tr.resource == resource)
        if abs(actual - recorded) > _tol(actual, rel_tol):
            violations.append(
                Violation(
                    check="busy-accounting",
                    task=None,
                    time=None,
                    message=(
                        f"resource {resource!r} busy_time {recorded:.6g}s does "
                        f"not match summed task durations {actual:.6g}s"
                    ),
                )
            )

    # Tag accounting.
    tag_actual: dict[str, float] = {}
    for tr in clean.values():
        if tr.tag:
            tag_actual[tr.tag] = tag_actual.get(tr.tag, 0.0) + tr.duration
    for tag in sorted(set(tag_actual) | set(result.tag_time)):
        actual = tag_actual.get(tag, 0.0)
        recorded = result.tag_time.get(tag, 0.0)
        if abs(actual - recorded) > _tol(actual, rel_tol):
            violations.append(
                Violation(
                    check="tag-accounting",
                    task=None,
                    time=None,
                    message=(
                        f"tag {tag!r} time {recorded:.6g}s does not match "
                        f"summed task durations {actual:.6g}s"
                    ),
                )
            )

    # Makespan is the last task end.
    last_end = max((tr.end for tr in clean.values()), default=0.0)
    if abs(result.makespan - last_end) > _tol(last_end, rel_tol):
        violations.append(
            Violation(
                check="makespan-mismatch",
                task=None,
                time=last_end,
                message=(
                    f"makespan {result.makespan:.6g}s but the last task ends "
                    f"at {last_end:.6g}s"
                ),
            )
        )

    violations.sort(key=lambda v: (v.time if v.time is not None else -1.0, v.check))
    return violations


def validate_resource_chain(tasks: Sequence["SimTask"]) -> list[Violation]:
    """The ``resource-chain`` rule over a DAG in its list order.

    On every resource, each task must be a descendant of the previous task
    listed on that resource.  Then no task can wait for its device under
    any durations (fault-perturbed machines included), so the list
    scheduler's schedule is the DAG's longest path.  The rule reads only
    names, resources and dependencies.
    """
    deps_of = {t.name: tuple(t.deps) for t in tasks}

    def descends(task: str, ancestor: str) -> bool:
        seen = {task}
        stack = list(deps_of[task])
        while stack:
            name = stack.pop()
            if name == ancestor:
                return True
            if name not in seen and name in deps_of:
                seen.add(name)
                stack.extend(deps_of[name])
        return False

    violations: list[Violation] = []
    previous: dict[str, str] = {}
    for task in tasks:
        prev = previous.get(task.resource)
        if prev is not None and not descends(task.name, prev):
            violations.append(
                Violation(
                    check="resource-chain",
                    task=task.name,
                    message=(
                        f"{task.name!r} does not descend from {prev!r}, the "
                        f"previous task on {task.resource!r}, so it may wait "
                        "for its device"
                    ),
                )
            )
        previous[task.resource] = task.name
    return violations


# ---- KV-memory conservation -----------------------------------------------------


@dataclass(frozen=True)
class KVEvent:
    """One KV-pool operation on the simulated timeline."""

    time: float
    op: str  # "alloc" | "free"
    name: str
    nbytes: float

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "op": self.op,
            "name": self.name,
            "nbytes": self.nbytes,
        }


def validate_kv_ledger(
    events: Sequence[KVEvent],
    budget: float,
    peak: float | None = None,
    rel_tol: float = 1e-9,
) -> list[Violation]:
    """Check KV-memory conservation over a run's allocation ledger.

    Invariants: events are time-ordered; every allocation names a new
    reservation with positive finite bytes; every free matches a live
    reservation and its recorded size; the pool never exceeds ``budget``;
    nothing is still live after the last event; and — when ``peak`` is
    given — the report's ``peak_kv_bytes`` equals the ledger's true peak.
    """
    violations: list[Violation] = []
    live: dict[str, float] = {}
    used = 0.0
    true_peak = 0.0
    prev_time = -math.inf
    for ev in events:
        if ev.time < prev_time:
            violations.append(
                Violation(
                    check="kv-time-order",
                    task=ev.name,
                    time=ev.time,
                    message=f"{ev.op} at {ev.time:.6g}s precedes an earlier "
                    f"event at {prev_time:.6g}s",
                )
            )
        prev_time = max(prev_time, ev.time)
        if ev.op == "alloc":
            if not math.isfinite(ev.nbytes) or ev.nbytes <= 0:
                violations.append(
                    Violation(
                        check="kv-bad-bytes",
                        task=ev.name,
                        time=ev.time,
                        message=f"allocation of {ev.nbytes!r} bytes",
                    )
                )
                continue
            if ev.name in live:
                violations.append(
                    Violation(
                        check="kv-double-alloc",
                        task=ev.name,
                        time=ev.time,
                        message=f"reservation {ev.name!r} allocated twice "
                        "without an intervening free",
                    )
                )
                continue
            live[ev.name] = ev.nbytes
            used += ev.nbytes
            true_peak = max(true_peak, used)
            over = used - budget
            if over > _tol(budget, rel_tol):
                violations.append(
                    Violation(
                        check="kv-over-budget",
                        task=ev.name,
                        time=ev.time,
                        message=(
                            f"pool holds {used:.6g} bytes after allocating "
                            f"{ev.name!r}, {over:.6g} over the "
                            f"{budget:.6g}-byte budget"
                        ),
                    )
                )
        elif ev.op == "free":
            if ev.name not in live:
                violations.append(
                    Violation(
                        check="kv-double-free",
                        task=ev.name,
                        time=ev.time,
                        message=f"free of {ev.name!r} which holds no live "
                        "reservation (double free or free-before-alloc)",
                    )
                )
                continue
            held = live.pop(ev.name)
            if abs(held - ev.nbytes) > _tol(held, rel_tol):
                violations.append(
                    Violation(
                        check="kv-size-mismatch",
                        task=ev.name,
                        time=ev.time,
                        message=(
                            f"free of {ev.nbytes:.6g} bytes but {ev.name!r} "
                            f"reserved {held:.6g}"
                        ),
                    )
                )
            used -= held
        else:
            violations.append(
                Violation(
                    check="kv-bad-op",
                    task=ev.name,
                    time=ev.time,
                    message=f"unknown ledger op {ev.op!r}",
                )
            )
    for name in sorted(live):
        violations.append(
            Violation(
                check="kv-leak",
                task=name,
                time=prev_time if events else None,
                message=f"reservation {name!r} ({live[name]:.6g} bytes) never freed",
            )
        )
    if peak is not None and abs(true_peak - peak) > _tol(true_peak, rel_tol):
        violations.append(
            Violation(
                check="kv-peak-mismatch",
                task=None,
                time=None,
                message=(
                    f"report peak_kv_bytes {peak:.6g} but the ledger peaks "
                    f"at {true_peak:.6g}"
                ),
            )
        )
    return violations


# ---- whole serving runs ---------------------------------------------------------


def validate_server_run(
    report: "ContinuousReport",
    ledger: Sequence[KVEvent] | None = None,
    budget: float | None = None,
    faults: "FaultSchedule | None" = None,
    tracer: "Tracer | None" = None,
    rel_tol: float = 1e-6,
) -> list[Violation]:
    """Check a continuous-serving run against the server's invariants.

    * ``busy_intervals`` must be non-degenerate and non-overlapping (the
      server books one iteration window at a time);
    * no busy interval may run inside a device-stall fault window (fault-
      epoch consistency: a stalled device cannot execute);
    * the KV ledger (when given) must conserve memory under ``budget``
      and reconcile with ``report.peak_kv_bytes``;
    * an attached tracer's device busy-union must match the report's
      merged busy intervals within ``rel_tol`` (relative), and its
      ``iterations`` counter must equal ``report.n_iterations``.
    """
    violations: list[Violation] = []

    intervals = sorted(report.busy_intervals)
    for start, end in intervals:
        if not (math.isfinite(start) and math.isfinite(end)) or end < start:
            violations.append(
                Violation(
                    check="bad-busy-interval",
                    task=None,
                    time=start,
                    message=f"busy interval ({start!r}, {end!r}) is degenerate",
                )
            )
    for (s0, e0), (s1, e1) in zip(intervals, intervals[1:]):
        overlap = e0 - s1
        if overlap > _tol(e0, rel_tol):
            violations.append(
                Violation(
                    check="iteration-overlap",
                    task=None,
                    time=s1,
                    message=(
                        f"iteration window starting {s1:.6g}s overlaps the "
                        f"previous window ending {e0:.6g}s by {overlap:.3g}s"
                    ),
                )
            )

    if faults is not None:
        from repro.hardware.faults import FaultKind

        stalls = [e for e in faults.events if e.kind == FaultKind.DEVICE_STALL]
        for start, end in intervals:
            for stall in stalls:
                lo = max(start, stall.start)
                hi = min(end, stall.end)
                if hi - lo > _tol(hi, rel_tol):
                    violations.append(
                        Violation(
                            check="stall-overlap",
                            task=None,
                            time=lo,
                            message=(
                                f"busy interval ({start:.6g}, {end:.6g}) runs "
                                f"{hi - lo:.3g}s inside the device stall "
                                f"({stall.start:.6g}, {stall.end:.6g})"
                            ),
                        )
                    )

    if ledger is not None:
        if budget is None:
            raise ValueError("validating a KV ledger requires the pool budget")
        violations.extend(
            validate_kv_ledger(
                ledger, budget, peak=report.peak_kv_bytes, rel_tol=rel_tol
            )
        )

    if tracer is not None and tracer.enabled:
        # Imported lazily: repro.serving.__init__ pulls in the server,
        # which imports this module — a top-level import would cycle.
        from repro.serving.metrics import merge_busy_intervals

        report_busy = merge_busy_intervals(report.busy_intervals)
        trace_busy = tracer.busy_union()
        drift = abs(trace_busy - report_busy)
        if drift > _tol(report_busy, rel_tol):
            violations.append(
                Violation(
                    check="trace-drift",
                    task=None,
                    time=None,
                    message=(
                        f"tracer busy union {trace_busy:.6g}s vs report busy "
                        f"{report_busy:.6g}s (drift {drift:.3g}s beyond "
                        f"tolerance)"
                    ),
                )
            )
        counted = tracer.metrics.counter("iterations").value
        if counted != report.n_iterations:
            violations.append(
                Violation(
                    check="iteration-count-mismatch",
                    task=None,
                    time=None,
                    message=(
                        f"tracer counted {counted} iterations but the report "
                        f"says {report.n_iterations}"
                    ),
                )
            )

    violations.sort(key=lambda v: (v.time if v.time is not None else -1.0, v.check))
    return violations


# ---- fleet runs -----------------------------------------------------------------


def validate_fleet_run(
    result, rel_tol: float = 1e-6, tracer=None
) -> list[Violation]:
    """Check a fleet run (:class:`~repro.serving.fleet.report.FleetResult`)
    against the router's invariants.

    * every replica's own run passes :func:`validate_server_run` (its
      ledger, budget, and machine-view faults — whose stall windows cover
      the replica's crashes);
    * **no request is served by a crashed replica**: no replica busy
      interval overlaps one of its ground-truth crash windows;
    * **KV is conserved across migration**: merging every replica's
      ledger events for one request id, at most one replica holds the
      request's KV at any instant (loss-then-realloc, never two at once)
      — hedged requests are exempt, duplicate residency is their point;
    * **router/replica accounting reconciles**: the four fleet
      disposition lists partition the submitted request ids exactly, and
      every completed request's stitched timeline carries exactly
      ``output_len`` tokens;
    * the realized KV-transfer schedule (when present) passes
      :func:`validate_schedule`;
    * with a :class:`~repro.telemetry.fleet.FleetTracer` passed as
      ``tracer``, the **merged fleet trace reconciles with the result**:
      each replica's trace passes the per-server trace-drift checks, the
      union of all replica device spans matches the merged report's busy
      union, the router's per-token events replay every completed
      request's TTFT/TBT timeline, and fleet disposition event counts
      equal the report's disposition list lengths — all to ``rel_tol``.
    """
    violations: list[Violation] = []
    replica_tracers = (
        {name: tracer.replica(name) for name in tracer.replica_names}
        if tracer is not None
        else {}
    )

    for rep in result.replicas:
        for v in validate_server_run(
            rep.report,
            ledger=rep.ledger,
            budget=rep.kv_budget_bytes,
            faults=rep.machine_faults,
            tracer=replica_tracers.get(rep.name),
            rel_tol=rel_tol,
        ):
            violations.append(
                Violation(
                    check=v.check,
                    task=v.task if v.task is not None else f"replica:{rep.name}",
                    time=v.time,
                    message=f"[replica {rep.name}] {v.message}",
                )
            )
        for start, end in rep.report.busy_intervals:
            for c0, c1 in rep.crash_windows:
                lo, hi = max(start, c0), min(end, c1)
                if hi - lo > _tol(hi, rel_tol):
                    violations.append(
                        Violation(
                            check="crashed-replica-served",
                            task=f"replica:{rep.name}",
                            time=lo,
                            message=(
                                f"replica {rep.name} executed "
                                f"({start:.6g}, {end:.6g}) overlapping its "
                                f"crash window ({c0:.6g}, {c1:.6g})"
                            ),
                        )
                    )

    # KV conservation across migration: merge per-request events from every
    # replica ledger; residency depth must never exceed one holder.
    by_request: dict[str, list[tuple[float, int, str, str]]] = {}
    for rep in result.replicas:
        for seq, ev in enumerate(rep.ledger):
            by_request.setdefault(ev.name, []).append(
                (ev.time, 0 if ev.op == "free" else 1, ev.op, rep.name)
            )
    hedged_names = {f"req-{rid}" for rid in result.hedged_ids}
    for name, events in sorted(by_request.items()):
        if name in hedged_names:
            continue
        depth = 0
        # At equal timestamps the old replica's free precedes the new
        # replica's alloc — a same-instant migration is legal.
        for time, _, op, rep_name in sorted(events, key=lambda e: (e[0], e[1])):
            depth += 1 if op == "alloc" else -1
            if depth > 1:
                violations.append(
                    Violation(
                        check="kv-migration-overlap",
                        task=name,
                        time=time,
                        message=(
                            f"{name} held KV on two replicas at once "
                            f"(second alloc on {rep_name} at {time:.6g}s)"
                        ),
                    )
                )
                break

    # Router/replica accounting: dispositions partition the stream.
    report = result.report
    seen: dict[int, str] = {}
    for label, ids in (
        ("completed", [m.request.request_id for m in report.completed]),
        ("timed_out", [r.request_id for r in report.timed_out]),
        ("shed", [r.request_id for r in report.shed]),
        ("failed", [r.request_id for r in report.failed]),
    ):
        for rid in ids:
            if rid in seen:
                violations.append(
                    Violation(
                        check="fleet-accounting",
                        task=f"req-{rid}",
                        time=None,
                        message=(
                            f"request {rid} has two dispositions: "
                            f"{seen[rid]} and {label}"
                        ),
                    )
                )
            seen[rid] = label

    for metrics in report.completed:
        want = metrics.request.output_len
        got = len(metrics.token_times)
        if got != want:
            violations.append(
                Violation(
                    check="token-count-mismatch",
                    task=f"req-{metrics.request.request_id}",
                    time=metrics.token_times[-1],
                    message=(
                        f"request {metrics.request.request_id} delivered "
                        f"{got} tokens but owes {want}"
                    ),
                )
            )

    if result.transfers is not None:
        for v in validate_schedule(result.transfers, rel_tol=max(rel_tol, 1e-9)):
            violations.append(
                Violation(
                    check=v.check,
                    task=v.task,
                    time=v.time,
                    message=f"[transfers] {v.message}",
                )
            )

    if tracer is not None:
        violations.extend(_reconcile_fleet_trace(result, tracer, rel_tol))

    violations.sort(key=lambda v: (v.time if v.time is not None else -1.0, v.check))
    return violations


def _reconcile_fleet_trace(result, tracer, rel_tol: float) -> list[Violation]:  # repro-lint: disable=tracer-default -- only reached when a tracer was explicitly passed
    """Fleet-trace vs :class:`FleetResult` reconciliation (see above)."""
    from repro.serving.metrics import merge_busy_intervals

    violations: list[Violation] = []
    report = result.report

    trace_busy = tracer.merged_busy_union()
    report_busy = merge_busy_intervals(report.busy_intervals)
    if abs(trace_busy - report_busy) > _tol(report_busy, rel_tol):
        violations.append(
            Violation(
                check="fleet-trace-drift",
                message=(
                    f"merged replica trace busy union {trace_busy:.9g}s != "
                    f"fleet report busy union {report_busy:.9g}s"
                ),
            )
        )

    # Per-request token timelines: the router's per-token events must
    # replay each completed request's metrics (same count, same floats,
    # hence same TTFT and every TBT gap).
    tokens: dict[int, list[float]] = {}
    disposition_counts = {
        "fleet-finish": 0,
        "fleet-timeout": 0,
        "fleet-shed": 0,
        "fleet-fail": 0,
    }
    for ev in tracer.router.request_events:
        if ev.kind == "token":
            tokens.setdefault(ev.request_id, []).append(ev.time)
        elif ev.kind in disposition_counts:
            disposition_counts[ev.kind] += 1
    for metrics in report.completed:
        rid = metrics.request.request_id
        traced = tokens.get(rid, [])
        if len(traced) != len(metrics.token_times):
            violations.append(
                Violation(
                    check="fleet-trace-tokens",
                    task=f"req-{rid}",
                    time=metrics.token_times[-1],
                    message=(
                        f"request {rid}: trace recorded {len(traced)} token "
                        f"events but the report carries "
                        f"{len(metrics.token_times)}"
                    ),
                )
            )
            continue
        for traced_t, report_t in zip(traced, metrics.token_times):
            if abs(traced_t - report_t) > _tol(report_t, rel_tol):
                violations.append(
                    Violation(
                        check="fleet-trace-tokens",
                        task=f"req-{rid}",
                        time=report_t,
                        message=(
                            f"request {rid}: traced token at "
                            f"{traced_t:.9g}s vs reported {report_t:.9g}s"
                        ),
                    )
                )
                break

    for kind, have in (
        ("fleet-finish", len(report.completed)),
        ("fleet-timeout", len(report.timed_out)),
        ("fleet-shed", len(report.shed)),
        ("fleet-fail", len(report.failed)),
    ):
        if disposition_counts[kind] != have:
            violations.append(
                Violation(
                    check="fleet-trace-dispositions",
                    message=(
                        f"trace has {disposition_counts[kind]} {kind} events "
                        f"but the report lists {have} such requests"
                    ),
                )
            )
    return violations


# ---- energy ledgers --------------------------------------------------------------


def _sweep_metered_joules(entries, idle_watts_total: float, t0: float, horizon: float) -> float:
    """Independently integrate the piecewise-constant power curve.

    Deliberately NOT :class:`repro.telemetry.power.PowerMeter`: the
    validator re-derives the meter integral with its own sweep so a bug
    (or a doctored figure) in either accounting path can't hide.
    """
    events: list[tuple[float, float]] = []
    for entry in entries:
        if entry.end <= entry.start or entry.watts == 0.0:
            continue
        events.append((max(entry.start, t0), entry.watts))
        events.append((min(entry.end, horizon), -entry.watts))
    events.sort(key=lambda ev: ev[0])
    total = idle_watts_total * max(0.0, horizon - t0)
    level = 0.0
    prev = t0
    for t, delta in events:
        total += level * max(0.0, t - prev)
        level += delta
        prev = max(prev, t)
    total += level * max(0.0, horizon - prev)
    return total


def validate_energy_report(report, rel_tol: float = 1e-6) -> list[Violation]:
    """Check one :class:`repro.telemetry.power.EnergyReport` ledger.

    The contract, checked to ``rel_tol`` (1e-6 by default):

    * every ledger entry is finite, non-negative-duration, non-negative
      wattage, and its joules are exactly watts x duration
      (``energy-task-product``);
    * every entry lies inside the metered window (``energy-horizon``);
    * ``dynamic_joules`` is the ledger sum (``energy-ledger-sum``) and
      ``static_joules`` is the idle floor over the horizon
      (``energy-static``);
    * an independent sweep integration of the instantaneous power curve
      reproduces both the report's claimed meter reading
      (``energy-meter-drift``) and the ledger total
      (``energy-ledger-drift``) — including fault-epoch DVFS windows,
      whose scaled watts feed both paths identically.
    """
    violations: list[Violation] = []
    for entry in report.tasks:
        values = (entry.start, entry.end, entry.watts, entry.joules)
        if not all(math.isfinite(v) for v in values):
            violations.append(
                Violation(
                    check="energy-task-nonfinite",
                    message=f"non-finite ledger entry {values}",
                    task=entry.name,
                    time=entry.start,
                )
            )
            continue
        if entry.end < entry.start:
            violations.append(
                Violation(
                    check="energy-task-negative",
                    message=f"negative duration {entry.end - entry.start:.6g}s",
                    task=entry.name,
                    time=entry.start,
                )
            )
        if entry.watts < 0:
            violations.append(
                Violation(
                    check="energy-task-negative",
                    message=f"negative dynamic draw {entry.watts:.6g} W",
                    task=entry.name,
                    time=entry.start,
                )
            )
        expected = entry.watts * (entry.end - entry.start)
        if abs(entry.joules - expected) > _tol(expected, rel_tol):
            violations.append(
                Violation(
                    check="energy-task-product",
                    message=(
                        f"ledger claims {entry.joules:.9g} J but "
                        f"{entry.watts:.6g} W x "
                        f"{entry.end - entry.start:.6g} s = {expected:.9g} J"
                    ),
                    task=entry.name,
                    time=entry.start,
                )
            )
        if entry.start < report.t0 - _tol(report.t0, rel_tol) or entry.end > (
            report.horizon + _tol(report.horizon, rel_tol)
        ):
            violations.append(
                Violation(
                    check="energy-horizon",
                    message=(
                        f"entry [{entry.start:.6g}, {entry.end:.6g}] s lies "
                        f"outside the metered window "
                        f"[{report.t0:.6g}, {report.horizon:.6g}] s"
                    ),
                    task=entry.name,
                    time=entry.start,
                )
            )

    ledger_sum = sum(e.joules for e in report.tasks)
    if abs(report.dynamic_joules - ledger_sum) > _tol(ledger_sum, rel_tol):
        violations.append(
            Violation(
                check="energy-ledger-sum",
                message=(
                    f"report claims {report.dynamic_joules:.9g} J dynamic but "
                    f"the per-task ledger sums to {ledger_sum:.9g} J"
                ),
            )
        )
    idle_total = sum(report.idle.values())
    expected_static = idle_total * max(0.0, report.horizon - report.t0)
    if abs(report.static_joules - expected_static) > _tol(expected_static, rel_tol):
        violations.append(
            Violation(
                check="energy-static",
                message=(
                    f"report claims {report.static_joules:.9g} J static but "
                    f"{idle_total:.6g} W idle over "
                    f"{report.horizon - report.t0:.6g} s = "
                    f"{expected_static:.9g} J"
                ),
            )
        )
    metered = _sweep_metered_joules(
        report.tasks, idle_total, report.t0, report.horizon
    )
    if abs(report.metered_joules - metered) > _tol(metered, rel_tol):
        violations.append(
            Violation(
                check="energy-meter-drift",
                message=(
                    f"report's meter reads {report.metered_joules:.9g} J but "
                    f"an independent sweep integrates {metered:.9g} J"
                ),
            )
        )
    total = ledger_sum + expected_static
    if abs(metered - total) > _tol(total, rel_tol):
        violations.append(
            Violation(
                check="energy-ledger-drift",
                message=(
                    f"integrated power meter reads {metered:.9g} J but the "
                    f"per-task ledger + idle floor sums to {total:.9g} J "
                    f"(drift {metered - total:.3g} J)"
                ),
            )
        )
    return violations


def validate_fleet_energy(fleet_report, rel_tol: float = 1e-6) -> list[Violation]:
    """Check a :class:`repro.telemetry.power.FleetEnergyReport`.

    Runs :func:`validate_energy_report` on every replica and the
    interconnect (messages prefixed with the part's label), then checks
    that the fleet totals are exactly the sums of their parts
    (``fleet-energy-sum``).
    """
    violations: list[Violation] = []
    parts = list(fleet_report.replicas)
    if fleet_report.interconnect is not None:
        parts.append(fleet_report.interconnect)
    for part in parts:
        for violation in validate_energy_report(part, rel_tol=rel_tol):
            violations.append(
                Violation(
                    check=violation.check,
                    message=f"[{part.label}] {violation.message}",
                    task=violation.task,
                    time=violation.time,
                )
            )
    for field_name in ("dynamic_joules", "static_joules", "metered_joules"):
        claimed = getattr(fleet_report, field_name)
        summed = sum(getattr(part, field_name) for part in parts)
        if abs(claimed - summed) > _tol(summed, rel_tol):
            violations.append(
                Violation(
                    check="fleet-energy-sum",
                    message=(
                        f"fleet {field_name} {claimed:.9g} J != sum over "
                        f"replicas+interconnect {summed:.9g} J"
                    ),
                )
            )
    return violations
