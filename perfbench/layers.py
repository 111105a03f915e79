"""Layer spans for the traced run, recorded from outside the simulator.

The traced run wraps the public functions each layer of ``repro`` exposes,
patched where their callers look them up, and restores them afterwards.
Nothing under ``src/`` knows it is being measured.  A wrapper records one
span (id, name, start, end, parent) per call; a layer's *self* time is its
spans' durations minus the time covered by the spans nested in them, so
the self times of all layers plus the benchmark's own root spans
("setup", "run") add up to the traced wall time exactly.

Wrappers cost a few microseconds per call.  The cost-cache lookup, by far
the most frequent call, is counted without a span to keep the overhead
small; its misses show up as engine and DES spans anyway.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from repro.bench import runner
from repro.check import schedule as check_schedule
from repro.core import pipeline
from repro.engine.plan import DeploymentPlan
from repro.hardware.events import EventSimulator
from repro.serving.continuous import IterationCostCache, ServerSession
from repro.serving.fleet.router import FleetRouter
from repro.telemetry import power
from repro.telemetry.tracer import Tracer

ROOTS = ("setup", "run")

# span name -> per-layer metric reporting its self time
SELF_TIME_METRICS = {
    "core.profiles.synthesize": "core.profiles.synthesize_s",
    "solver.ilp.solve": "solver.ilp.solve_s",
    "core.pipeline.build_plan": "core.pipeline.build_plan_self_s",
    "engine.plan.split": "engine.plan.split_s",
    "engine.iteration_tasks": "engine.iteration_tasks_self_s",
    "hardware.events.run": "hardware.events.run_s",
    "serving.continuous.step": "serving.continuous.step_self_s",
    "serving.fleet.router.run": "serving.fleet.router.self_s",
    "telemetry.tracer.add_schedule": "telemetry.tracer.add_schedule_s",
    "telemetry.power.sample_fleet_power": "telemetry.power.sample_fleet_power_s",
    "telemetry.power.fleet_energy": "telemetry.power.fleet_energy_s",
    "check.schedule.validate_fleet_run": "check.schedule.validate_fleet_run_s",
}

# span name -> per-layer metric counting its calls
CALL_COUNT_METRICS = {
    "core.profiles.synthesize": "core.profiles.calls",
    "solver.ilp.solve": "solver.ilp.calls",
    "core.pipeline.build_plan": "core.pipeline.plans_built",
    "engine.plan.split": "engine.plan.split_calls",
    "engine.iteration_tasks": "engine.dags_built",
    "hardware.events.run": "hardware.events.runs",
    "telemetry.tracer.add_schedule": "telemetry.tracer.add_schedule_calls",
}


class SpanRecorder:
    """In-memory spans, self time per span name, and event counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [id, name, start, time covered by children]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, name, start, end, parent[0] if parent else None))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent in sorted(self.spans, key=lambda s: s[2])
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)


def _spanned(rec: SpanRecorder, name: str, fn, count=None):
    """``fn`` inside a span; ``count(args, result)`` adds to counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if count is not None:
            count(args, result)
        return result

    return wrapper


def _counted_cost(rec: SpanRecorder, fn):
    """``IterationCostCache.cost`` counting calls and misses, without a span."""
    counts = rec.counts

    @functools.wraps(fn)
    def cost(self, *args, **kwargs):
        before = len(self)
        result = fn(self, *args, **kwargs)
        counts["cost_calls"] += 1
        counts["cost_misses"] += len(self) - before
        return result

    return cost


def _adds(rec: SpanRecorder, key: str, measure):
    """A ``count`` hook adding ``measure(args, result)`` to ``rec.counts[key]``."""

    def count(args, result):
        rec.counts[key] += measure(args, result)

    return count


def _patch_points(rec: SpanRecorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every layer boundary."""
    points = [
        # Offline plan: runner -> pipeline -> profiles / ILP.
        (runner, "build_plan", _spanned(rec, "core.pipeline.build_plan", runner.build_plan)),
        (
            pipeline,
            "synthesize_model_probs",
            _spanned(rec, "core.profiles.synthesize", pipeline.synthesize_model_probs),
        ),
        (pipeline, "solve_ilp", _spanned(rec, "solver.ilp.solve", pipeline.solve_ilp)),
        # Engine: split math and DAG construction.
        (
            DeploymentPlan,
            "mlp_active_split",
            _spanned(rec, "engine.plan.split", DeploymentPlan.mlp_active_split),
        ),
        (
            DeploymentPlan,
            "attn_active_split",
            _spanned(rec, "engine.plan.split", DeploymentPlan.attn_active_split),
        ),
        # DES.
        (
            EventSimulator,
            "run",
            _spanned(
                rec,
                "hardware.events.run",
                EventSimulator.run,
                count=_adds(rec, "tasks_scheduled", lambda args, result: len(args[1])),
            ),
        ),
        # Serving loop and router.
        (IterationCostCache, "cost", _counted_cost(rec, IterationCostCache.cost)),
        (ServerSession, "step", _spanned(rec, "serving.continuous.step", ServerSession.step)),
        (FleetRouter, "run", _spanned(rec, "serving.fleet.router.run", FleetRouter.run)),
        # Telemetry and checking.
        (
            Tracer,
            "add_schedule",
            _spanned(rec, "telemetry.tracer.add_schedule", Tracer.add_schedule),
        ),
        (
            power,
            "sample_fleet_power",
            _spanned(rec, "telemetry.power.sample_fleet_power", power.sample_fleet_power),
        ),
        (
            power,
            "fleet_energy",
            _spanned(rec, "telemetry.power.fleet_energy", power.fleet_energy),
        ),
        (
            check_schedule,
            "validate_fleet_run",
            _spanned(
                rec, "check.schedule.validate_fleet_run", check_schedule.validate_fleet_run
            ),
        ),
    ]
    # iteration_tasks is abstract on PerfEngine; wrap each implementation.
    for cls in dict.fromkeys(runner.ENGINE_CLASSES.values()):
        if "iteration_tasks" in vars(cls):
            points.append(
                (
                    cls,
                    "iteration_tasks",
                    _spanned(
                        rec,
                        "engine.iteration_tasks",
                        cls.iteration_tasks,
                        count=_adds(rec, "tasks_built", lambda args, result: len(result)),
                    ),
                )
            )
    return points


@contextmanager
def layer_spans(rec: SpanRecorder):
    """Wrap every layer boundary for the duration of the block."""
    points = _patch_points(rec)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in points]
    try:
        for owner, attr, replacement in points:
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
