"""Energy, power, and carbon metering over realized schedules.

Everything the simulator schedules already carries the quantities a
power model needs — each task's roofline :class:`~repro.hardware
.costmodel.TaskCost` says whether the interval was memory- or
compute-bound, and the :class:`~repro.hardware.spec.DeviceSpec` /
:class:`~repro.hardware.spec.LinkSpec` power envelopes say what those
states draw.  This module turns realized schedules (or recorded traces)
into energy the same way the rest of the telemetry stack works: purely
post-hoc, on the simulated clock, provably changing nothing about the
simulation itself.

The model is linear and reconciles exactly by construction:

* a device draws ``idle_watts`` for the whole horizon (static energy),
* each task adds *dynamic* watts above idle for its duration —
  ``peak - idle`` when compute-bound, ``busy - idle`` when memory-bound
  (transfers draw the link's ``busy - idle``),
* an active GPU/CPU throttle fault divides clocks by ``m``, so dynamic
  power scales by ``(1/m)**DVFS_ALPHA`` (the cube law) while the
  realized duration already reflects the slowdown,
* a crashed replica has no task spans inside its crash window (the
  schedule validator proves this), so it draws idle-only power there.

Two independent accounting paths cross-check each other:

* the **ledger**: per-task ``watts x duration`` products summed, plus
  idle over the horizon, and
* the **meter**: a :class:`PowerMeter` sweep that integrates the
  piecewise-constant instantaneous power curve over span boundaries.

``repro.check.schedule.validate_energy_report`` re-derives the meter
integral and requires the two paths to agree to 1e-6 — the same
trace-vs-report discipline the tracer uses.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.hardware.faults import FaultKind, FaultSchedule
from repro.hardware.spec import DeviceKind, LinkSpec, MachineSpec
from repro.telemetry.fleet import SAMPLE_INTERVAL_S
from repro.units import (
    GramsCO2,
    GramsCO2PerKilowattHour,
    Joules,
    JoulesPerToken,
    Ratio,
    Seconds,
    Tokens,
    Watts,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.engine.base import PerfEngine
    from repro.hardware.events import ScheduleResult
    from repro.serving.fleet.report import FleetResult
    from repro.telemetry.fleet import FleetTracer
    from repro.telemetry.tracer import Tracer

__all__ = [
    "DEFAULT_CARBON_INTENSITY",
    "DVFS_ALPHA",
    "EnergyReport",
    "FleetEnergyReport",
    "PowerModel",
    "PowerMeter",
    "RequestEnergy",
    "TaskEnergy",
    "active_watts",
    "fleet_energy",
    "grams_co2",
    "idle_watts",
    "request_energy",
    "sample_fleet_power",
    "schedule_energy",
    "tracer_energy",
]

# Global-average grid carbon intensity, gCO2 per kWh (Ember 2023 figure;
# override per deployment region via PowerModel.carbon_intensity).
DEFAULT_CARBON_INTENSITY: GramsCO2PerKilowattHour = 400.0
# DVFS cube law: dynamic power ~ f * V^2 with V roughly linear in f.
DVFS_ALPHA: Ratio = 3.0
# Exact by definition: 1 kWh = 1000 W x 3600 s = 3.6e6 J.  A pure unit
# conversion (J per kWh), hence dimensionless in the J-based unit system;
# tests/telemetry/test_power_units.py pins the factor.
_J_PER_KWH: Ratio = 3.6e6

# Device lanes the energy model prices.  Anything else on a tracer
# (request lanes, fault annotation lanes) carries no task spans.
_TRANSFER_LANES = ("pcie", "interconnect")


@dataclass(frozen=True)
class PowerModel:
    """Tunable knobs of the power/carbon model (never affects timing)."""

    carbon_intensity: GramsCO2PerKilowattHour = DEFAULT_CARBON_INTENSITY

    def __post_init__(self) -> None:
        if self.carbon_intensity < 0:
            raise ValueError("carbon_intensity must be non-negative")


DEFAULT_POWER_MODEL = PowerModel()


def grams_co2(
    joules: Joules, intensity: GramsCO2PerKilowattHour = DEFAULT_CARBON_INTENSITY
) -> GramsCO2:
    """Operational carbon for ``joules`` at ``intensity`` gCO2/kWh."""
    return joules / _J_PER_KWH * intensity


def idle_watts(machine: MachineSpec) -> dict[str, Watts]:
    """Static draw per device lane of one machine, watts."""
    return {
        DeviceKind.GPU: machine.gpu.idle_watts,
        DeviceKind.CPU: machine.cpu.idle_watts,
        "pcie": machine.link.idle_watts,
    }


def _dvfs_scale(resource: str, faults: FaultSchedule | None, at: Seconds) -> Ratio:
    """Dynamic-power scale from throttle faults active at time ``at``.

    A throttle of magnitude ``m`` divides the device clock by ``m``
    (matching :meth:`FaultSchedule.perturbed_machine`), so dynamic power
    falls by ``(1/m)**DVFS_ALPHA``.  PCIe degradation is contention, not
    a frequency change, and does not scale power.
    """
    if faults is None:
        return 1.0
    div = 1.0
    for event in faults.active(at):
        if resource == DeviceKind.GPU and event.kind == FaultKind.GPU_THROTTLE:
            div *= event.magnitude
        elif resource == DeviceKind.CPU and event.kind == FaultKind.CPU_THROTTLE:
            div *= event.magnitude
    if div == 1.0:
        return 1.0
    return (1.0 / div) ** DVFS_ALPHA


def active_watts(
    resource: str,
    cost,
    machine: MachineSpec | None,
    faults: FaultSchedule | None = None,
    at: Seconds = 0.0,
    link: LinkSpec | None = None,
) -> Watts:
    """Dynamic watts *above idle* drawn by one task on ``resource``.

    ``cost`` is the task's :class:`TaskCost` (or ``None`` for an
    uncosted task, priced as memory-bound).  ``link`` overrides the
    machine's PCIe link for off-machine lanes (the fleet interconnect).
    """
    if resource in (DeviceKind.GPU, DeviceKind.CPU):
        if machine is None:
            raise ValueError(f"resource {resource!r} needs a MachineSpec")
        device = machine.device(resource)
        if cost is not None and cost.bound == "compute":
            dynamic = device.peak_watts - device.idle_watts
        else:
            dynamic = device.busy_watts - device.idle_watts
        return dynamic * _dvfs_scale(resource, faults, at)
    if resource in _TRANSFER_LANES:
        spec = link
        if spec is None:
            if machine is None:
                raise ValueError(f"resource {resource!r} needs a LinkSpec")
            spec = machine.link
        return spec.busy_watts - spec.idle_watts
    # Unknown lane (nothing the engines schedule): draws nothing.
    return 0.0


@dataclass(frozen=True)
class TaskEnergy:
    """One ledger entry: a task's dynamic power draw over its interval."""

    name: str
    resource: str
    start: Seconds
    end: Seconds
    watts: Watts
    joules: Joules

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "resource": self.resource,
            "start": self.start,
            "end": self.end,
            "watts": self.watts,
            "joules": self.joules,
        }


class PowerMeter:
    """Piecewise-constant instantaneous power on the simulated clock.

    Built by a sweep over task-interval boundaries: total power on each
    segment is the constant idle floor plus the sum of dynamic watts of
    every task covering the segment.  This integrates overlap correctly
    by construction — concurrent tasks stack their *dynamic* draws while
    idle power is counted exactly once — and is a genuinely different
    accounting path from the per-task ledger, which is what makes the
    1e-6 reconciliation between the two a real check.
    """

    def __init__(
        self,
        entries: Iterable[tuple[Seconds, Seconds, Watts]],
        idle_watts_total: Watts,
        t0: Seconds = 0.0,
        horizon: Seconds | None = None,
    ) -> None:
        events: list[tuple[float, float]] = []
        max_end = t0
        for start, end, watts in entries:
            if end > max_end:
                max_end = end
            if end <= start or watts == 0.0:
                continue  # zero-duration or zero-draw: contributes 0 J
            events.append((start, watts))
            events.append((end, -watts))
        if horizon is None:
            horizon = max_end
        events.sort(key=lambda ev: ev[0])

        self.t0 = t0
        self.horizon = max(horizon, t0)
        self.idle_watts_total = idle_watts_total
        times: list[float] = [t0]
        powers: list[float] = []
        cum: list[float] = [0.0]
        level = 0.0
        i = 0
        while i < len(events):
            t = events[i][0]
            delta = 0.0
            while i < len(events) and events[i][0] <= t:
                delta += events[i][1]
                i += 1
            if t > times[-1]:
                powers.append(idle_watts_total + level)
                cum.append(cum[-1] + powers[-1] * (t - times[-1]))
                times.append(t)
            level += delta
        if self.horizon > times[-1]:
            powers.append(idle_watts_total + level)
            cum.append(cum[-1] + powers[-1] * (self.horizon - times[-1]))
            times.append(self.horizon)
        self._times = times
        self._powers = powers
        self._cum = cum

    def power_at(self, t: Seconds) -> Watts:
        """Instantaneous watts at simulated time ``t``."""
        if t < self.t0 or t >= self._times[-1]:
            return self.idle_watts_total
        k = bisect_right(self._times, t) - 1
        return self._powers[min(k, len(self._powers) - 1)]

    def cumulative_joules(self, t: Seconds) -> Joules:
        """Energy metered over ``[t0, t]`` (clamped to the horizon)."""
        if t <= self.t0:
            return 0.0
        if t >= self._times[-1]:
            return self._cum[-1] + self.idle_watts_total * max(
                0.0, min(t, self.horizon) - self._times[-1]
            )
        k = bisect_right(self._times, t) - 1
        return self._cum[k] + self._powers[min(k, len(self._powers) - 1)] * (
            t - self._times[k]
        )

    def energy_between(self, a: Seconds, b: Seconds) -> Joules:
        """Energy metered over ``[a, b]``, joules."""
        return self.cumulative_joules(b) - self.cumulative_joules(a)

    @property
    def total_joules(self) -> Joules:
        """Energy metered over the whole ``[t0, horizon]`` window."""
        return self.cumulative_joules(self.horizon)


@dataclass(frozen=True)
class EnergyReport:
    """Energy accounting of one machine over one realized schedule.

    ``dynamic_joules`` + ``static_joules`` come from the per-task ledger;
    ``metered_joules`` comes from the independent :class:`PowerMeter`
    sweep.  They agree to float noise unless something is broken (or
    doctored) — ``validate_energy_report`` enforces it.
    """

    label: str
    machine: str
    t0: Seconds
    horizon: Seconds
    idle: Mapping[str, Watts]
    tasks: tuple[TaskEnergy, ...]
    dynamic_joules: Joules
    static_joules: Joules
    metered_joules: Joules
    model: PowerModel = field(default_factory=PowerModel)

    @property
    def total_joules(self) -> Joules:
        return self.static_joules + self.dynamic_joules

    @property
    def duration(self) -> Seconds:
        return max(0.0, self.horizon - self.t0)

    @property
    def avg_watts(self) -> Watts:
        return self.total_joules / self.duration if self.duration > 0 else 0.0

    def by_resource(self) -> dict[str, Joules]:
        """Dynamic joules per device lane."""
        out: dict[str, Joules] = {}
        for entry in self.tasks:
            out[entry.resource] = out.get(entry.resource, 0.0) + entry.joules
        return out

    def grams_co2(self) -> GramsCO2:
        return grams_co2(self.total_joules, self.model.carbon_intensity)

    def j_per_token(self, n_tokens: Tokens) -> JoulesPerToken:
        if n_tokens <= 0:
            return math.inf
        return self.total_joules / n_tokens

    def meter(self) -> PowerMeter:
        """Rebuild the power meter over this report's ledger."""
        return PowerMeter(
            [(e.start, e.end, e.watts) for e in self.tasks],
            sum(self.idle.values()),
            t0=self.t0,
            horizon=self.horizon,
        )

    def lane_meter(self, resource: str) -> PowerMeter:
        """A meter for one device lane only (its idle floor included)."""
        return PowerMeter(
            [(e.start, e.end, e.watts) for e in self.tasks if e.resource == resource],
            self.idle.get(resource, 0.0),
            t0=self.t0,
            horizon=self.horizon,
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "machine": self.machine,
            "t0": self.t0,
            "horizon": self.horizon,
            "idle_watts": dict(self.idle),
            "n_tasks": len(self.tasks),
            "dynamic_joules": self.dynamic_joules,
            "static_joules": self.static_joules,
            "metered_joules": self.metered_joules,
            "total_joules": self.total_joules,
            "avg_watts": self.avg_watts,
            "grams_co2": self.grams_co2(),
            "by_resource": self.by_resource(),
            "carbon_intensity_g_per_kwh": self.model.carbon_intensity,
        }


def _ledger_entry(
    name: str,
    resource: str,
    start: Seconds,
    end: Seconds,
    cost,
    machine: MachineSpec | None,
    faults: FaultSchedule | None,
    link: LinkSpec | None,
) -> TaskEnergy:
    watts = active_watts(resource, cost, machine, faults=faults, at=start, link=link)
    return TaskEnergy(
        name=name,
        resource=resource,
        start=start,
        end=end,
        watts=watts,
        joules=watts * (end - start),
    )


def _build_report(
    entries: Sequence[TaskEnergy],
    idle: Mapping[str, Watts],
    t0: Seconds,
    horizon: Seconds,
    model: PowerModel,
    label: str,
    machine_name: str,
) -> EnergyReport:
    dynamic = sum(e.joules for e in entries)
    static = sum(idle.values()) * max(0.0, horizon - t0)
    meter = PowerMeter(
        [(e.start, e.end, e.watts) for e in entries],
        sum(idle.values()),
        t0=t0,
        horizon=horizon,
    )
    return EnergyReport(
        label=label,
        machine=machine_name,
        t0=t0,
        horizon=horizon,
        idle=dict(idle),
        tasks=tuple(entries),
        dynamic_joules=dynamic,
        static_joules=static,
        metered_joules=meter.total_joules,
        model=model,
    )


def schedule_energy(
    result: "ScheduleResult",
    machine: MachineSpec,
    faults: FaultSchedule | None = None,
    t0: Seconds = 0.0,
    horizon: Seconds | None = None,
    model: PowerModel | None = None,
    label: str = "schedule",
) -> EnergyReport:
    """Energy of one realized :class:`ScheduleResult` on ``machine``.

    Task times are schedule-local; ``t0`` anchors them on the global
    clock, where ``faults`` epochs are looked up — the same lookup
    :class:`~repro.serving.continuous.IterationCostCache` makes before it
    prices an iteration on the perturbed machine.
    """
    model = DEFAULT_POWER_MODEL if model is None else model
    if horizon is None:
        horizon = t0 + result.makespan
    entries = [
        _ledger_entry(
            task.name,
            task.resource,
            t0 + task.start,
            t0 + task.end,
            task.cost,
            machine,
            faults,
            link=None,
        )
        for task in result.tasks.values()
    ]
    return _build_report(
        entries, idle_watts(machine), t0, horizon, model, label, machine.name
    )


def tracer_energy(
    tracer,  # repro-lint: disable=tracer-default -- metering *reads* a recorded trace; a None tracer is meaningless here
    machine: MachineSpec,
    faults: FaultSchedule | None = None,
    horizon: Seconds | None = None,
    model: PowerModel | None = None,
    label: str = "trace",
) -> EnergyReport:
    """Energy of everything a :class:`Tracer` recorded on ``machine``.

    Task spans are already on the global clock.  ``faults`` should be
    the same schedule the traced run was perturbed by (for a fleet
    replica: its ``machine_view()``), so DVFS windows price exactly the
    spans that were slowed down.
    """
    model = DEFAULT_POWER_MODEL if model is None else model
    spans = tracer.task_spans
    if horizon is None:
        horizon = max((span.end for span in spans), default=0.0)
    entries = [
        _ledger_entry(
            span.name,
            span.lane,
            span.start,
            span.end,
            span.cost,
            machine,
            faults,
            link=None,
        )
        for span in spans
    ]
    return _build_report(
        entries, idle_watts(machine), 0.0, horizon, model, label, machine.name
    )


def transfers_energy(
    transfers: "ScheduleResult",
    link: LinkSpec,
    horizon: Seconds,
    model: PowerModel | None = None,
    label: str = "interconnect",
) -> EnergyReport:
    """Energy of the fleet interconnect's KV-transfer schedule."""
    model = DEFAULT_POWER_MODEL if model is None else model
    entries = [
        _ledger_entry(
            task.name,
            task.resource,
            task.start,
            task.end,
            task.cost,
            None,
            None,
            link=link,
        )
        for task in transfers.tasks.values()
    ]
    return _build_report(
        entries,
        {"interconnect": link.idle_watts},
        0.0,
        horizon,
        model,
        label,
        link.name,
    )


# ---- request-level J/token ----------------------------------------------------


@dataclass(frozen=True)
class RequestEnergy:
    """Energy of one full request (prompt + ``output_len`` decode steps).

    Mirrors :meth:`PerfEngine.simulate_request` sampling: decode energy
    is evaluated at a few context lengths and scaled, exactly like
    decode *time* is.  ``j_per_token`` is per *generated* token.
    """

    engine: str
    model_name: str
    machine: str
    input_len: int
    output_len: int
    batch: int
    duration_s: Seconds
    dynamic_joules: Joules
    static_joules: Joules
    carbon_intensity: GramsCO2PerKilowattHour

    @property
    def total_joules(self) -> Joules:
        return self.static_joules + self.dynamic_joules

    @property
    def j_per_token(self) -> JoulesPerToken:
        return self.total_joules / (self.output_len * self.batch)

    @property
    def avg_watts(self) -> Watts:
        return self.total_joules / self.duration_s if self.duration_s > 0 else 0.0

    def grams_co2(self) -> GramsCO2:
        return grams_co2(self.total_joules, self.carbon_intensity)

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "model": self.model_name,
            "machine": self.machine,
            "input_len": self.input_len,
            "output_len": self.output_len,
            "batch": self.batch,
            "duration_s": self.duration_s,
            "dynamic_joules": self.dynamic_joules,
            "static_joules": self.static_joules,
            "total_joules": self.total_joules,
            "j_per_token": self.j_per_token,
            "avg_watts": self.avg_watts,
            "grams_co2": self.grams_co2(),
        }


def request_energy(
    engine: "PerfEngine",
    input_len: int,
    output_len: int,
    batch: int = 1,
    decode_samples: int = 4,
    model: PowerModel | None = None,
) -> RequestEnergy:
    """Energy of one request, sampled like ``simulate_request``.

    Dynamic energy: the prompt iteration's ledger plus the mean sampled
    decode iteration's ledger scaled to ``output_len`` steps.  Static
    energy: the machine's idle floor over the request's total duration.
    Deterministic (expected activations, no RNG), so it can regression-
    gate J/token in the bench baseline.
    """
    model = DEFAULT_POWER_MODEL if model is None else model
    if input_len <= 0 or output_len <= 0 or batch <= 0:
        raise ValueError("input_len, output_len, batch must be positive")
    if decode_samples < 1:
        raise ValueError("decode_samples must be >= 1")
    prompt = engine.simulate_iteration(0, input_len, batch)
    dynamic = schedule_energy(prompt, engine.machine, model=model).dynamic_joules

    samples = min(decode_samples, output_len)
    ctx_points = np.linspace(input_len, input_len + output_len - 1, samples)
    decode_time = 0.0
    decode_dynamic = 0.0
    for ctx in ctx_points:
        step = engine.simulate_iteration(int(ctx), 1, batch)
        decode_time += step.makespan
        decode_dynamic += schedule_energy(
            step, engine.machine, model=model
        ).dynamic_joules
    scale = output_len / samples
    duration = prompt.makespan + decode_time * scale
    dynamic += decode_dynamic * scale
    static = sum(idle_watts(engine.machine).values()) * duration
    return RequestEnergy(
        engine=engine.name,
        model_name=engine.model.name,
        machine=engine.machine.name,
        input_len=input_len,
        output_len=output_len,
        batch=batch,
        duration_s=duration,
        dynamic_joules=dynamic,
        static_joules=static,
        carbon_intensity=model.carbon_intensity,
    )


# ---- fleet-wide energy --------------------------------------------------------


@dataclass(frozen=True)
class FleetEnergyReport:
    """Per-replica energy reports plus the interconnect, one fleet run."""

    horizon: Seconds
    replicas: tuple[EnergyReport, ...]
    interconnect: EnergyReport | None
    model: PowerModel = field(default_factory=PowerModel)

    def _parts(self) -> tuple[EnergyReport, ...]:
        if self.interconnect is None:
            return self.replicas
        return self.replicas + (self.interconnect,)

    @property
    def dynamic_joules(self) -> Joules:
        return sum(part.dynamic_joules for part in self._parts())

    @property
    def static_joules(self) -> Joules:
        return sum(part.static_joules for part in self._parts())

    @property
    def metered_joules(self) -> Joules:
        return sum(part.metered_joules for part in self._parts())

    @property
    def total_joules(self) -> Joules:
        return self.static_joules + self.dynamic_joules

    @property
    def avg_watts(self) -> Watts:
        return self.total_joules / self.horizon if self.horizon > 0 else 0.0

    def grams_co2(self) -> GramsCO2:
        return grams_co2(self.total_joules, self.model.carbon_intensity)

    def j_per_token(self, n_tokens: Tokens) -> JoulesPerToken:
        if n_tokens <= 0:
            return math.inf
        return self.total_joules / n_tokens

    def replica(self, name: str) -> EnergyReport:
        for report in self.replicas:
            if report.label == name:
                return report
        raise KeyError(f"no replica energy report named {name!r}")

    def meter(self) -> PowerMeter:
        """One merged meter over every replica and the interconnect."""
        entries: list[tuple[Seconds, Seconds, Watts]] = []
        idle_total = 0.0
        for part in self._parts():
            entries.extend((e.start, e.end, e.watts) for e in part.tasks)
            idle_total += sum(part.idle.values())
        return PowerMeter(entries, idle_total, t0=0.0, horizon=self.horizon)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "dynamic_joules": self.dynamic_joules,
            "static_joules": self.static_joules,
            "metered_joules": self.metered_joules,
            "total_joules": self.total_joules,
            "avg_watts": self.avg_watts,
            "grams_co2": self.grams_co2(),
            "carbon_intensity_g_per_kwh": self.model.carbon_intensity,
            "replicas": [report.to_dict() for report in self.replicas],
            "interconnect": (
                self.interconnect.to_dict() if self.interconnect is not None else None
            ),
        }


def fleet_generated_tokens(result: "FleetResult") -> Tokens:
    """Tokens actually generated fleet-wide (completed + timed-out)."""
    report = result.report
    return sum(m.n_tokens for m in report.completed) + sum(
        m.n_tokens for m in report.timed_out
    )


def fleet_energy(
    result: "FleetResult",
    tracer: "FleetTracer",  # repro-lint: disable=tracer-default -- metering *reads* a recorded fleet trace; a None tracer is meaningless here
    model: PowerModel | None = None,
) -> FleetEnergyReport:
    """Energy of one fleet run from its result plus its deep trace.

    Each replica is priced on its own :class:`MachineSpec` under its own
    ``machine_view()`` fault schedule (so recovery-warm-up throttles DVFS
    its power and crash windows draw idle only); KV transfers are priced
    on the interconnect link.  Requires the run to have been driven with
    a :class:`FleetTracer` (energy needs the realized spans) and a
    router recent enough to stamp ``machine_spec`` onto its summaries.
    """
    model = DEFAULT_POWER_MODEL if model is None else model
    reports = []
    for summary in result.replicas:
        if summary.machine_spec is None:
            raise ValueError(
                f"replica {summary.name!r} carries no MachineSpec; "
                "fleet_energy needs a FleetResult assembled by FleetRouter"
            )
        reports.append(
            tracer_energy(
                tracer.replica(summary.name),
                summary.machine_spec,
                faults=summary.machine_faults,
                horizon=result.horizon,
                model=model,
                label=summary.name,
            )
        )
    interconnect = None
    if result.transfers is not None and result.interconnect is not None:
        interconnect = transfers_energy(
            result.transfers,
            result.interconnect,
            horizon=result.horizon,
            model=model,
        )
    return FleetEnergyReport(
        horizon=result.horizon,
        replicas=tuple(reports),
        interconnect=interconnect,
        model=model,
    )


# ---- sampling power onto telemetry lanes --------------------------------------


def sample_fleet_power(
    tracer: "FleetTracer",  # repro-lint: disable=tracer-default -- sampling *augments* a recorded fleet trace; a None tracer is meaningless here
    energy: FleetEnergyReport,
) -> None:
    """Sample per-replica watt lanes of ``energy`` into the fleet time-series bank.

    ``energy`` is the :func:`fleet_energy` report of the run ``tracer``
    recorded, so a caller that meters a run once can also plot it.  Runs
    on the same tick grid the router sampled (read back from the
    ``fleet/up_replicas`` series, falling back to the
    ``SAMPLE_INTERVAL_S`` grid), appending ``{replica}/gpu_watts`` /
    ``{replica}/cpu_watts`` / ``{replica}/pcie_watts`` /
    ``{replica}/watts`` lanes plus ``fleet/interconnect_watts`` and the
    fleet-total ``fleet/watts``.  Post-hoc only: nothing about the run
    changes.
    """
    bank = tracer.timeseries
    if "fleet/up_replicas" in bank:
        ticks = [t for t, _ in bank.series("fleet/up_replicas").samples()]
    else:
        step = SAMPLE_INTERVAL_S
        ticks = []
        t = 0.0
        while t <= energy.horizon:
            ticks.append(t)
            t += step
    fleet_meter = energy.meter()
    lane_meters = []
    for report in energy.replicas:
        meters = {lane: report.lane_meter(lane) for lane in report.idle}
        meters["total"] = report.meter()
        lane_meters.append((report.label, meters))
    link_meter = (
        energy.interconnect.meter() if energy.interconnect is not None else None
    )
    for t in ticks:
        for name, meters in lane_meters:
            bank.sample(f"{name}/gpu_watts", t, meters[DeviceKind.GPU].power_at(t))
            bank.sample(f"{name}/cpu_watts", t, meters[DeviceKind.CPU].power_at(t))
            bank.sample(f"{name}/pcie_watts", t, meters["pcie"].power_at(t))
            bank.sample(f"{name}/watts", t, meters["total"].power_at(t))
        if link_meter is not None:
            bank.sample("fleet/interconnect_watts", t, link_meter.power_at(t))
        bank.sample("fleet/watts", t, fleet_meter.power_at(t))
