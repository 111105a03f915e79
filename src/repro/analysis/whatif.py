"""What-if sensitivity: re-price one iteration under hardware knobs.

The attribution layer says where time went; the next question is *what
single knob would help most*.  Each knob perturbs the engine's
:class:`MachineSpec`, and the iteration is priced again on the perturbed
machine through :meth:`~repro.engine.base.PerfEngine.simulate_iteration`,
the same call every other consumer prices through.  The DAG's shape does
not depend on the machine, only its durations do, so every knob compares
the same operators.

:data:`STANDARD_KNOBS` covers the perturbations the paper's bottleneck
arguments revolve around: PCIe bandwidth x2 (Section 6.2's weight-streaming
claim), GPU/CPU memory bandwidth x2 (Equation 5's bandwidth-bound regime),
kernel-launch overhead -> 0 and sync overhead -> 0 (Section 6.3.1's fixed
costs), and CPU cores +/- (throughput of the CPU executor).

:func:`whatif_power_sensitivity` extends the same knobs to *perf per
watt*: each re-priced schedule is also re-metered
(:mod:`repro.telemetry.power`), and since the work is fixed, the
perf-per-watt gain of a knob is exactly the energy ratio
``E_base / E_pred`` — a knob can speed the schedule up yet cost
efficiency if it drags the machine into a higher power state.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.hardware.spec import MachineSpec
from repro.units import Joules, Ratio, Seconds, Watts

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.engine.base import PerfEngine
    from repro.telemetry.power import PowerModel

__all__ = [
    "Knob",
    "STANDARD_KNOBS",
    "PowerWhatIfResult",
    "WhatIfResult",
    "whatif_sensitivity",
    "whatif_power_sensitivity",
]

Knob = Callable[[MachineSpec], MachineSpec]


def _scale_gpu_bandwidth(factor: Ratio) -> Knob:
    def knob(machine: MachineSpec) -> MachineSpec:
        gpu = dataclasses.replace(
            machine.gpu, memory_bandwidth=machine.gpu.memory_bandwidth * factor
        )
        return dataclasses.replace(machine, gpu=gpu)

    return knob


def _scale_cpu(factor: Ratio, *, bandwidth: bool = False, flops: bool = False) -> Knob:
    def knob(machine: MachineSpec) -> MachineSpec:
        changes: dict = {}
        if bandwidth:
            changes["memory_bandwidth"] = machine.cpu.memory_bandwidth * factor
        if flops:
            changes["compute_flops"] = machine.cpu.compute_flops * factor
        cpu = dataclasses.replace(machine.cpu, **changes)
        return dataclasses.replace(machine, cpu=cpu)

    return knob


def _scale_link_bandwidth(factor: Ratio) -> Knob:
    def knob(machine: MachineSpec) -> MachineSpec:
        link = dataclasses.replace(
            machine.link, bandwidth=machine.link.bandwidth * factor
        )
        return dataclasses.replace(machine, link=link)

    return knob


def _zero_launch(machine: MachineSpec) -> MachineSpec:
    gpu = dataclasses.replace(machine.gpu, launch_overhead=0.0)
    cpu = dataclasses.replace(machine.cpu, launch_overhead=0.0)
    return dataclasses.replace(machine, gpu=gpu, cpu=cpu)


def _zero_sync(machine: MachineSpec) -> MachineSpec:
    return dataclasses.replace(machine, sync_overhead=0.0)


# Knob name -> MachineSpec perturbation.  Core count maps to CPU compute
# throughput (AVX throughput scales with cores; DRAM bandwidth does not).
STANDARD_KNOBS: dict[str, Knob] = {
    "pcie_bw_x2": _scale_link_bandwidth(2.0),
    "gpu_bw_x2": _scale_gpu_bandwidth(2.0),
    "cpu_bw_x2": _scale_cpu(2.0, bandwidth=True),
    "launch_zero": _zero_launch,
    "sync_zero": _zero_sync,
    "cpu_cores_x2": _scale_cpu(2.0, flops=True),
    "cpu_cores_half": _scale_cpu(0.5, flops=True),
}


@dataclass(frozen=True)
class WhatIfResult:
    """Predicted effect of one hardware knob on one iteration."""

    knob: str
    baseline_makespan: Seconds
    predicted_makespan: Seconds

    @property
    def predicted_speedup(self) -> Ratio:
        if self.predicted_makespan <= 0.0:
            return float("inf")
        return self.baseline_makespan / self.predicted_makespan

    def as_row(self) -> dict:
        return {
            "knob": self.knob,
            "baseline_s": self.baseline_makespan,
            "predicted_s": self.predicted_makespan,
            "speedup": self.predicted_speedup,
        }


@dataclass(frozen=True)
class PowerWhatIfResult:
    """Predicted time *and* energy effect of one hardware knob.

    The DAG's work is fixed, so comparing knobs at equal work makes the
    perf-per-watt gain exactly the energy ratio ``E_base / E_pred``:
    perf/W = work / (time * avg_watts) = work / energy.
    """

    knob: str
    baseline_makespan: Seconds
    predicted_makespan: Seconds
    baseline_joules: Joules
    predicted_joules: Joules

    @property
    def predicted_speedup(self) -> Ratio:
        if self.predicted_makespan <= 0.0:
            return float("inf")
        return self.baseline_makespan / self.predicted_makespan

    @property
    def perf_per_watt_gain(self) -> Ratio:
        if self.predicted_joules <= 0.0:
            return float("inf")
        return self.baseline_joules / self.predicted_joules

    @property
    def baseline_watts(self) -> Watts:
        if self.baseline_makespan <= 0.0:
            return 0.0
        return self.baseline_joules / self.baseline_makespan

    @property
    def predicted_watts(self) -> Watts:
        if self.predicted_makespan <= 0.0:
            return 0.0
        return self.predicted_joules / self.predicted_makespan

    def as_row(self) -> dict:
        return {
            "knob": self.knob,
            "baseline_s": self.baseline_makespan,
            "predicted_s": self.predicted_makespan,
            "speedup": self.predicted_speedup,
            "baseline_j": self.baseline_joules,
            "predicted_j": self.predicted_joules,
            "baseline_w": self.baseline_watts,
            "predicted_w": self.predicted_watts,
            "perf_per_watt_gain": self.perf_per_watt_gain,
        }


def whatif_sensitivity(
    engine: "PerfEngine",
    ctx_len: int,
    n_tokens: int,
    batch: int = 1,
    knobs: Mapping[str, Knob] | None = None,
) -> list[WhatIfResult]:
    """Predicted speedup of each knob for one iteration of ``engine``.

    The baseline is the iteration priced on ``engine.machine``; each knob
    perturbs that machine and the iteration is priced again on it.
    Results come back sorted by predicted speedup, best first.
    """
    knobs = dict(knobs) if knobs is not None else dict(STANDARD_KNOBS)
    baseline = engine.simulate_iteration(ctx_len, n_tokens, batch).makespan
    results = [
        WhatIfResult(
            knob=name,
            baseline_makespan=baseline,
            predicted_makespan=engine.simulate_iteration(
                ctx_len, n_tokens, batch, machine=transform(engine.machine)
            ).makespan,
        )
        for name, transform in knobs.items()
    ]
    results.sort(key=lambda r: r.predicted_makespan)
    return results


def whatif_power_sensitivity(
    engine: "PerfEngine",
    ctx_len: int,
    n_tokens: int,
    batch: int = 1,
    knobs: Mapping[str, Knob] | None = None,
    model: "PowerModel | None" = None,
) -> list[PowerWhatIfResult]:
    """Predicted speedup *and* perf-per-watt gain of each knob.

    Each knob's schedule is metered with
    :func:`repro.telemetry.power.schedule_energy` against the perturbed
    machine (the :data:`STANDARD_KNOBS` perturbations use
    ``dataclasses.replace``, so the power fields carry over unchanged —
    the energy delta comes purely from the re-timed schedule).  Results
    come back sorted by perf-per-watt gain, best first; compare with the
    speedup ordering from :func:`whatif_sensitivity` to spot knobs that
    buy time at the cost of efficiency.
    """
    from repro.telemetry.power import schedule_energy

    knobs = dict(knobs) if knobs is not None else dict(STANDARD_KNOBS)
    machine = engine.machine
    base_sched = engine.simulate_iteration(ctx_len, n_tokens, batch)
    base_energy = schedule_energy(base_sched, machine, model=model)
    results: list[PowerWhatIfResult] = []
    for name, transform in knobs.items():
        perturbed = transform(machine)
        sched = engine.simulate_iteration(ctx_len, n_tokens, batch, machine=perturbed)
        energy = schedule_energy(sched, perturbed, model=model)
        results.append(
            PowerWhatIfResult(
                knob=name,
                baseline_makespan=base_sched.makespan,
                predicted_makespan=sched.makespan,
                baseline_joules=base_energy.total_joules,
                predicted_joules=energy.total_joules,
            )
        )
    results.sort(key=lambda r: -r.perf_per_watt_gain)
    return results
