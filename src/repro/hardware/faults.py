"""Deterministic fault injection over the hardware specs.

The performance substrate assumes a quiet machine: every :class:`DeviceSpec`
and :class:`LinkSpec` parameter is a constant, so ``simulate_iteration`` is
time-invariant.  Real consumer deployments are not quiet — PCIe contention
from other processes, thermal throttling of the GPU or CPU, transient driver
stalls, and external memory pressure all perturb exactly the parameters the
placement ILP optimized against.  This module models those perturbations as
a *schedule* of timed events over simulated time:

* :class:`FaultEvent` — one perturbation window ``[start, start+duration)``
  with a ``kind`` and a ``magnitude`` (a bandwidth/compute divisor for
  degradations, a remaining-budget fraction for KV shrinkage).
* :class:`FaultSchedule` — an immutable, sorted collection of events.  It
  partitions the timeline into *epochs* at event boundaries; within one
  epoch the perturbed machine is constant, which is what lets the serving
  layer's iteration-cost cache stay effective (keys carry the epoch index).

Everything is deterministic: a schedule is either constructed explicitly or
generated from a seed (:meth:`FaultSchedule.from_seed`), and two simulations
over the same schedule produce identical results.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.hardware.spec import MachineSpec
from repro.units import Ratio, Seconds

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule"]


class FaultKind:
    """Symbolic names for the perturbation classes the schedule injects."""

    PCIE_DEGRADE = "pcie-degrade"  # link bandwidth / magnitude, latency * magnitude
    GPU_THROTTLE = "gpu-throttle"  # GPU flops and bandwidth / magnitude
    CPU_THROTTLE = "cpu-throttle"  # CPU flops and bandwidth / magnitude
    DEVICE_STALL = "stall"  # no iterations run; in-flight work aborts
    KV_SHRINK = "kv-shrink"  # KV budget * magnitude (fraction remaining)

    # Replica-granularity kinds, interpreted by the fleet layer
    # (:mod:`repro.serving.fleet`) rather than by the machine model:
    REPLICA_CRASH = "replica-crash"  # replica down; in-progress KV lost
    REPLICA_RECOVER = "replica-recover"  # warm-up window after a crash
    LINK_DEGRADE = "link-degrade"  # fleet interconnect slowed / magnitude

    # Machine-level kinds — what perturbs a single machine's spec.
    MACHINE = (PCIE_DEGRADE, GPU_THROTTLE, CPU_THROTTLE, DEVICE_STALL, KV_SHRINK)
    # Fleet-level kinds — replica lifecycle and interconnect health.
    FLEET = (REPLICA_CRASH, REPLICA_RECOVER, LINK_DEGRADE)

    ALL = MACHINE + FLEET

    # Kinds that slow the machine down (as opposed to stalling it or
    # squeezing memory) — what a degradation-aware server throttles under.
    THROUGHPUT = (PCIE_DEGRADE, GPU_THROTTLE, CPU_THROTTLE)


@dataclass(frozen=True)
class FaultEvent:
    """One perturbation window on the simulated-time axis.

    Attributes:
        kind: One of :class:`FaultKind`.
        start: Window start, seconds of simulated time.
        duration: Window length, seconds (the window is ``[start, end)``).
        magnitude: Interpretation depends on ``kind``:
            degradations/throttles — divisor applied to the affected
            bandwidth/compute parameters (``>= 1``; 4.0 means "a quarter of
            nominal"); KV shrinkage — fraction of the budget that *remains*
            (``0 < m <= 1``); stalls and replica crashes ignore it;
            ``replica-recover`` — slowdown divisor while the replica warms
            back up (``>= 1``); ``link-degrade`` — divisor on the fleet
            interconnect bandwidth (``>= 1``).
    """

    kind: str
    start: Seconds
    duration: Seconds
    magnitude: Ratio = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FaultKind.ALL}"
            )
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        divisor_kinds = FaultKind.THROUGHPUT + (
            FaultKind.REPLICA_RECOVER,
            FaultKind.LINK_DEGRADE,
        )
        if self.kind in divisor_kinds and self.magnitude < 1.0:
            raise ValueError(
                f"{self.kind} magnitude is a slowdown divisor and must be >= 1"
            )
        if self.kind == FaultKind.KV_SHRINK and not 0.0 < self.magnitude <= 1.0:
            raise ValueError(
                "kv-shrink magnitude is the remaining budget fraction in (0, 1]"
            )

    @property
    def end(self) -> Seconds:
        return self.start + self.duration

    def active_at(self, t: Seconds) -> bool:
        return self.start <= t < self.end

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "magnitude": self.magnitude,
        }


class FaultSchedule:
    """An immutable timeline of :class:`FaultEvent` windows.

    Event boundaries partition simulated time into *epochs*; the perturbed
    machine is constant within one epoch, so callers may cache per-epoch
    results (:meth:`epoch` is the cache key).
    """

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.start, e.end, e.kind, e.magnitude))
        )
        self._boundaries: list[float] = sorted(
            {b for e in self.events for b in (e.start, e.end)}
        )
        self._machine_cache: dict[tuple[MachineSpec, int], MachineSpec] = {}

    # ---- timeline queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def horizon(self) -> Seconds:
        """End of the last event (0 for an empty schedule)."""
        return max((e.end for e in self.events), default=0.0)

    @property
    def boundaries(self) -> tuple[Seconds, ...]:
        """Sorted epoch boundaries (every event start and end, deduplicated).

        These are the instants at which the perturbed machine changes;
        telemetry marks each one on the trace timeline.
        """
        return tuple(self._boundaries)

    def epoch(self, t: Seconds) -> int:
        """Index of the constant-perturbation interval containing ``t``."""
        return bisect_right(self._boundaries, t)

    def next_boundary_after(self, t: Seconds) -> Seconds | None:
        """First event start/end strictly after ``t`` (None when past all)."""
        idx = bisect_right(self._boundaries, t)
        return self._boundaries[idx] if idx < len(self._boundaries) else None

    def active(self, t: Seconds) -> tuple[FaultEvent, ...]:
        """Events whose window contains ``t``."""
        return tuple(e for e in self.events if e.active_at(t))

    def is_degraded(self, t: Seconds) -> bool:
        """Whether any throughput-affecting fault is active at ``t``."""
        return any(
            e.kind in FaultKind.THROUGHPUT for e in self.events if e.active_at(t)
        )

    # ---- perturbation application --------------------------------------------

    def perturbed_machine(self, machine: MachineSpec, t: Seconds) -> MachineSpec:
        """The machine as the active faults at ``t`` leave it.

        Concurrent events of the same kind compose multiplicatively.  The
        result is cached per (machine, epoch) — within one epoch the
        perturbation is constant by construction.
        """
        key = (machine, self.epoch(t))
        cached = self._machine_cache.get(key)
        if cached is not None:
            return cached
        link_div = gpu_div = cpu_div = 1.0
        for event in self.active(t):
            if event.kind == FaultKind.PCIE_DEGRADE:
                link_div *= event.magnitude
            elif event.kind == FaultKind.GPU_THROTTLE:
                gpu_div *= event.magnitude
            elif event.kind == FaultKind.CPU_THROTTLE:
                cpu_div *= event.magnitude
        perturbed = machine
        if link_div > 1.0:
            # Contention hurts both achievable bandwidth and per-message
            # latency (the DMA queue behind the congested link grows).
            perturbed = dataclasses.replace(
                perturbed,
                link=dataclasses.replace(
                    machine.link,
                    bandwidth=machine.link.bandwidth / link_div,
                    latency=machine.link.latency * link_div,
                ),
            )
        if gpu_div > 1.0:
            perturbed = dataclasses.replace(
                perturbed,
                gpu=dataclasses.replace(
                    machine.gpu,
                    compute_flops=machine.gpu.compute_flops / gpu_div,
                    memory_bandwidth=machine.gpu.memory_bandwidth / gpu_div,
                ),
            )
        if cpu_div > 1.0:
            perturbed = dataclasses.replace(
                perturbed,
                cpu=dataclasses.replace(
                    machine.cpu,
                    compute_flops=machine.cpu.compute_flops / cpu_div,
                    memory_bandwidth=machine.cpu.memory_bandwidth / cpu_div,
                ),
            )
        self._machine_cache[key] = perturbed
        return perturbed

    def kv_budget_factor(self, t: Seconds) -> Ratio:
        """Fraction of the KV budget remaining at ``t`` (1.0 = nominal)."""
        factor = 1.0
        for event in self.active(t):
            if event.kind == FaultKind.KV_SHRINK:
                factor *= event.magnitude
        return factor

    def stall_end_at(self, t: Seconds) -> Seconds | None:
        """End of the stall covering ``t``, or None when no stall is active.

        Overlapping stalls merge: the returned time is past *every* stall
        reachable from ``t`` without a gap.
        """
        end: Seconds | None = None
        cursor = t
        for event in self.events:  # sorted by start
            if event.kind != FaultKind.DEVICE_STALL:
                continue
            if event.start <= cursor < event.end:
                end = event.end
                cursor = event.end
        return end

    def next_stall_start(self, start: Seconds, end: Seconds) -> FaultEvent | None:
        """Earliest stall beginning strictly inside ``(start, end)``.

        This is what preempts an in-flight iteration: work scheduled at
        ``start`` that would finish at ``end`` is cut short if a device
        stall begins in between.
        """
        for event in self.events:  # sorted by start
            if event.kind == FaultKind.DEVICE_STALL and start < event.start < end:
                return event
        return None

    # ---- fleet-level queries ---------------------------------------------------

    def crash_windows(self) -> tuple[tuple[Seconds, Seconds], ...]:
        """``(start, end)`` of every ``replica-crash`` window, sorted."""
        return tuple(
            (e.start, e.end)
            for e in self.events
            if e.kind == FaultKind.REPLICA_CRASH
        )

    def is_crashed(self, t: Seconds) -> bool:
        """Whether a ``replica-crash`` window covers ``t``."""
        return any(
            e.kind == FaultKind.REPLICA_CRASH for e in self.events if e.active_at(t)
        )

    def link_degrade_factor(self, t: Seconds) -> Ratio:
        """Interconnect slowdown divisor at ``t`` (1.0 = nominal).

        Concurrent ``link-degrade`` windows compose multiplicatively, the
        same convention as :meth:`perturbed_machine`.  The fleet transfer
        model divides link bandwidth (and multiplies latency) by this.
        """
        factor = 1.0
        for event in self.active(t):
            if event.kind == FaultKind.LINK_DEGRADE:
                factor *= event.magnitude
        return factor

    def machine_view(self) -> "FaultSchedule":
        """This schedule as a single machine experiences it.

        The fleet kinds are translated into their machine-level effect so
        a :class:`~repro.serving.continuous.ContinuousServer` can run the
        replica without knowing about the fleet:

        * ``replica-crash`` becomes a ``stall`` over the same window — a
          crashed replica executes nothing and in-flight work is lost,
          which is exactly the stall semantics (and lets the server-run
          validator prove no iteration overlaps a crash);
        * ``replica-recover`` becomes a ``gpu-throttle`` of the same
          magnitude — a warming replica is slow (cold caches, weights
          reloading);
        * ``link-degrade`` is dropped — the fleet interconnect is not the
          machine's PCIe link; the fleet layer prices it on transfers.

        Machine-level events pass through unchanged.  An all-machine
        schedule returns ``self``.
        """
        if all(e.kind in FaultKind.MACHINE for e in self.events):
            return self
        translated = []
        for e in self.events:
            if e.kind == FaultKind.REPLICA_CRASH:
                translated.append(
                    dataclasses.replace(e, kind=FaultKind.DEVICE_STALL, magnitude=1.0)
                )
            elif e.kind == FaultKind.REPLICA_RECOVER:
                translated.append(
                    dataclasses.replace(e, kind=FaultKind.GPU_THROTTLE)
                )
            elif e.kind == FaultKind.LINK_DEGRADE:
                continue
            else:
                translated.append(e)
        return FaultSchedule(translated)

    # ---- construction helpers -------------------------------------------------

    def to_dicts(self) -> list[dict]:
        """JSON-ready event list (see docs/serving.md for the schema)."""
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, dicts: Sequence[dict]) -> "FaultSchedule":
        """Build a schedule from ``to_dicts`` output / a JSON event list."""
        events = []
        for i, d in enumerate(dicts):
            unknown = set(d) - {"kind", "start", "duration", "magnitude"}
            if unknown:
                raise ValueError(f"fault event {i}: unknown fields {sorted(unknown)}")
            try:
                events.append(FaultEvent(**d))
            except TypeError as exc:
                raise ValueError(f"fault event {i}: {exc}") from None
        return cls(events)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        horizon: Seconds,
        n_events: int = 4,
        kinds: Sequence[str] = FaultKind.MACHINE,
        max_magnitude: Ratio = 4.0,
    ) -> "FaultSchedule":
        """Generate a deterministic random schedule.

        The same ``(seed, horizon, n_events, kinds, max_magnitude)`` always
        yields the same schedule — the contract chaos tests rely on.

        Args:
            seed: RNG seed.
            horizon: Timeline length; events start within ``[0, horizon)``.
            n_events: Number of events to draw.
            kinds: Fault kinds to draw from (uniformly).  Defaults to the
                machine-level kinds; pass ``FaultKind.FLEET`` (or
                ``FaultKind.ALL``) to draw replica-lifecycle events too.
            max_magnitude: Worst slowdown divisor for degradations; KV
                shrink draws its remaining fraction from ``[1/max, 1)``.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if n_events < 0:
            raise ValueError("n_events must be non-negative")
        if max_magnitude < 1.0:
            raise ValueError("max_magnitude must be >= 1")
        for kind in kinds:
            if kind not in FaultKind.ALL:
                raise ValueError(f"unknown fault kind {kind!r}")
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(n_events):
            kind = str(rng.choice(list(kinds)))
            start = float(rng.uniform(0.0, horizon))
            if kind in (FaultKind.DEVICE_STALL, FaultKind.REPLICA_CRASH):
                duration = float(rng.uniform(0.005, 0.05) * horizon)
                magnitude = 1.0
            elif kind == FaultKind.KV_SHRINK:
                duration = float(rng.uniform(0.1, 0.3) * horizon)
                magnitude = float(rng.uniform(1.0 / max_magnitude, 1.0))
            else:
                duration = float(rng.uniform(0.05, 0.25) * horizon)
                magnitude = float(rng.uniform(1.5, max_magnitude))
            events.append(
                FaultEvent(kind=kind, start=start, duration=duration, magnitude=magnitude)
            )
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({list(self.events)!r})"
