"""One fleet replica: a continuous server plus its fault/health context.

A replica wraps an independent :class:`~repro.serving.continuous
.ContinuousServer` (its own engine over its own
:class:`~repro.hardware.spec.MachineSpec`, its own KV pool and queues)
driven through a :class:`~repro.serving.continuous.ServerSession` the
router submits to, so the fleet router can interleave N replicas on one
simulated clock.

The replica keeps *two* views of its fault schedule:

* ``faults`` — the full per-replica schedule, including the fleet-level
  kinds (``replica-crash`` / ``replica-recover`` / ``link-degrade``).
  The router reads crash windows (for health detection and drains) and
  link factors (for KV-transfer pricing) from it.
* the server runs under ``faults.machine_view()`` — crashes become
  device stalls and recovery warm-up becomes a GPU throttle, so *no
  iteration ever crosses a crash start*: the existing stall-preemption
  machinery aborts in-flight work at the crash instant and the schedule
  validator's stall-overlap check structurally proves that a crashed
  replica served nothing.

Health here is what the *router detected* via heartbeats — distinct from
ground truth (``faults.is_crashed``): a crash shorter than the detection
window is never noticed and never drained, exactly like a real fleet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.faults import FaultSchedule
from repro.serving.continuous import ContinuousServer, ServerSession
from repro.units import Bytes, Ratio, Seconds

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.engine.base import PerfEngine
    from repro.telemetry.tracer import Tracer

__all__ = ["Replica", "ReplicaRole"]


class ReplicaRole:
    """What work a replica accepts in a disaggregated fleet."""

    BOTH = "both"
    PREFILL = "prefill"
    DECODE = "decode"

    ALL = (BOTH, PREFILL, DECODE)


class Replica:
    """A named continuous server participating in a fleet.

    Attributes:
        name: Replica identifier (unique within the fleet).
        engine: The replica's performance engine.
        faults: Full per-replica fault schedule (fleet kinds included);
            ``None`` for a healthy replica.
        role: A :class:`ReplicaRole` value — ``"both"`` serves whole
            requests; ``"prefill"``/``"decode"`` split them in a
            disaggregated fleet.
        server: The wrapped :class:`ContinuousServer`, built over
            ``faults.machine_view()``.
        session: The external-mode :class:`ServerSession` the router
            drives.  Ledger recording is always on — the fleet validator
            needs per-replica KV ledgers to prove conservation across
            migration.
        detected_down: Router-visible health (heartbeat detection), kept
            by the router; starts healthy.
    """

    def __init__(
        self,
        name: str,
        engine: "PerfEngine",
        faults: FaultSchedule | None = None,
        role: str = ReplicaRole.BOTH,
        **server_kwargs,
    ) -> None:
        if role not in ReplicaRole.ALL:
            raise ValueError(f"unknown replica role {role!r}; choose from {ReplicaRole.ALL}")
        self.name = name
        self.engine = engine
        self.faults = faults
        self.role = role
        self.machine_faults = faults.machine_view() if faults is not None else None
        self.server = ContinuousServer(engine, faults=self.machine_faults, **server_kwargs)
        self.session: ServerSession = self.server.session(record_ledger=True)
        self.detected_down = False

    def attach_tracer(self, tracer: "Tracer") -> None:  # repro-lint: disable=tracer-default -- attaching is itself the opt-in; a None tracer is meaningless here
        """Point this replica's server at ``tracer`` and rebuild the session.

        Used by the fleet router when given a
        :class:`~repro.telemetry.fleet.FleetTracer` — each replica gets
        its own per-replica tracer lane.  Must be called before the run
        starts: the session is rebuilt from scratch (so its tracer wiring
        and fault annotations are recorded), which discards any state an
        already-driven session accumulated.

        Raises:
            RuntimeError: If the session has already advanced or holds
                submitted work.
        """
        session = self.session
        if session.now > 0.0 or session.has_work() or session.outbox:
            raise RuntimeError(
                f"replica {self.name!r}: cannot attach a tracer to a "
                "session that already ran"
            )
        self.server.tracer = tracer
        self.session = self.server.session(record_ledger=True)

    @property
    def kv_budget_bytes(self) -> Bytes:
        return self.session.pool.usable_capacity

    def crash_windows(self) -> tuple[tuple[Seconds, Seconds], ...]:
        """Ground-truth crash windows of this replica's schedule."""
        if self.faults is None:
            return ()
        return self.faults.crash_windows()

    def is_crashed(self, t: Seconds) -> bool:
        """Ground truth: is the replica process dead at time ``t``?"""
        return self.faults is not None and self.faults.is_crashed(t)

    def link_degrade_factor(self, t: Seconds) -> Ratio:
        """Interconnect slowdown divisor at this endpoint at time ``t``."""
        if self.faults is None:
            return 1.0
        return self.faults.link_degrade_factor(t)

    def serves_prefill(self) -> bool:
        return self.role in (ReplicaRole.BOTH, ReplicaRole.PREFILL)

    def serves_decode(self) -> bool:
        return self.role in (ReplicaRole.BOTH, ReplicaRole.DECODE)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Replica(name={self.name!r}, machine={self.engine.machine.name!r}, "
            f"role={self.role!r})"
        )
