"""The fleet router: health checks, failover, hedging, brownout, disagg.

:class:`FleetRouter` fronts N :class:`~repro.serving.fleet.replica
.Replica` instances and drives their sessions (requests handed in with
``ServerSession.submit``) on one simulated clock with a conservative
discrete-event loop:

* a global event heap holds request arrivals, heartbeat health
  transitions, scheduled re-dispatches, and every lifecycle event the
  replica sessions emit (admits, tokens, completions, failures);
* the router pops the next global event only when no session can act
  earlier; otherwise it steps the earliest-acting session (with its
  ``time_cap`` bound to the next event so a session never advances past
  an arrival it has not been handed yet).

Sessions book iterations atomically, so every event a step produces
carries a timestamp at or after the step's start — the loop processes
the fleet in global time order without ever rolling a clock back.

Resilience mechanisms (all deterministic, all on the simulated clock):

* **Health checking** — heartbeats on a fixed grid; a replica is marked
  down at the first beat where the silence exceeds the detection window,
  and up again at the first beat after the crash ends.  Crashes shorter
  than the detection window are never noticed (and never drained).
* **Failover** — marking a replica down drains its undelivered requests
  and re-dispatches each to a surviving replica with bounded exponential
  backoff.  In-progress KV is lost at the crash (the replica's own stall
  machinery freed it); the request replays *from its last completed
  token*: the replacement segment re-prefills prompt + delivered tokens
  and generates only the rest, so the work and KV are re-priced honestly.
* **Hedged dispatch** — every request that carries a deadline is
  dispatched to two replicas; the first token wins and the loser is
  cancelled (its KV reservation released).
* **Brownout** — while any replica is detected down, arrivals below the
  priority floor are shed at the router, protecting the SLO of the
  higher classes on the surviving capacity.
* **Prefill→decode disaggregation** — prefill replicas stream the built
  KV to decode replicas over a modeled interconnect; transfers are
  priced by :func:`repro.engine.base.transfer_task` against the (possibly
  ``link-degrade``-slowed) link, serialized on it, and recorded as a
  schedule the validator checks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

from repro.engine.base import transfer_task
from repro.hardware.events import ScheduleResult, TaskResult
from repro.hardware.spec import GB, LinkSpec
from repro.serving.arrival import Request
from repro.serving.continuous import retry_delay
from repro.serving.fleet.policies import RouterPolicy, make_router_policy
from repro.serving.fleet.replica import Replica
from repro.serving.fleet.report import FleetResult, ReplicaSummary
from repro.serving.metrics import ContinuousReport, RequestMetrics
from repro.units import Seconds

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.telemetry.fleet import TraceContext
    from repro.telemetry.tracer import Tracer

__all__ = ["FleetConfig", "FleetRouter", "detect_windows"]


# Heartbeat grid spacing, and the silence tolerated before a replica is
# marked down (a crash shorter than roughly this goes unnoticed).
HEARTBEAT_S: Seconds = 0.25
DETECTION_WINDOW_S: Seconds = 0.75
# Router-level re-dispatch budget per request (beyond it the request is
# failed), and the cap on the re-dispatch backoff (see retry_delay).
MAX_REDISPATCH = 2
BACKOFF_CAP_S: Seconds = 2.0
# During brownout, arrivals with a priority strictly below this are shed.
BROWNOUT_MIN_PRIORITY = 1
# The fleet KV-transfer link.  A datacenter-ish 25 GB/s link: far faster
# than token emission but slow enough that multi-MB KV transfers are
# visible in the timeline.
INTERCONNECT = LinkSpec(name="fleet-net", bandwidth=25 * GB, latency=25e-6)


@dataclass
class FleetConfig:
    """Router behaviour switches (all simulated-time, all deterministic).

    Attributes:
        policy: Dispatch policy name (see
            :data:`~repro.serving.fleet.policies.ROUTER_POLICIES`).
        failover: Drain + re-dispatch detected-down replicas and route
            new work around them.  ``False`` disables the health
            *reaction* entirely — the router keeps dispatching to dead
            replicas and strands their queued work on the crashed
            replica's own local retries — the ablation the chaos
            benchmark contrasts against.  (Detection still runs either
            way, for availability accounting.)
        hedge: Dispatch every request that carries a deadline onto two
            replicas.
        brownout: Shed arrivals below :data:`BROWNOUT_MIN_PRIORITY` while
            any replica is detected down.
        disaggregate: Split requests into a prefill stage and a decode
            stage on different replicas with a KV transfer over
            :data:`INTERCONNECT`.
    """

    policy: str = "round-robin"
    failover: bool = True
    hedge: bool = False
    brownout: bool = False
    disaggregate: bool = False

    def __post_init__(self) -> None:
        if self.hedge and self.disaggregate:
            raise ValueError("hedge and disaggregate are mutually exclusive")


def detect_windows(
    crash_windows: tuple[tuple[Seconds, Seconds], ...],
    heartbeat_s: Seconds,
    detection_window_s: Seconds,
) -> list[tuple[Seconds, Seconds]]:
    """Heartbeat-detected ``(down_at, up_at)`` windows for crash windows.

    Beats live on the ``k * heartbeat_s`` grid; a beat inside a crash
    window is missed.  Detection fires at the first missed beat whose
    silence since the last answered beat reaches the detection window;
    recovery is seen at the first beat at or after the crash end.  A
    crash no beat-silence ever exceeds the window for goes undetected
    and produces no entry.
    """
    hb = heartbeat_s
    out: list[tuple[float, float]] = []
    for c0, c1 in crash_windows:
        k = math.ceil(c0 / hb - 1e-12)
        last_alive = (k - 1) * hb
        detected = None
        while k * hb < c1:
            if k * hb - last_alive >= detection_window_s and k * hb >= c0:
                detected = k * hb
                break
            k += 1
        if detected is None:
            continue
        up = math.ceil(c1 / hb - 1e-12) * hb
        out.append((detected, up))
    return out


class _Track:
    """Router-side lifecycle state of one original request."""

    __slots__ = (
        "orig",
        "stage",
        "active",
        "delivered",
        "admit_time",
        "segments",
        "redispatches",
        "hedged",
        "done",
        "disposition",
    )

    def __init__(self, orig: Request) -> None:
        self.orig = orig
        self.stage = "unified"  # unified | prefill | transfer | decode
        self.active: set[int] = set()
        self.delivered: list[float] = []
        self.admit_time: Seconds | None = None
        self.segments = 0
        self.redispatches = 0
        self.hedged = False
        self.done = False
        self.disposition: str | None = None


# Event priorities: recoveries before failures before everything else at
# equal timestamps, so capacity changes are visible to same-instant work.
_PRIO = {"up": 0, "down": 1}


class FleetRouter:
    """Routes a request stream over a fleet of replicas; see module docs."""

    def __init__(
        self,
        replicas: list[Replica],
        config: FleetConfig | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        names = [r.name for r in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"replica names must be unique, got {names}")
        self.config = config if config is not None else FleetConfig()
        if self.config.disaggregate:
            if not any(r.serves_prefill() for r in replicas):
                raise ValueError("disaggregated fleet needs a prefill-capable replica")
            if not any(r.serves_decode() for r in replicas):
                raise ValueError("disaggregated fleet needs a decode-capable replica")
        else:
            bad = [r.name for r in replicas if r.role != "both"]
            if bad:
                raise ValueError(
                    f"replicas {bad} have split roles but disaggregate is off"
                )
        self.replicas = replicas
        self.policy: RouterPolicy = make_router_policy(self.config.policy)
        # A FleetTracer turns on *deep* tracing: router events land on its
        # router lane, and every replica without its own tracer gets a
        # per-replica lane, so the whole fleet merges into one trace on
        # one clock.  A plain Tracer keeps the PR-7 router-only behaviour.
        # (Imported lazily: repro.serving <-> repro.telemetry would cycle
        # at module import time.)
        from repro.telemetry.fleet import FleetTracer, record_fleet_fault_schedule

        self._ft = tracer if isinstance(tracer, FleetTracer) else None
        if self._ft is not None:
            self.tracer = self._ft.router
            for rep in replicas:
                if rep.server.tracer is None:
                    rep.attach_tracer(self._ft.replica(rep.name))
        else:
            self.tracer = tracer
        self._tracing = self.tracer is not None and self.tracer.enabled
        if self._tracing:
            # Fleet-kind fault windows (crash / recover / link-degrade)
            # never reach the sessions — machine_view() translates or
            # drops them — so record them on the router's trace.
            for rep in replicas:
                if rep.faults is not None:
                    record_fleet_fault_schedule(
                        self.tracer, rep.faults, replica=rep.name
                    )
        # Heartbeat-detected windows, precomputed: crash schedules are
        # static, so detection is too.
        self._detected: list[list[tuple[float, float]]] = [
            detect_windows(r.crash_windows(), HEARTBEAT_S, DETECTION_WINDOW_S)
            for r in replicas
        ]

    # ---- run ----------------------------------------------------------------

    def run(self, requests: list[Request]) -> FleetResult:
        """Serve ``requests`` across the fleet; returns the merged result."""
        cfg = self.config
        reqs = sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        self._tracks = {r.request_id: _Track(r) for r in reqs}
        if len(self._tracks) != len(reqs):
            raise ValueError("request ids must be unique across the stream")
        self._heap: list[tuple] = []
        self._seq = 0
        self._t_hi = 0.0
        self._completed: list[RequestMetrics] = []
        self._timed_out: list[Request] = []
        self._shed: list[Request] = []
        self._failed: list[Request] = []
        self._transfers: dict[str, TaskResult] = {}
        self._link_busy = 0.0
        self._hedged_ids: set[int] = set()
        self.counters = {
            "dispatches": 0,
            "redispatches": 0,
            "failovers": 0,
            "detections": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "hedge_cancels": 0,
            "brownout_shed": 0,
        }

        for r in reqs:
            self._push(r.arrival_time, "arrive", r)
        for i, windows in enumerate(self._detected):
            for td, tu in windows:
                self._push(td, "down", i)
                self._push(tu, "up", i)
        self._slo_clock = float("-inf")
        if self._ft is not None:
            self._push(0.0, "tick", None)

        while True:
            t_next = self._heap[0][0] if self._heap else None
            best_t, best_i = None, None
            for i, rep in enumerate(self.replicas):
                t = rep.session.next_action_time()
                if t is not None and (best_t is None or t < best_t):
                    best_t, best_i = t, i
            if t_next is not None and (best_t is None or t_next <= best_t):
                entry = heapq.heappop(self._heap)
                time, _, _, kind, payload = entry
                if kind != "tick":
                    # Ticks are pure observation: they must not stretch
                    # the run horizon past the last real event.
                    self._t_hi = max(self._t_hi, time)
                self._handle(kind, payload, time)
            elif best_t is not None:
                session = self.replicas[best_i].session
                session.time_cap = t_next
                session.step()
                session.time_cap = None
                self._harvest(best_i)
            else:
                break

        # Blocked sessions (admission deadlock with nothing coming) still
        # hold undelivered requests: fail them rather than lose them.
        for i, rep in enumerate(self.replicas):
            if rep.session.has_work():
                for seg in rep.session.drain(rep.session.now):
                    track = self._tracks.get(seg.request_id)
                    if track is not None and not track.done:
                        track.active.discard(i)
                        if not track.active:
                            self._finalize(track, "failed", rep.session.now)
        for track in self._tracks.values():
            if not track.done:  # pragma: no cover - defensive
                self._finalize(track, "failed", self._t_hi)

        return self._assemble()

    # ---- event plumbing -----------------------------------------------------

    def _push(self, time: Seconds, kind: str, payload) -> None:
        heapq.heappush(self._heap, (time, _PRIO.get(kind, 2), self._seq, kind, payload))
        self._seq += 1

    def _harvest(self, i: int) -> None:
        session = self.replicas[i].session
        for ev in session.outbox:
            kind = ev[0]
            if kind == "complete":
                _, rid, metrics = ev
                self._push(metrics.token_times[-1], "complete", (i, rid, metrics))
            else:
                _, subject, t = ev
                self._push(t, kind, (i, subject))
        session.outbox.clear()

    def _handle(self, kind: str, payload, time: Seconds) -> None:
        if kind == "arrive":
            self._on_arrive(payload, time)
        elif kind == "down":
            self._on_down(payload, time)
        elif kind == "up":
            self._on_up(payload, time)
        elif kind == "redispatch":
            self._on_redispatch(payload, time)
        elif kind == "kv-arrive":
            self._on_kv_arrive(payload, time)
        elif kind == "admit":
            i, rid = payload
            track = self._tracks.get(rid)
            if track is not None and not track.done and i in track.active:
                if track.admit_time is None:
                    track.admit_time = time
        elif kind == "token":
            self._on_token(payload, time)
        elif kind == "complete":
            self._on_complete(payload, time)
        elif kind == "failed":
            self._on_failed(payload, time)
        elif kind == "timeout":
            self._on_terminal(payload, time, "timed_out")
        elif kind == "shed":
            self._on_terminal(payload, time, "shed")
        elif kind == "tick":
            self._on_tick(time)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown fleet event kind {kind!r}")

    # ---- dispatching --------------------------------------------------------

    def _any_down(self) -> bool:
        return any(r.detected_down for r in self.replicas)

    def _candidates(self, pred) -> list[tuple[int, Replica]]:
        # With failover off the router has no health reaction at all: it
        # keeps dispatching to a dead replica (the ablation baseline).
        if not self.config.failover:
            return [(i, r) for i, r in enumerate(self.replicas) if pred(r)]
        return [
            (i, r)
            for i, r in enumerate(self.replicas)
            if not r.detected_down and pred(r)
        ]

    def _trace_event(
        self, rid: int, kind: str, t: Seconds, hop: int | None = None
    ) -> None:
        if self._tracing:
            self.tracer.add_request_event(rid, kind, t, hop=hop)

    def _ctx(self, track: _Track) -> "TraceContext | None":
        """The trace context of the dispatch attempt about to start.

        The hop counter is the track's segment count (each dispatch —
        initial, re-dispatch, hedge twin, post-transfer decode — starts
        one segment), so events stamped with a hop tie back to the exact
        attempt that produced them.  ``None`` when tracing is off, which
        keeps the untraced submit path byte-for-byte identical.
        """
        if not self._tracing:
            return None
        from repro.telemetry.fleet import TraceContext

        return TraceContext(
            track.orig.request_id,
            hop=track.segments,
            parent=track.segments - 1 if track.segments else None,
        )

    def _finalize(
        self,
        track: _Track,
        disposition: str,
        t: Seconds,
        metrics: RequestMetrics | None = None,
    ) -> None:
        track.done = True
        track.disposition = disposition
        if disposition == "completed":
            self._completed.append(metrics)
            self._trace_event(track.orig.request_id, "fleet-finish", t)
        elif disposition == "timed_out":
            self._timed_out.append(track.orig)
            self._trace_event(track.orig.request_id, "fleet-timeout", t)
        elif disposition == "shed":
            self._shed.append(track.orig)
            self._trace_event(track.orig.request_id, "fleet-shed", t)
        else:
            self._failed.append(track.orig)
            self._trace_event(track.orig.request_id, "fleet-fail", t)
        self._observe_slo(t, metrics if disposition == "completed" else None)

    # ---- SLO monitoring ------------------------------------------------------

    def _observe_slo(self, t: Seconds, metrics: RequestMetrics | None) -> None:
        """Feed one request disposition to the attached SLO monitor.

        Completed requests are judged against the fleet tracer's SLO
        targets; every non-completed disposition (timeout, shed, failure)
        burns all three budgets.  Observation times are clamped monotone:
        the post-run drain finalizes stragglers at per-replica clocks
        that can sit before the last heap event.
        """
        ft = self._ft
        if ft is None or ft.monitor is None:
            return
        monitor = ft.monitor
        t = max(t, self._slo_clock)
        self._slo_clock = t
        slo = ft.slo
        if metrics is not None:
            verdicts = {
                "ttft": slo is not None and metrics.ttft > slo.ttft_target,
                "tbt": slo is not None and metrics.max_tbt > slo.tbt_target,
                "deadline": False,
            }
        else:
            verdicts = {"ttft": True, "tbt": True, "deadline": True}
        for name, bad in verdicts.items():
            if name in monitor.objectives:
                monitor.observe(name, t, bad)

    def _slo_context(self, t: Seconds) -> tuple[str, ...]:
        """Fault/health annotations overlapping instant ``t`` for alerts."""
        context: list[str] = []
        for rep in self.replicas:
            if rep.is_crashed(t):
                context.append(f"crash:{rep.name}")
            elif rep.detected_down:
                context.append(f"detected-down:{rep.name}")
            if rep.link_degrade_factor(t) > 1.0:
                context.append(f"link-degrade:{rep.name}")
            if rep.machine_faults is not None and rep.machine_faults.is_degraded(t):
                context.append(f"degraded:{rep.name}")
        if self.config.brownout and self._any_down():
            context.append("brownout")
        return tuple(context)

    def _on_tick(self, t: Seconds) -> None:
        """One fleet observation tick: sample time-series, evaluate SLOs.

        Ticks ride the global event heap on the ``SAMPLE_INTERVAL_S``
        grid and stop once the heap drains and every session is idle.
        They never mutate serving state — only the tracer's time-series
        bank and SLO monitor.
        """
        from repro.telemetry.fleet import SAMPLE_INTERVAL_S

        ft = self._ft
        for rep in self.replicas:
            session = rep.session
            ft.timeseries.sample(
                f"{rep.name}/queue_depth", t, float(len(session.waiting))
            )
            ft.timeseries.sample(f"{rep.name}/kv_used_bytes", t, session.pool.used)
            busy = sum(e - b for b, e in session.report.busy_intervals)
            ft.timeseries.sample(f"{rep.name}/busy_s", t, busy)
        ft.timeseries.sample(
            "fleet/up_replicas",
            t,
            float(sum(not r.detected_down for r in self.replicas)),
        )
        ft.timeseries.sample("fleet/completed", t, float(len(self._completed)))
        ft.timeseries.sample("fleet/timed_out", t, float(len(self._timed_out)))
        ft.timeseries.sample("fleet/failed", t, float(len(self._failed)))
        ft.timeseries.sample("fleet/shed", t, float(len(self._shed)))
        if ft.monitor is not None:
            for alert in ft.monitor.check(t, context=self._slo_context(t)):
                self.tracer.add_instant(
                    "alerts",
                    f"burn:{alert.objective}",
                    t,
                    args={
                        "burn_long": alert.burn_rate_long,
                        "burn_short": alert.burn_rate_short,
                    },
                )
        if self._heap or any(r.session.has_work() for r in self.replicas):
            self._push(t + SAMPLE_INTERVAL_S, "tick", None)

    def _segment(self, track: _Track, at: Seconds, output_len: int | None = None):
        """The replay segment of ``track`` dispatched at ``at``, or None.

        Returns ``None`` (after finalizing the track as timed out) when
        the original absolute deadline has no budget left.  The segment
        re-prefills prompt + delivered tokens and owes only the rest.
        """
        orig = track.orig
        e = len(track.delivered)
        rel = None
        if orig.deadline is not None:
            rel = orig.arrival_time + orig.deadline - at
            if rel <= 0:
                self._finalize(track, "timed_out", at)
                return None
        out = output_len if output_len is not None else orig.output_len - e
        if e == 0 and at == orig.arrival_time and out == orig.output_len:  # repro-lint: disable=float-time-eq -- bit-exact fast path IS the 1-replica identity contract
            return orig
        return replace(
            orig,
            arrival_time=at,
            input_len=orig.input_len + e,
            output_len=out,
            deadline=rel,
        )

    def _no_capacity(self, track: _Track, at: Seconds) -> None:
        """Nothing is up: wait for the next detected recovery or fail."""
        ups = [
            tu
            for windows in self._detected
            for _, tu in windows
            if tu > at
        ]
        if not ups:
            self._finalize(track, "failed", at)
            return
        self._push(min(ups), "redispatch", track.orig.request_id)

    def _dispatch_unified(
        self,
        track: _Track,
        at: Seconds,
        exclude: frozenset[int] = frozenset(),
        hop_kind: str | None = None,
    ) -> int | None:
        cands = [
            (i, r) for i, r in self._candidates(Replica.serves_decode) if i not in exclude
        ]
        if not cands:
            if not exclude:
                self._no_capacity(track, at)
            return None
        seg = self._segment(track, at)
        if seg is None:
            return None
        idx = self.policy.choose(cands, track.orig, at, len(self.replicas))
        ctx = self._ctx(track)
        kind = hop_kind or ("dispatch" if track.segments == 0 else "redispatch")
        self.replicas[idx].session.submit(seg, at, ctx=ctx)
        track.segments += 1
        track.active.add(idx)
        track.stage = "unified"
        self.counters["dispatches"] += 1
        self._trace_event(
            track.orig.request_id, "dispatch", at, hop=ctx.hop if ctx else None
        )
        if self._ft is not None and ctx is not None:
            self._ft.begin_hop(ctx, self.replicas[idx].name, kind, at)
        return idx

    def _dispatch_prefill(self, track: _Track, at: Seconds) -> None:
        cands = self._candidates(Replica.serves_prefill)
        if not cands:
            self._no_capacity(track, at)
            return
        seg = self._segment(track, at, output_len=1)
        if seg is None:
            return
        idx = self.policy.choose(cands, track.orig, at, len(self.replicas))
        ctx = self._ctx(track)
        kind = "dispatch" if track.segments == 0 else "redispatch"
        self.replicas[idx].session.submit(seg, at, ctx=ctx)
        track.segments += 1
        track.active.add(idx)
        track.stage = "prefill"
        self.counters["dispatches"] += 1
        self._trace_event(
            track.orig.request_id, "dispatch", at, hop=ctx.hop if ctx else None
        )
        if self._ft is not None and ctx is not None:
            self._ft.begin_hop(ctx, self.replicas[idx].name, kind, at)

    def _dispatch_decode(self, track: _Track, idx: int, at: Seconds) -> None:
        seg = self._segment(track, at)
        if seg is None:
            return
        ctx = self._ctx(track)
        # Context (prompt + delivered tokens) was built elsewhere and
        # streamed in: the decode replica starts fully prefilled.
        self.replicas[idx].session.submit(
            seg, at, prefilled=seg.input_len, emitted=0, ctx=ctx
        )
        track.segments += 1
        track.active.add(idx)
        track.stage = "decode"
        self.counters["dispatches"] += 1
        self._trace_event(
            track.orig.request_id, "dispatch", at, hop=ctx.hop if ctx else None
        )
        if self._ft is not None and ctx is not None:
            self._ft.begin_hop(ctx, self.replicas[idx].name, "decode", at)

    def _dispatch_initial(self, track: _Track, at: Seconds) -> None:
        if self.config.disaggregate:
            self._dispatch_prefill(track, at)
        else:
            self._dispatch_unified(track, at)

    def _rescue(self, track: _Track, at: Seconds) -> None:
        """Schedule a backed-off router-level re-dispatch (failover path)."""
        track.redispatches += 1
        if track.redispatches > MAX_REDISPATCH:
            self._finalize(track, "failed", at)
            return
        delay = retry_delay(track.redispatches, cap=BACKOFF_CAP_S)
        self.counters["redispatches"] += 1
        self._trace_event(track.orig.request_id, "redispatch", at)
        self._push(at + delay, "redispatch", track.orig.request_id)

    # ---- event handlers -----------------------------------------------------

    def _on_arrive(self, request: Request, t: Seconds) -> None:
        track = self._tracks[request.request_id]
        cfg = self.config
        if (
            cfg.brownout
            and self._any_down()
            and request.priority < BROWNOUT_MIN_PRIORITY
        ):
            self.counters["brownout_shed"] += 1
            self._trace_event(request.request_id, "brownout-shed", t)
            self._finalize(track, "shed", t)
            return
        if cfg.hedge and request.deadline is not None:
            first = self._dispatch_unified(track, t)
            if first is not None:
                second = self._dispatch_unified(
                    track, t, exclude=frozenset({first}), hop_kind="hedge"
                )
                if second is not None:
                    track.hedged = True
                    self._hedged_ids.add(request.request_id)
                    self.counters["hedges"] += 1
                    self._trace_event(request.request_id, "hedge", t)
            return
        self._dispatch_initial(track, t)

    def _on_down(self, i: int, t: Seconds) -> None:
        rep = self.replicas[i]
        rep.detected_down = True
        self.counters["detections"] += 1
        if self._tracing:
            self.tracer.add_counter(
                "up_replicas", t, float(sum(not r.detected_down for r in self.replicas))
            )
        if not self.config.failover:
            return
        drained = rep.session.drain(t)
        self._harvest(i)  # drain may have emitted nothing, but stay safe
        for seg in drained:
            track = self._tracks.get(seg.request_id)
            if track is None or track.done:
                continue
            track.active.discard(i)
            if track.active:
                continue  # a hedge twin is still serving it
            self.counters["failovers"] += 1
            self._trace_event(track.orig.request_id, "failover", t)
            self._rescue(track, t)

    def _on_up(self, i: int, t: Seconds) -> None:
        self.replicas[i].detected_down = False
        if self._tracing:
            self.tracer.add_counter(
                "up_replicas", t, float(sum(not r.detected_down for r in self.replicas))
            )

    def _on_redispatch(self, rid: int, t: Seconds) -> None:
        track = self._tracks.get(rid)
        if track is None or track.done:
            return
        orig = track.orig
        if orig.deadline is not None and t >= orig.arrival_time + orig.deadline:
            self._finalize(track, "timed_out", t)
            return
        self._dispatch_initial(track, t)

    def _on_token(self, payload: tuple[int, int], t: Seconds) -> None:
        i, rid = payload
        track = self._tracks.get(rid)
        if track is None or track.done or i not in track.active:
            return
        if track.hedged and len(track.active) > 1:
            # First token decides the hedge: cancel the slower twin.
            losers = [j for j in track.active if j != i]
            track.active = {i}
            self.counters["hedge_wins"] += 1
            self._trace_event(rid, "hedge-win", t)
            for j in losers:
                if self.replicas[j].session.cancel(rid, t):
                    self.counters["hedge_cancels"] += 1
                    self._trace_event(rid, "hedge-cancel", t)
        track.delivered.append(t)
        if self._ft is not None:
            # The router's own per-token record: exactly the floats that
            # end up in the stitched RequestMetrics, which is what lets
            # the validator reconcile trace TTFT/TBT against the report.
            self.tracer.add_request_event(rid, "token", t)

    def _on_complete(self, payload, t: Seconds) -> None:
        i, rid, metrics = payload
        track = self._tracks.get(rid)
        if track is None or track.done or i not in track.active:
            return
        if track.stage == "prefill" and len(track.delivered) < track.orig.output_len:
            track.active.discard(i)
            self._start_transfer(track, i, t)
            return
        if track.segments == 1 and not track.hedged:
            # Single uninterrupted segment: the replica's metrics are the
            # request's metrics, verbatim (the 1-replica identity path).
            self._finalize(track, "completed", t, metrics=metrics)
            return
        stitched = RequestMetrics(
            request=track.orig,
            admit_time=track.admit_time if track.admit_time is not None else t,
            token_times=tuple(track.delivered),
        )
        self._finalize(track, "completed", t, metrics=stitched)

    def _on_failed(self, payload: tuple[int, Request], t: Seconds) -> None:
        i, seg = payload
        track = self._tracks.get(seg.request_id)
        if track is None or track.done or i not in track.active:
            return
        track.active.discard(i)
        if track.active:
            return  # hedge twin still alive
        if self.config.failover and self.replicas[i].is_crashed(t):
            # The replica died with the request on it; a dead process
            # cannot report failure.  If the crash gets detected, the
            # router rescues the request at detection time.
            for (c0, c1), (td, _) in self._detection_pairs(i):
                if c0 <= t < c1:
                    self._rescue(track, max(td, t))
                    return
        self._finalize(track, "failed", t)

    def _detection_pairs(self, i: int):
        """Crash windows of replica ``i`` zipped with their detections."""
        detected = dict()
        windows = self.replicas[i].crash_windows()
        pairs = []
        for c0, c1 in windows:
            for td, tu in self._detected[i]:
                if c0 <= td < c1:
                    pairs.append(((c0, c1), (td, tu)))
                    break
        return pairs

    def _on_terminal(self, payload: tuple[int, Request], t: Seconds, disposition: str) -> None:
        i, seg = payload
        track = self._tracks.get(seg.request_id)
        if track is None or track.done or i not in track.active:
            return
        track.active.discard(i)
        if track.active:
            return
        self._finalize(track, disposition, t)

    # ---- KV transfer (disaggregation) ---------------------------------------

    def _start_transfer(self, track: _Track, src: int, t: Seconds) -> None:
        """Stream the built KV from ``src`` toward a decode replica."""
        cands = self._candidates(Replica.serves_decode)
        if not cands:
            self._no_capacity(track, t)
            return
        track.stage = "transfer"
        dst = self.policy.choose(cands, track.orig, t, len(self.replicas))
        context_tokens = track.orig.input_len + len(track.delivered)
        nbytes = context_tokens * self.replicas[src].engine.kv_bytes_per_token()
        start = max(t, self._link_busy)
        factor = self.replicas[src].link_degrade_factor(start) * self.replicas[
            dst
        ].link_degrade_factor(start)
        link = INTERCONNECT
        if factor > 1.0:
            link = replace(link, bandwidth=link.bandwidth / factor)
        name = f"kv/{track.orig.request_id}/{track.segments}"
        task = transfer_task(name, link, nbytes, tag="kv-transfer")
        end = start + task.duration
        self._link_busy = end
        self._transfers[name] = TaskResult(
            name=name,
            resource="interconnect",
            start=start,
            end=end,
            tag="kv-transfer",
            cost=task.cost,
        )
        if self._tracing:
            self.tracer.add_task(
                name, "interconnect", start, end, tag="kv-transfer", cost=task.cost
            )
        self._push(end, "kv-arrive", (track.orig.request_id, dst))

    def _on_kv_arrive(self, payload: tuple[int, int], t: Seconds) -> None:
        rid, dst = payload
        track = self._tracks.get(rid)
        if track is None or track.done:
            return
        rep = self.replicas[dst]
        if rep.detected_down or rep.is_crashed(t):
            # The streamed KV landed on a dead replica: lost; replay.
            self._rescue(track, t)
            return
        self._dispatch_decode(track, dst, t)

    # ---- assembly -----------------------------------------------------------

    def _assemble(self) -> FleetResult:
        summaries: list[ReplicaSummary] = []
        freport = ContinuousReport(
            kv_budget_bytes=sum(r.kv_budget_bytes for r in self.replicas)
        )
        horizon = self._t_hi
        for i, rep in enumerate(self.replicas):
            report = rep.session.finish(validate=False)
            horizon = max(horizon, rep.session.now)
            freport.busy_intervals.extend(report.busy_intervals)
            freport.degraded_intervals.extend(report.degraded_intervals)
            freport.peak_kv_bytes += report.peak_kv_bytes
            freport.n_iterations += report.n_iterations
            freport.n_aborts += report.n_aborts
            freport.n_retries += report.n_retries
            summaries.append(
                ReplicaSummary(
                    name=rep.name,
                    machine=rep.engine.machine.name,
                    role=rep.role,
                    report=report,
                    ledger=rep.session.kv_ledger,
                    kv_budget_bytes=rep.kv_budget_bytes,
                    machine_faults=rep.machine_faults,
                    crash_windows=rep.crash_windows(),
                    detected_windows=tuple(self._detected[i]),
                    machine_spec=rep.engine.machine,
                )
            )
        freport.completed = sorted(self._completed, key=lambda m: m.request.request_id)
        freport.timed_out = sorted(self._timed_out, key=lambda r: r.request_id)
        freport.shed = sorted(self._shed, key=lambda r: r.request_id)
        freport.failed = sorted(self._failed, key=lambda r: r.request_id)
        transfers = None
        if self._transfers:
            busy = sum(tr.duration for tr in self._transfers.values())
            transfers = ScheduleResult(
                tasks=dict(self._transfers),
                makespan=max(tr.end for tr in self._transfers.values()),
                busy_time={"interconnect": busy},
                tag_time={"kv-transfer": busy},
            )
        if self._tracing:
            for i, rep in enumerate(self.replicas):
                for td, tu in self._detected[i]:
                    self.tracer.add_region(
                        f"replica:{rep.name}", "down", td, min(tu, horizon)
                    )
        return FleetResult(
            report=freport,
            replicas=summaries,
            transfers=transfers,
            counters=dict(self.counters),
            hedged_ids=frozenset(self._hedged_ids),
            horizon=horizon,
            interconnect=INTERCONNECT,
        )
