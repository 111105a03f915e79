"""The serving loop: iteration-level scheduling over a performance engine.

Every serving discipline in :mod:`repro.serving` runs through this one
loop.  The server advances one model iteration at a time, priced by
:meth:`PerfEngine.price_iteration`; requests join the running batch the
moment a slot and KV memory are available, and leave the instant their last
token is emitted — the iteration-level scheduling loop of Orca/vLLM-class
serving systems.  The classic baselines are configurations of it:
whole-request FCFS is ``max_batch=1``, and static batching is the
``static`` policy, which admits only into an empty batch.

Pieces that cooperate:

* **Admission control** — each admitted request reserves its worst-case KV
  footprint (prompt + full response) in a :class:`MemoryPool` sized by the
  GPU KV budget.  Requests queue FCFS when the pool is full
  (head-of-line blocking preserves arrival order) and the reservation is
  released on completion, so the budget is never exceeded mid-flight.
* **Scheduler policy** (:mod:`repro.serving.policies`) — decides, per
  iteration, which members prefill (and how many prompt tokens) and which
  decode, and whether waiting requests may join a running batch at all.
* **Iteration cost cache** — iteration latency is deterministic in
  ``(ctx_len, n_tokens, batch)`` *within one fault epoch*; context lengths
  are bucketed so streams of thousands of requests hit a few hundred
  engine pricings, and an untraced miss re-prices only the context tasks
  of a memoized DAG shape (:meth:`PerfEngine.price_iteration`).
* **Fault tolerance** — with a :class:`~repro.hardware.faults.FaultSchedule`
  attached, iteration costs become time-varying (PCIe/GPU/CPU degradation
  windows), device stalls abort in-flight work (bounded retry with
  exponential backoff), per-request deadlines cancel hopeless requests and
  free their KV reservations, arrivals beyond a queue bound are shed, and
  — with ``degradation=True`` — the server adapts: it caps the batch while
  a throughput fault is active and re-plans a smaller GPU hot-neuron set
  when the KV budget shrinks mid-run (trading hot-neuron residency for KV
  space).  All fault handling is deterministic: the same schedule and
  request stream always produce the same report.

The event loop itself lives in :class:`ServerSession`, a *re-entrant*
stepwise core: :meth:`ServerSession.step` executes exactly one pass of the
loop body and returns, so a driver can interleave many sessions on one
simulated clock.  :meth:`ContinuousServer.run` drives a session to
completion for the classic single-server case; the fleet layer
(:mod:`repro.serving.fleet`) drives one session per replica, feeding them
through :meth:`ServerSession.submit` and harvesting lifecycle events from
:attr:`ServerSession.outbox`.

Timing convention: completing the prompt emits the request's first output
token (the prefill step produces logits for token one), so TTFT is the end
of the iteration that finishes the prompt, and ``output_len - 1`` decode
steps follow.  Deadlines are enforced at iteration boundaries — a request
that would finish mid-iteration past its deadline still completes; one
that is unfinished at a boundary past its deadline is cancelled.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.check.schedule import KVEvent, require_valid, validate_server_run
from repro.engine.base import PerfEngine
from repro.hardware.events import ScheduleResult
from repro.hardware.faults import FaultKind, FaultSchedule
from repro.hardware.memory import MemoryPool, OutOfMemoryError
from repro.serving.arrival import Request
from repro.serving.metrics import ContinuousReport, RequestMetrics
from repro.serving.policies import SchedulerPolicy, make_policy
from repro.units import Bytes, Seconds

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.telemetry.fleet import TraceContext
    from repro.telemetry.tracer import Tracer

__all__ = [
    "RequestState",
    "IterationCostCache",
    "ServerSession",
    "ContinuousServer",
    "RETRY_BACKOFF_S",
    "retry_delay",
]

# Base of the exponential backoff before a retried request may be
# re-admitted (server) or re-dispatched (fleet router).
RETRY_BACKOFF_S: Seconds = 0.05


def retry_delay(attempt: int, cap: Seconds | None = None) -> Seconds:
    """Bounded exponential backoff: ``RETRY_BACKOFF_S * 2 ** (attempt - 1)``.

    The one retry-delay code path shared by the single-replica server and
    the fleet router, so both back off identically; ``cap`` clamps the
    delay when given.

    Raises:
        ValueError: On ``attempt < 1``.
    """
    if attempt < 1:
        raise ValueError("attempt numbers start at 1")
    delay = RETRY_BACKOFF_S * 2 ** (attempt - 1)
    if cap is not None:
        delay = min(delay, cap)
    return delay


@dataclass
class RequestState:
    """Progress of one admitted request through prefill and decode."""

    request: Request
    admit_time: Seconds
    kv_bytes: Bytes
    prefilled: int = 0
    emitted: int = 0
    token_times: list[Seconds] = field(default_factory=list)

    @property
    def remaining_prompt(self) -> int:
        return self.request.input_len - self.prefilled

    @property
    def is_prefilling(self) -> bool:
        return self.remaining_prompt > 0

    @property
    def is_decoding(self) -> bool:
        return not self.is_prefilling and self.emitted < self.request.output_len

    @property
    def done(self) -> bool:
        return self.emitted >= self.request.output_len

    @property
    def context(self) -> int:
        """Tokens currently in this request's KV cache."""
        return self.prefilled + self.emitted


class IterationCostCache:
    """Memoized iteration latencies with context-length bucketing.

    Iteration cost varies slowly with context (only the KV terms are
    ctx-dependent), so contexts are rounded to the nearest multiple of
    ``ctx_bucket`` before keying the engine simulation.  This keeps the
    number of distinct simulations bounded for long streams.

    With a fault schedule attached, cache keys additionally carry the
    *fault epoch* of the query time — within one epoch the perturbed
    machine is constant, so memoization stays sound while the simulation
    becomes time-varying.  (Distinct epochs with identical perturbations
    are cached separately; correctness over maximal sharing.)
    """

    def __init__(
        self,
        engine: PerfEngine,
        ctx_bucket: int = 32,
        faults: FaultSchedule | None = None,
    ) -> None:
        if ctx_bucket < 1:
            raise ValueError("ctx_bucket must be >= 1")
        self.engine = engine
        self.ctx_bucket = ctx_bucket
        self.faults = faults
        self._cache: dict[tuple[int, int, int, int], float] = {}
        self._schedules: dict[tuple[int, int, int, int], ScheduleResult] = {}

    def _bucket(self, ctx_len: int) -> int:
        return self.ctx_bucket * round(ctx_len / self.ctx_bucket)

    def _key(
        self, ctx_len: int, n_tokens: int, batch: int, now: Seconds
    ) -> tuple[int, int, int, int]:
        """Validated, bucketed, epoch-stamped memoization key.

        Raises:
            ValueError: On negative ``ctx_len`` or non-positive
                ``n_tokens``/``batch`` — garbage keys must fail loudly
                instead of being cached.
        """
        if ctx_len < 0:
            raise ValueError("ctx_len must be non-negative")
        if n_tokens < 1:
            raise ValueError("n_tokens must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        epoch = self.faults.epoch(now) if self.faults is not None else 0
        return (self._bucket(ctx_len), n_tokens, batch, epoch)

    def _price(
        self, key: tuple[int, int, int, int], now: Seconds, keep_schedule: bool
    ) -> tuple[Seconds, ScheduleResult | None]:
        """Price ``key``'s iteration on the machine as the faults at ``now``
        leave it; the schedule too when ``keep_schedule`` asks for it."""
        machine = None
        if self.faults is not None:
            machine = self.faults.perturbed_machine(self.engine.machine, now)
        return self.engine.price_iteration(
            *key[:3], machine=machine, keep_schedule=keep_schedule
        )

    def cost(
        self,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        now: Seconds = 0.0,
        keep_schedule: bool = False,
    ) -> Seconds:
        """Latency of one iteration at ``(ctx_len, n_tokens, batch)``.

        ``now`` selects the fault epoch when a schedule is attached (and
        is ignored otherwise).  ``keep_schedule`` keeps the schedule a
        miss prices, so a traced session's :meth:`schedule` replays it
        instead of pricing the iteration again; an untraced miss asks the
        engine for the makespan only.
        """
        key = self._key(ctx_len, n_tokens, batch, now)
        if key not in self._cache:
            makespan, sched = self._price(key, now, keep_schedule)
            self._cache[key] = makespan
            if sched is not None:
                self._schedules[key] = sched
        return self._cache[key]

    def schedule(
        self, ctx_len: int, n_tokens: int, batch: int, now: Seconds = 0.0
    ) -> ScheduleResult:
        """The full per-task schedule behind :meth:`cost` (memoized).

        Tracing uses this to replay the scheduled DAG onto the global
        timeline.  The simulation is deterministic, so
        ``schedule(...).makespan == cost(...)`` for the same arguments —
        the invariant that keeps emitted task spans consistent with the
        iteration windows the server books.
        """
        key = self._key(ctx_len, n_tokens, batch, now)
        sched = self._schedules.get(key)
        if sched is None:
            makespan, sched = self._price(key, now, keep_schedule=True)
            self._schedules[key] = sched
            self._cache.setdefault(key, makespan)
        return sched

    def __len__(self) -> int:
        return len(self._cache)


class ServerSession:
    """The re-entrant stepwise core of one continuous-serving run.

    A session owns all loop state of one run — queues, running batch, KV
    pool, retry heap, report, simulated clock — and advances it one loop
    pass at a time via :meth:`step`.  Requests arrive through
    :meth:`submit` (possibly mid-run, possibly with prior progress from
    another replica), lifecycle events are mirrored into :attr:`outbox`
    for the driver, and an admission deadlock parks the session
    (:attr:`blocked`) — only a :meth:`submit` or :meth:`cancel` can
    unblock it.  :meth:`ContinuousServer.run` submits a whole stream at
    its arrival times and steps until done; a fleet driver holds one
    session per replica and always steps the session whose
    :meth:`next_action_time` is earliest, which is what keeps N replicas
    consistent on one global clock.

    Outbox entries are tuples whose first element is the kind:
    ``("admit", rid, t)``, ``("token", rid, t)``, ``("complete", rid,
    metrics)``, ``("failed", request, t)``, ``("timeout", request, t)``,
    ``("shed", request, t)``.
    """

    def __init__(
        self, server: "ContinuousServer", record_ledger: bool | None = None
    ) -> None:
        self.server = server
        self.record_ledger = server.validate if record_ledger is None else record_ledger
        self.waiting: deque[Request] = deque()
        self.running: list[RequestState] = []
        self.pool = MemoryPool(name="kv-cache", capacity=server.kv_budget_bytes)
        self.report = ContinuousReport(kv_budget_bytes=self.pool.usable_capacity)
        self.kv_ledger: list[KVEvent] = []
        self.retry_heap: list[tuple[float, int, Request]] = []  # (ready, id, request)
        self.attempts: dict[int, int] = {}
        self.now = 0.0
        self.blocked = False
        # Submissions: (dispatch time, insertion seq, request, prefilled,
        # emitted).  The seq keeps equal-time pops FIFO.
        self.dispatch_heap: list[tuple[float, int, Request, int, int]] = []
        self._dispatch_seq = 0
        self._progress: dict[int, tuple[int, int]] = {}
        self.outbox: list[tuple] = []
        # Upper bound on pure clock *advances* (idle / admission-blocked
        # jumps) — a fleet driver sets it to the next global event time so
        # a session never skips past an arrival it has not been handed
        # yet.  Iterations and stalls are atomic and ignore the cap, same
        # as the monolithic loop.  None = unbounded.
        self.time_cap: Seconds | None = None
        tracer = server.tracer
        self.tracer = tracer
        self.tracing = tracer is not None and tracer.enabled
        self.enqueued_at: dict[int, float] = {}
        # Fleet dispatch-attempt counters, keyed by request id: stamped
        # onto every traced lifecycle event so re-dispatches of one
        # request to this replica stay distinguishable.  Empty (hop =
        # None on every event) outside a fleet run.
        self._hops: dict[int, int] = {}
        if self.tracing and server.faults is not None:
            from repro.telemetry.tracer import record_fault_schedule

            record_fault_schedule(tracer, server.faults)

    # ---- driver API ----------------------------------------------------------

    def submit(
        self,
        request: Request,
        at: Seconds,
        prefilled: int = 0,
        emitted: int = 0,
        ctx: "TraceContext | None" = None,
    ) -> None:
        """Hand the session a request that becomes visible at time ``at``.

        ``prefilled``/``emitted`` seed the request's admitted state — how a
        fleet resumes a migrated request whose context (``prefilled``) was
        already built elsewhere (e.g. KV streamed in from a prefill
        replica) and whose first ``emitted`` tokens already reached the
        user.  The session emits only the remaining
        ``output_len - emitted`` tokens.  ``ctx`` is the router's trace
        context for this dispatch attempt; its hop counter is stamped
        onto every lifecycle event the session records for the request
        (pure telemetry — it never affects scheduling).
        """
        if prefilled < 0 or emitted < 0:
            raise ValueError("prefilled and emitted must be non-negative")
        if ctx is not None:
            self._hops[request.request_id] = ctx.hop
        heapq.heappush(
            self.dispatch_heap,
            (at, self._dispatch_seq, request, prefilled, emitted),
        )
        self._dispatch_seq += 1
        self.blocked = False

    def cancel(self, request_id: int, at: Seconds) -> bool:
        """Withdraw a request wherever it lives (hedge loser, stale copy).

        Releases its KV reservation and drops any queued or backoff copy;
        returns whether anything was removed.  The release is ledgered at
        the *session's* clock, not ``at``: the cancellation takes effect
        when this replica processes it, which keeps the per-replica KV
        ledger time-ordered whether the caller is ahead of or behind this
        session's clock.
        """
        t = self.now
        for i, request in enumerate(self.waiting):
            if request.request_id == request_id:
                del self.waiting[i]
                self._progress.pop(request_id, None)
                self.blocked = False
                return True
        for i, state in enumerate(self.running):
            if state.request.request_id == request_id:
                self.pool.release(f"req-{request_id}")
                self._ledger_add(t, "free", f"req-{request_id}", state.kv_bytes)
                if self.tracing:
                    self._trace_batch_phases(state, t)
                    self.tracer.add_request_event(
                        request_id, "cancel", t, hop=self._hop_of(request_id)
                    )
                del self.running[i]
                self.blocked = False
                return True
        for heap in (self.retry_heap, self.dispatch_heap):
            for i, entry in enumerate(heap):
                if entry[2].request_id == request_id:
                    del heap[i]
                    heapq.heapify(heap)
                    self._progress.pop(request_id, None)
                    return True
        return False

    def drain(self, at: Seconds) -> list[Request]:
        """Pull every undelivered request out of the session (crash drain).

        Queued, backoff, and not-yet-pumped submissions are returned for
        the driver to re-dispatch; anything still marked running (normally
        already aborted by the crash stall) is released defensively.  The
        session itself stays usable — a recovered replica accepts new
        :meth:`submit` calls.
        """
        drained: list[Request] = list(self.waiting)
        self.waiting.clear()
        while self.retry_heap:
            _, _, request = heapq.heappop(self.retry_heap)
            drained.append(request)
        while self.dispatch_heap:
            _, _, request, _, _ = heapq.heappop(self.dispatch_heap)
            drained.append(request)
        for state in self.running:
            self.pool.release(f"req-{state.request.request_id}")
            self._ledger_add(
                max(at, self.now),
                "free",
                f"req-{state.request.request_id}",
                state.kv_bytes,
            )
            self.report.n_aborts += 1
            drained.append(state.request)
        self.running.clear()
        self._progress.clear()
        self.blocked = False
        drained.sort(key=lambda r: r.request_id)
        return drained

    def has_work(self) -> bool:
        """Whether another :meth:`step` could make progress."""
        return bool(
            self.dispatch_heap
            or self.waiting
            or self.running
            or self.retry_heap
        )

    def next_action_time(self) -> Seconds | None:
        """Earliest simulated time the session can act, or None when idle.

        A session with admitted or queued work acts *now*; an empty one
        reports its next arrival/submission/retry instant.  ``None`` means
        no internal event will ever occur — only :meth:`submit` /
        :meth:`cancel` can wake it (this includes the :attr:`blocked`
        admission-deadlock state).
        """
        if self.blocked:
            return None
        if self.waiting or self.running:
            return self.now
        horizon = self._horizon()
        return None if horizon is None else max(self.now, horizon)

    # ---- bookkeeping helpers -------------------------------------------------

    def _horizon(self) -> Seconds | None:
        """The earliest queued submission or retry instant, or None."""
        times = []
        if self.dispatch_heap:
            times.append(self.dispatch_heap[0][0])
        if self.retry_heap:
            times.append(self.retry_heap[0][0])
        return min(times) if times else None

    def _hop_of(self, rid: int) -> int | None:
        """The fleet dispatch-attempt counter of ``rid`` (None standalone)."""
        return self._hops.get(rid)

    def _ledger_add(self, time: Seconds, op: str, name: str, nbytes: Bytes) -> None:
        """Record one KV-pool operation for post-run validation.

        The ledger mirrors every ``allocate``/``release`` on the pool with
        its simulated timestamp; :func:`validate_kv_ledger` replays it to
        prove conservation.  Kept with ``validate=True`` (or when the
        driver asked for it explicitly — the fleet validator needs per-
        replica ledgers even on unvalidated replicas).
        """
        if self.record_ledger:
            self.kv_ledger.append(KVEvent(time=time, op=op, name=name, nbytes=nbytes))

    def _trace_batch_phases(self, state: RequestState, end: Seconds) -> None:
        """Record the phase spans of a request leaving the batch at ``end``.

        Phase boundaries are reconstructed from the token timeline: the
        prefill span runs from admission to the first token (which the
        final prefill step emits); everything after is decode.  A request
        evicted before its first token gets only a (partial) prefill span.
        """
        rid = state.request.request_id
        if state.token_times:
            first = state.token_times[0]
            self.tracer.add_request_span(rid, "prefill", state.admit_time, first)
            if end > first:
                self.tracer.add_request_span(rid, "decode", first, end)
        else:
            self.tracer.add_request_span(rid, "prefill", state.admit_time, end)

    def _enqueue(self, request: Request) -> None:
        if (
            self.server.max_queue is not None
            and len(self.waiting) >= self.server.max_queue
        ):
            self.report.shed.append(request)
            self.outbox.append(("shed", request, self.now))
            if self.tracing:
                self.tracer.add_request_event(
                    request.request_id,
                    "shed",
                    self.now,
                    hop=self._hop_of(request.request_id),
                )
                self.tracer.metrics.counter("shed").inc()
        else:
            self.waiting.append(request)

    def _admit(self, batch_cap: int, effective_budget: Bytes) -> None:
        """FCFS admission under batch slots and the (possibly shrunken) KV budget.

        Head-of-line blocking: if the oldest waiting request does not fit,
        nothing behind it is admitted (preserves arrival order, the
        "queue-on-full" discipline).  A request that cannot fit even an
        *empty* pristine pool can never be served and raises immediately.
        A policy that does not join running batches (``static``) admits
        only while the batch is empty.
        """
        if self.running and not self.server.policy.joins_running:
            return
        while self.waiting and len(self.running) < batch_cap:
            request = self.waiting[0]
            kv_bytes = self.server.engine.request_kv_bytes(
                request.input_len, request.output_len
            )
            if kv_bytes > self.pool.usable_capacity:
                raise OutOfMemoryError(
                    f"request {request.request_id} needs "
                    f"{kv_bytes / 2**20:.1f} MiB of KV cache but the "
                    f"budget is {self.pool.usable_capacity / 2**20:.1f} MiB"
                )
            if self.pool.used + kv_bytes > effective_budget:
                return
            self.pool.allocate(f"req-{request.request_id}", kv_bytes)
            self._ledger_add(self.now, "alloc", f"req-{request.request_id}", kv_bytes)
            self.waiting.popleft()
            prefilled, emitted = self._progress.pop(request.request_id, (0, 0))
            self.running.append(
                RequestState(
                    request=request,
                    admit_time=self.now,
                    kv_bytes=kv_bytes,
                    prefilled=prefilled,
                    emitted=emitted,
                )
            )
            self.outbox.append(("admit", request.request_id, self.now))
            if self.tracing:
                rid = request.request_id
                queued_from = self.enqueued_at.get(rid, request.arrival_time)
                self.tracer.add_request_span(rid, "queued", queued_from, self.now)
                self.tracer.add_request_event(
                    rid, "admit", self.now, hop=self._hop_of(rid)
                )

    def _abort_running(self, resume_at: Seconds, at: Seconds | None = None) -> None:
        """Abort all in-flight requests (device stall): release KV, retry.

        A retried request restarts from scratch (its partial stream is
        lost) and becomes eligible for re-admission after an exponential
        backoff (:func:`retry_delay`); a request out of retries is
        recorded as failed.
        ``at`` is the abort instant on the traced timeline (defaults to
        ``resume_at`` — the stall end — when not given).
        """
        server = self.server
        abort_time = at if at is not None else resume_at
        for state in self.running:
            self.pool.release(f"req-{state.request.request_id}")
            self._ledger_add(
                abort_time, "free", f"req-{state.request.request_id}", state.kv_bytes
            )
            self.report.n_aborts += 1
            rid = state.request.request_id
            attempt = self.attempts.get(rid, 0) + 1
            self.attempts[rid] = attempt
            if self.tracing:
                self._trace_batch_phases(state, abort_time)
                self.tracer.add_request_event(
                    rid, "abort", abort_time, hop=self._hop_of(rid)
                )
                self.tracer.metrics.counter("aborts").inc()
            if attempt > server.max_retries:
                self.report.failed.append(state.request)
                self.outbox.append(("failed", state.request, abort_time))
                if self.tracing:
                    self.tracer.add_request_event(
                        rid, "fail", abort_time, hop=self._hop_of(rid)
                    )
                    self.tracer.metrics.counter("failed").inc()
            else:
                self.report.n_retries += 1
                ready = resume_at + retry_delay(attempt)
                heapq.heappush(self.retry_heap, (ready, rid, state.request))
                if self.tracing:
                    self.tracer.metrics.counter("retries").inc()
        self.running.clear()

    def _cancel_expired(self) -> None:
        """Deadline enforcement at an iteration boundary.

        Expired waiting requests are dropped; expired running requests
        release their KV reservation.  Either way they are recorded as
        timed out and never reach the completed set.
        """
        now = self.now
        kept: deque[Request] = deque()
        for request in self.waiting:
            d = self.server._deadline_of(request)
            if d is not None and now >= request.arrival_time + d:
                self.report.timed_out.append(request)
                self._progress.pop(request.request_id, None)
                self.outbox.append(("timeout", request, now))
                if self.tracing:
                    rid = request.request_id
                    queued_from = self.enqueued_at.get(rid, request.arrival_time)
                    self.tracer.add_request_span(rid, "queued", queued_from, now)
                    self.tracer.add_request_event(
                        rid, "timeout", now, hop=self._hop_of(rid)
                    )
                    self.tracer.metrics.counter("timeouts").inc()
            else:
                kept.append(request)
        self.waiting.clear()
        self.waiting.extend(kept)
        still: list[RequestState] = []
        for state in self.running:
            d = self.server._deadline_of(state.request)
            if d is not None and now >= state.request.arrival_time + d:
                self.pool.release(f"req-{state.request.request_id}")
                self._ledger_add(
                    now, "free", f"req-{state.request.request_id}", state.kv_bytes
                )
                self.report.timed_out.append(state.request)
                self.outbox.append(("timeout", state.request, now))
                if self.tracing:
                    self._trace_batch_phases(state, now)
                    self.tracer.add_request_event(
                        state.request.request_id,
                        "timeout",
                        now,
                        hop=self._hop_of(state.request.request_id),
                    )
                    self.tracer.metrics.counter("timeouts").inc()
            else:
                still.append(state)
        self.running = still

    # ---- the loop body -------------------------------------------------------

    def step(self) -> bool:
        """Execute one pass of the serving loop; returns whether it ran.

        One pass pumps due submissions/retries, then either advances the
        clock to the next event, handles a stall, or books one iteration.
        ``False`` means the session is done or blocked — stepping again
        without new input is a no-op.
        """
        if self.blocked or not self.has_work():
            return False
        server = self.server
        tracer = self.tracer
        tracing = self.tracing
        report = self.report
        pool = self.pool

        while self.dispatch_heap and self.dispatch_heap[0][0] <= self.now:
            at, _, request, prefilled, emitted = heapq.heappop(self.dispatch_heap)
            if prefilled or emitted:
                self._progress[request.request_id] = (prefilled, emitted)
            if tracing:
                tracer.add_request_event(
                    request.request_id,
                    "arrive",
                    at,
                    hop=self._hop_of(request.request_id),
                )
                self.enqueued_at[request.request_id] = at
            self._enqueue(request)
        while self.retry_heap and self.retry_heap[0][0] <= self.now:
            _, _, request = heapq.heappop(self.retry_heap)
            if tracing:
                tracer.add_request_event(
                    request.request_id,
                    "requeue",
                    self.now,
                    hop=self._hop_of(request.request_id),
                )
                self.enqueued_at[request.request_id] = self.now
            self._enqueue(request)

        if not self.running and not self.waiting:
            horizon = self._horizon()
            if horizon is None:
                return False  # everything remaining was shed or failed
            target = max(self.now, horizon)
            if self.time_cap is not None and self.time_cap < target:
                if self.time_cap <= self.now:
                    return False  # parked: the driver must act first
                target = self.time_cap
            self.now = target
            return True

        self._cancel_expired()
        if not self.running and not self.waiting:
            return True

        if server.faults is not None:
            stall_end = server.faults.stall_end_at(self.now)
            if stall_end is not None and stall_end > self.now:
                # The device is stalled: nothing can run until the
                # window closes; in-flight work is lost.
                self._abort_running(stall_end, at=self.now)
                self.now = stall_end
                return True

        kv_factor = (
            server.faults.kv_budget_factor(self.now)
            if server.faults is not None
            else 1.0
        )
        throughput_fault = server.faults is not None and server.faults.is_degraded(
            self.now
        )
        costs = server.costs
        effective_budget = pool.usable_capacity * kv_factor
        batch_cap = server.max_batch
        degraded_now = False
        if server.degradation and kv_factor < 1.0:
            # KV squeeze: swap in the re-planned engine whose demoted
            # hot neurons buy the budget back.
            engine_, costs, freed = server._degraded_runtime()
            effective_budget = min(pool.usable_capacity, effective_budget + freed)
            degraded_now = True
        if server.degradation and throughput_fault:
            # Brownout: keep the batch small while the machine is slow
            # so in-flight streams keep their token cadence.
            batch_cap = max(1, batch_cap // 4)
            degraded_now = True

        self._admit(batch_cap, effective_budget)
        report.peak_kv_bytes = max(report.peak_kv_bytes, pool.used)

        if not self.running:
            # Admission blocked (shrunken budget or stalled retries):
            # advance to whatever happens next.
            horizon = [self._horizon()]
            if server.faults is not None:
                horizon.append(server.faults.next_boundary_after(self.now))
            future = [t for t in horizon if t is not None and t > self.now]
            if not future:
                # Only a submit/cancel can change anything; park so the
                # driver decides.
                self.blocked = True
                return False
            target = min(future)
            if self.time_cap is not None and self.time_cap < target:
                if self.time_cap <= self.now:
                    return False  # parked until the driver's next event
                target = self.time_cap
            self.now = target
            return True

        plan = server.policy.plan_iteration(self.running)
        if plan.is_empty:
            raise RuntimeError(
                f"policy {server.policy.name!r} stalled a non-empty batch"
            )

        if tracing:
            tracer.add_counter("queue_depth", self.now, float(len(self.waiting)))
            tracer.add_counter("running_batch", self.now, float(len(self.running)))
            tracer.add_counter("kv_used_bytes", self.now, pool.used)

        # Components: (offset within the iteration, ctx, n_tokens, batch).
        # The offsets accumulate with the same float additions as the
        # cost, so replayed schedules land exactly on the booked window.
        cost = 0.0
        components: list[tuple[float, int, int, int]] = []
        for state, chunk in plan.prefill:
            components.append((cost, state.context, chunk, 1))
            cost += costs.cost(state.context, chunk, 1, self.now, keep_schedule=tracing)
        if plan.decode:
            ctx = max(state.context for state in plan.decode)
            components.append((cost, ctx, 1, len(plan.decode)))
            cost += costs.cost(ctx, 1, len(plan.decode), self.now, keep_schedule=tracing)
        end = self.now + cost

        if server.faults is not None:
            stall = server.faults.next_stall_start(self.now, end)
            if stall is not None:
                # A device stall preempts the in-flight iteration: the
                # partial work is lost and the batch aborts.
                if stall.start > self.now:
                    report.busy_intervals.append((self.now, stall.start))
                    if tracing:
                        tracer.add_region(
                            "server",
                            "iteration-aborted",
                            self.now,
                            stall.start,
                            args={"batch": float(len(self.running))},
                        )
                        # The devices really did run until the stall —
                        # replay the component schedules clipped at the
                        # preemption point (lost work, no iteration id).
                        for offset, ctx_c, n_tok, bsz in components:
                            t0c = self.now + offset
                            if t0c >= stall.start:
                                break
                            sched = costs.schedule(ctx_c, n_tok, bsz, self.now)
                            for task in sched.tasks.values():
                                t_start = t0c + task.start
                                t_end = min(t0c + task.end, stall.start)
                                if t_end > t_start:
                                    tracer.add_task(
                                        task.name,
                                        task.resource,
                                        t_start,
                                        t_end,
                                        tag=task.tag,
                                    )
                if degraded_now:
                    report.degraded_intervals.append((self.now, stall.start))
                    if tracing and stall.start > self.now:
                        tracer.add_region("server", "degraded", self.now, stall.start)
                self._abort_running(stall.end, at=stall.start)
                self.now = stall.end
                return True

        report.busy_intervals.append((self.now, end))
        report.n_iterations += 1
        if degraded_now:
            report.degraded_intervals.append((self.now, end))

        if tracing:
            iteration = report.n_iterations - 1
            tracer.add_region(
                "server",
                "iteration",
                self.now,
                end,
                args={
                    "batch": float(len(self.running)),
                    "prefill_tokens": float(plan.prefill_tokens),
                    "decode": float(len(plan.decode)),
                },
            )
            if degraded_now:
                tracer.add_region("server", "degraded", self.now, end)
            busy_by_lane: dict[str, float] = {}
            for offset, ctx_c, n_tok, bsz in components:
                sched = costs.schedule(ctx_c, n_tok, bsz, self.now)
                tracer.add_schedule(sched, t0=self.now + offset, iteration=iteration)
                for lane, busy in sched.busy_time.items():
                    busy_by_lane[lane] = busy_by_lane.get(lane, 0.0) + busy
            if cost > 0:
                for lane in sorted(busy_by_lane):
                    tracer.add_counter(
                        f"busy_frac_{lane}", self.now, busy_by_lane[lane] / cost
                    )
            tracer.metrics.counter("iterations").inc()
            tracer.metrics.gauge("kv_used_bytes").set(pool.used)

        for state, chunk in plan.prefill:
            state.prefilled += chunk
            if not state.is_prefilling:
                # Prompt done: the prefill step yields the first token.
                state.emitted += 1
                state.token_times.append(end)
                self.outbox.append(("token", state.request.request_id, end))
                if tracing:
                    tracer.add_request_event(
                        state.request.request_id,
                        "first_token",
                        end,
                        hop=self._hop_of(state.request.request_id),
                    )
        for state in plan.decode:
            state.emitted += 1
            state.token_times.append(end)
            self.outbox.append(("token", state.request.request_id, end))

        still_running: list[RequestState] = []
        for state in self.running:
            if state.done:
                pool.release(f"req-{state.request.request_id}")
                self._ledger_add(
                    state.token_times[-1],
                    "free",
                    f"req-{state.request.request_id}",
                    state.kv_bytes,
                )
                metrics = RequestMetrics(
                    request=state.request,
                    admit_time=state.admit_time,
                    token_times=tuple(state.token_times),
                )
                report.completed.append(metrics)
                self.outbox.append(("complete", state.request.request_id, metrics))
                if tracing:
                    self._trace_batch_phases(state, state.token_times[-1])
                    tracer.add_request_event(
                        state.request.request_id,
                        "finish",
                        state.token_times[-1],
                        hop=self._hop_of(state.request.request_id),
                    )
                    tracer.metrics.counter("completed").inc()
                    tracer.metrics.histogram("ttft_s").record(metrics.ttft)
                    tracer.metrics.histogram("latency_s").record(metrics.latency)
            else:
                still_running.append(state)
        self.running = still_running
        self.now = end
        return True

    # ---- wrap-up -------------------------------------------------------------

    def finish(self, validate: bool | None = None) -> ContinuousReport:
        """Sort and (optionally) validate the report; returns it.

        ``validate`` defaults to the server's ``validate`` flag.  The
        session remains inspectable afterwards (ledger, pool, clock).
        """
        report = self.report
        report.completed.sort(key=lambda m: m.request.request_id)
        report.timed_out.sort(key=lambda r: r.request_id)
        report.shed.sort(key=lambda r: r.request_id)
        report.failed.sort(key=lambda r: r.request_id)
        if self.tracing:
            self.tracer.metrics.gauge("peak_kv_bytes").set(report.peak_kv_bytes)
            self.tracer.metrics.gauge("time_in_degraded_mode_s").set(
                report.time_in_degraded_mode
            )
        self.server.last_kv_ledger = self.kv_ledger
        if validate if validate is not None else self.server.validate:
            # Over-budget is checked against the *nominal* pool capacity:
            # KV-shrink windows shrink the admission threshold, but
            # reservations made before the squeeze legitimately persist.
            require_valid(
                validate_server_run(
                    report,
                    ledger=self.kv_ledger,
                    budget=self.pool.usable_capacity,
                    faults=self.server.faults,
                    tracer=self.tracer if self.tracing else None,
                )
            )
        return report


class ContinuousServer:
    """Event-driven LLM server with graceful degradation.

    Attributes:
        engine: Performance engine pricing each iteration.
        policy: Scheduler policy shaping iterations (name or instance);
            ``"static"`` admits only into an empty batch.
        max_batch: Maximum concurrently running requests; ``1`` serves
            whole requests one at a time (FCFS).
        kv_budget_bytes: KV-cache memory budget for admission control;
            defaults to the engine's free GPU memory after plan-resident
            weights (:meth:`PerfEngine.kv_budget_bytes`).
        ctx_bucket: Context-length bucket for the iteration cost cache.
        faults: Optional fault schedule perturbing the machine over
            simulated time (see :mod:`repro.hardware.faults`).
        deadline: Default per-request completion deadline (seconds after
            arrival) applied when a request carries none.  ``None``
            disables deadline enforcement for such requests.
        max_retries: How many times a stall-aborted request is re-queued
            (after :func:`retry_delay` backoff) before being recorded as
            failed.
        max_queue: Bound on the admission queue; arrivals beyond it are
            shed (``None`` disables load shedding).
        degradation: Enables graceful degradation — the fault-adaptive
            batch cap (``max(1, max_batch // 4)`` while a throughput fault
            is active) and the KV-shrink hot-neuron re-plan.  With
            ``False`` the server still *suffers* every fault (perturbed
            costs, stalls, shrunken budget) but does not adapt; the chaos
            benchmark compares the two.
        tracer: Optional :class:`~repro.telemetry.tracer.Tracer` recording
            device task spans, request lifecycle spans/events, iteration
            and degraded-mode regions, fault annotations, and counter
            samples over the run.  ``None`` (default) disables tracing;
            the run's results are bit-identical either way.
        validate: When ``True``, :meth:`run` keeps a KV-allocation ledger
            and, before returning, replays the report against the server
            invariants (:func:`repro.check.schedule.validate_server_run` —
            non-overlapping iteration windows, nothing executing inside a
            device stall, KV-memory conservation under the nominal budget,
            trace/report reconciliation), raising
            :class:`~repro.check.schedule.ScheduleValidationError` on any
            violation.  Off by default; a diagnostic/CI hook.
    """

    def __init__(
        self,
        engine: PerfEngine,
        policy: SchedulerPolicy | str = "fcfs",
        max_batch: int = 8,
        kv_budget_bytes: Bytes | None = None,
        ctx_bucket: int = 32,
        faults: FaultSchedule | None = None,
        deadline: Seconds | None = None,
        max_retries: int = 2,
        max_queue: int | None = None,
        degradation: bool = True,
        tracer: "Tracer | None" = None,
        validate: bool = False,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None)")
        self.engine = engine
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.max_batch = max_batch
        budget = kv_budget_bytes if kv_budget_bytes is not None else engine.kv_budget_bytes()
        if budget <= 0:
            raise ValueError(
                "kv_budget_bytes must be positive (the plan leaves no GPU "
                "memory for KV; pass an explicit budget)"
            )
        self.kv_budget_bytes = budget
        self.faults = faults
        self.deadline = deadline
        self.max_retries = max_retries
        self.max_queue = max_queue
        self.degradation = degradation
        self.tracer = tracer
        self.validate = validate
        self.costs = IterationCostCache(engine, ctx_bucket, faults=faults)
        # Lazily-built degraded runtime: (engine, cost cache, bytes freed).
        self._degraded: tuple[PerfEngine, IterationCostCache, float] | None = None
        # KV-pool ledger of the last run (only populated with validate=True
        # or a session constructed with record_ledger=True).
        self.last_kv_ledger: list[KVEvent] = []

    # ---- degraded mode -------------------------------------------------------

    def _degraded_runtime(self) -> tuple[PerfEngine, IterationCostCache, float]:
        """Engine + cache for KV-shrink windows: hot neurons demoted to CPU.

        The re-plan frees enough GPU weight bytes to cover the worst KV
        shrinkage in the schedule, so admissions keep flowing while the
        squeeze lasts — at the price of slower iterations (more CPU-side
        neuron work).  Built once, deterministically.
        """
        if self._degraded is None:
            worst = min(
                (
                    e.magnitude
                    for e in self.faults.events
                    if e.kind == FaultKind.KV_SHRINK
                ),
                default=1.0,
            )
            target = self.kv_budget_bytes * (1.0 - worst)
            pristine_plan = self.engine.plan
            plan = pristine_plan.with_gpu_bytes_freed(target)
            freed = pristine_plan.gpu_weight_bytes - plan.gpu_weight_bytes
            # A shallow copy keeps every engine setting (e.g. PowerInfer's
            # selective_sync); only the plan changes.
            engine = copy.copy(self.engine)
            engine.plan = plan
            cache = IterationCostCache(engine, self.costs.ctx_bucket, faults=self.faults)
            self._degraded = (engine, cache, float(freed))
        return self._degraded

    def _deadline_of(self, request: Request) -> Seconds | None:
        return request.deadline if request.deadline is not None else self.deadline

    # ---- main loop -----------------------------------------------------------

    def session(self, record_ledger: bool | None = None) -> ServerSession:
        """A fresh :class:`ServerSession` over this server's configuration."""
        return ServerSession(self, record_ledger=record_ledger)

    def run(self, requests: list[Request]) -> ContinuousReport:
        """Serve ``requests``; returns token-level metrics.

        Each request is submitted at its arrival time, in
        ``(arrival_time, request_id)`` order.

        Raises:
            OutOfMemoryError: If admission deadlocks — waiting requests can
                never fit the remaining KV budget.
        """
        session = self.session()
        for request in sorted(requests, key=lambda r: (r.arrival_time, r.request_id)):
            session.submit(request, at=request.arrival_time)
        while session.step():
            session.outbox.clear()
        if session.blocked:
            raise OutOfMemoryError(
                "admission deadlocked: waiting requests can never "
                "fit the remaining KV budget"
            )
        return session.finish()
