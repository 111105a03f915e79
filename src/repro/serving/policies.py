"""Pluggable iteration-level scheduler policies for continuous batching.

Each iteration, the server asks its policy what the running batch should do
for the next model step: which prefilling requests advance (and by how many
prompt tokens), and which decoding requests emit a token.  Three policies
span the design space studied by iteration-level schedulers (Orca, vLLM,
Sarathi), and a fourth recovers the static batching they replaced:

* :class:`FCFSJoinPolicy` — everyone runs every iteration; a joining
  request prefills its whole prompt in one step alongside ongoing decodes.
* :class:`PrefillPriorityPolicy` — while any member still has prompt
  tokens, iterations are prefill-only; decodes stall.  Minimizes TTFT and
  ramps the batch fastest, at the price of decode stalls (worse TBT).
* :class:`ChunkedPrefillPolicy` — prompt work is split into chunks capped
  at ``max_prefill_tokens`` per iteration so decode tokens keep flowing
  every step; this bounds the worst inter-token gap (Sarathi-style TBT
  protection).
* :class:`StaticBatchPolicy` — iterations as in ``fcfs``, but the server
  admits only into an empty batch, so a batch is frozen at dispatch and
  drains before the next one forms (request-level static batching).

Policies never see the waiting queue: admission (FCFS, KV-budget gated)
belongs to the server.  They only shape the iteration over already-admitted
requests — plus the one :attr:`SchedulerPolicy.joins_running` predicate the
server consults before admitting — so a policy cannot violate the memory
budget.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.continuous import RequestState

__all__ = [
    "IterationPlan",
    "SchedulerPolicy",
    "FCFSJoinPolicy",
    "PrefillPriorityPolicy",
    "ChunkedPrefillPolicy",
    "StaticBatchPolicy",
    "SERVING_POLICIES",
    "make_policy",
]


@dataclass
class IterationPlan:
    """What one model iteration does.

    Attributes:
        prefill: ``(request state, n_prompt_tokens)`` chunks advanced this
            iteration (each costed as its own prompt block).
        decode: Requests emitting one token this iteration (costed as one
            batched decode step).
    """

    prefill: list[tuple["RequestState", int]] = field(default_factory=list)
    decode: list["RequestState"] = field(default_factory=list)

    @property
    def prefill_tokens(self) -> int:
        """Total prompt tokens processed this iteration."""
        return sum(chunk for _, chunk in self.prefill)

    @property
    def is_empty(self) -> bool:
        return not self.prefill and not self.decode


class SchedulerPolicy(ABC):
    """Decides the composition of each model iteration.

    Attributes:
        joins_running: Whether waiting requests may join a batch that is
            already running (iteration-level batching).  ``False`` makes
            the server admit only into an empty batch.
    """

    name = "base"
    joins_running = True

    @abstractmethod
    def plan_iteration(self, running: Sequence["RequestState"]) -> IterationPlan:
        """Plan the next iteration over the admitted batch.

        ``running`` is ordered by admission time (FCFS).  Every returned
        state must come from ``running``; a non-empty batch must yield a
        non-empty plan (the server rejects stalls).
        """


class FCFSJoinPolicy(SchedulerPolicy):
    """Join-immediately scheduling: full prompt in one step, then decode."""

    name = "fcfs"

    def plan_iteration(self, running: Sequence["RequestState"]) -> IterationPlan:
        plan = IterationPlan()
        for state in running:
            if state.is_prefilling:
                plan.prefill.append((state, state.remaining_prompt))
            elif state.is_decoding:
                plan.decode.append(state)
        return plan


class StaticBatchPolicy(FCFSJoinPolicy):
    """Static batching: admit only into an empty batch.

    A batch forms from the requests waiting when the previous batch has
    fully drained (up to ``max_batch`` and the KV budget), then runs
    closed: members still leave at their own last token, but nobody
    joins until the last member finishes.  With non-overlapping arrivals
    it is indistinguishable from ``fcfs``.
    """

    name = "static"
    joins_running = False


class PrefillPriorityPolicy(SchedulerPolicy):
    """Prefill-only iterations while any member still has prompt tokens."""

    name = "prefill-first"

    def plan_iteration(self, running: Sequence["RequestState"]) -> IterationPlan:
        plan = IterationPlan()
        prefilling = [s for s in running if s.is_prefilling]
        if prefilling:
            plan.prefill = [(s, s.remaining_prompt) for s in prefilling]
            return plan
        plan.decode = [s for s in running if s.is_decoding]
        return plan


class ChunkedPrefillPolicy(SchedulerPolicy):
    """Cap per-iteration prompt tokens so decodes never stall for long.

    Attributes:
        max_prefill_tokens: Prompt-token budget per iteration, shared FCFS
            across prefilling requests.
    """

    name = "chunked"

    def __init__(self, max_prefill_tokens: int = 64) -> None:
        if max_prefill_tokens < 1:
            raise ValueError("max_prefill_tokens must be >= 1")
        self.max_prefill_tokens = max_prefill_tokens

    def plan_iteration(self, running: Sequence["RequestState"]) -> IterationPlan:
        plan = IterationPlan()
        budget = self.max_prefill_tokens
        for state in running:
            if state.is_decoding:
                plan.decode.append(state)
            elif state.is_prefilling and budget > 0:
                chunk = min(state.remaining_prompt, budget)
                plan.prefill.append((state, chunk))
                budget -= chunk
        if plan.is_empty and running:
            # All members are prefilling but the budget starved them (can
            # only happen with budget 0 mid-loop, guarded above) — never
            # stall a non-empty batch.
            state = next(s for s in running if s.is_prefilling)
            plan.prefill.append((state, min(state.remaining_prompt, self.max_prefill_tokens)))
        return plan


SERVING_POLICIES: dict[str, Callable[..., SchedulerPolicy]] = {
    FCFSJoinPolicy.name: FCFSJoinPolicy,
    PrefillPriorityPolicy.name: PrefillPriorityPolicy,
    ChunkedPrefillPolicy.name: ChunkedPrefillPolicy,
    StaticBatchPolicy.name: StaticBatchPolicy,
}


def make_policy(name: str, **kwargs) -> SchedulerPolicy:
    """Instantiate a policy by preset name.

    ``kwargs`` are forwarded to the policy constructor (only
    ``chunked`` takes one: ``max_prefill_tokens``).
    """
    try:
        factory = SERVING_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler policy {name!r}; choose from {sorted(SERVING_POLICIES)}"
        ) from None
    return factory(**kwargs)
