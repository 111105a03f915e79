"""Speculative decoding on top of PowerInfer (paper Section 9, future work).

The paper notes that speculative inference "could further boost LLM
inference speed" when combined with PowerInfer.  This module models the
standard draft-then-verify scheme:

1. a small *draft* engine autoregressively proposes ``draft_len`` tokens;
2. the *target* engine verifies the whole proposal in **one** iteration —
   a token block of ``draft_len + 1`` positions, which for PowerInfer means
   the activation union densifies slightly (like a small batch) but the hot
   weights are read once;
3. accepted-token count follows the usual geometric law: with per-token
   acceptance probability ``alpha``, a round yields on average
   ``(1 - alpha^(k+1)) / (1 - alpha)`` tokens.

The interplay the paper hints at falls out of the simulation: the target's
verify step costs barely more than a single decode (bandwidth-bound, shared
weights), so rounds amortize the expensive CPU-side cold-neuron sweep over
several output tokens.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.base import PerfEngine
from repro.engine.results import RequestResult

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.telemetry.tracer import Tracer

__all__ = ["SpeculativeEngine", "expected_accepted_tokens"]


def expected_accepted_tokens(draft_len: int, acceptance_rate: float) -> float:
    """Mean tokens produced per speculative round (including the bonus
    token the verifier emits when every draft token is accepted)."""
    if draft_len < 1:
        raise ValueError("draft_len must be >= 1")
    if not 0.0 <= acceptance_rate < 1.0:
        raise ValueError("acceptance_rate must be in [0, 1)")
    if acceptance_rate == 0.0:
        return 1.0
    a = acceptance_rate
    return float((1.0 - a ** (draft_len + 1)) / (1.0 - a))


class SpeculativeEngine:
    """Draft-and-verify wrapper around two performance engines.

    Args:
        target: The full-quality engine (e.g. PowerInfer on OPT-30B).
        draft: A cheap engine proposing tokens (e.g. a small dense model
            resident on the GPU).
        draft_len: Tokens proposed per round.
        acceptance_rate: Probability each draft token survives
            verification (workload/model dependent; 0.7-0.9 is typical).
    """

    name = "speculative"

    def __init__(
        self,
        target: PerfEngine,
        draft: PerfEngine,
        draft_len: int = 4,
        acceptance_rate: float = 0.8,
    ) -> None:
        if target.machine is not draft.machine and (
            target.machine.name != draft.machine.name
        ):
            raise ValueError("target and draft must run on the same machine")
        self.target = target
        self.draft = draft
        self.draft_len = draft_len
        self.acceptance_rate = acceptance_rate
        # Validate the hyperparameters eagerly.
        expected_accepted_tokens(draft_len, acceptance_rate)

    @property
    def tokens_per_round(self) -> float:
        return expected_accepted_tokens(self.draft_len, self.acceptance_rate)

    def round_time(
        self,
        ctx_len: int,
        batch: int = 1,
        rng: np.random.Generator | None = None,
        tracer: "Tracer | None" = None,
        trace_t0: float = 0.0,
    ) -> float:
        """Seconds per speculative round at the given context length.

        A ``tracer`` records the round's timeline from ``trace_t0``: the
        draft iterations back to back, then the verify iteration.
        """
        trace_now = trace_t0
        draft_time = 0.0
        for i in range(self.draft_len):
            result = self.draft.simulate_iteration(
                ctx_len + i, 1, batch, rng, tracer=tracer, trace_t0=trace_now
            )
            draft_time += result.makespan
            trace_now += result.makespan
        verify_time = self.target.simulate_iteration(
            ctx_len, self.draft_len + 1, batch, rng, tracer=tracer, trace_t0=trace_now
        ).makespan
        return draft_time + verify_time

    def simulate_request(
        self,
        input_len: int,
        output_len: int,
        batch: int = 1,
        decode_samples: int = 3,
        rng: np.random.Generator | None = None,
        tracer: "Tracer | None" = None,
        trace_t0: float = 0.0,
    ) -> RequestResult:
        """End-to-end request with speculative decoding.

        The prompt phase runs on the target alone; decode rounds are
        sampled at a few context points and integrated, like
        :meth:`PerfEngine.simulate_request`.  A ``tracer`` records the
        sampled timeline (prompt, then each sampled round) from
        ``trace_t0``; results are bit-identical either way.
        """
        if input_len <= 0 or output_len <= 0:
            raise ValueError("input_len and output_len must be positive")
        if decode_samples < 1:
            raise ValueError("decode_samples must be >= 1")
        prompt = self.target.simulate_iteration(
            0, input_len, batch, rng, tracer=tracer, trace_t0=trace_t0, trace_iteration=0
        )
        rounds = output_len / self.tokens_per_round
        ctx_points = np.linspace(
            input_len, input_len + output_len - 1, min(decode_samples, output_len)
        )
        trace_now = trace_t0 + prompt.makespan
        round_times = []
        for c in ctx_points:
            rt = self.round_time(
                int(c), batch, rng, tracer=tracer, trace_t0=trace_now
            )
            round_times.append(rt)
            trace_now += rt
        mean_round = float(np.mean(round_times))
        decode_time = rounds * mean_round
        return RequestResult(
            engine=self.name,
            model=self.target.model.name,
            input_len=input_len,
            output_len=output_len,
            batch=batch,
            prompt_time=prompt.makespan,
            decode_time=decode_time,
            breakdown={"speculative-round": decode_time, **prompt.time_by_tag()},
            gpu_load_share=self.target.gpu_load_share(batch),
        )
