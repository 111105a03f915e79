"""Abstract base for performance-simulated inference engines.

Every engine — PowerInfer and the baselines — implements one method:
:meth:`PerfEngine.iteration_tasks`, producing the operator DAG for a single
inference iteration (one token block) at a given context length, priced on
a given machine.  :meth:`PerfEngine.simulate_iteration` is the one place
that builds such a DAG and schedules it on the GPU/CPU/PCIe resources via
the discrete-event simulator; the serving cost cache, fault epochs, what-if
knobs and attribution all price through it.  The base class also assembles
end-to-end request results (prompt phase + generation phase, paper
Section 2.1).

Generation-phase cost varies (slowly, via the KV cache) with context
length, so :meth:`simulate_request` samples the per-token DAG at a few
context points across the decode window and integrates, rather than
simulating all ``output_len`` DAGs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.plan import DeploymentPlan
from repro.engine.results import RequestResult
from repro.hardware.costmodel import CostModel, OpWork
from repro.hardware.events import EventSimulator, ScheduleResult, SimTask
from repro.units import Bytes, Flops, Ratio, Seconds

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.hardware.spec import DeviceSpec, LinkSpec, MachineSpec
    from repro.telemetry.tracer import Tracer

__all__ = ["PerfEngine", "RESOURCES", "op_task", "transfer_task"]

RESOURCES = ("gpu", "cpu", "pcie")


def op_task(
    name: str,
    resource: str,
    device: "DeviceSpec",
    work: OpWork,
    deps: tuple[str, ...] = (),
    tag: str = "",
    sync: Seconds = 0.0,
    include_launch: bool = True,
) -> SimTask:
    """A :class:`SimTask` priced by the roofline model, cost terms attached.

    The attached :class:`~repro.hardware.costmodel.TaskCost` is what lets
    the attribution layer decompose the span into memory/compute/launch/
    sync components; its ``duration`` is bit-identical to
    ``sync + CostModel.op_time(...)``.
    """
    cost = CostModel.op_cost(work, device, include_launch=include_launch, sync=sync)
    return SimTask(  # repro-lint: disable=inline-sim-task -- the blessed constructor itself
        name, resource, cost.duration, deps=deps, tag=tag, cost=cost
    )


def transfer_task(
    name: str,
    link: "LinkSpec",
    nbytes: Bytes,
    deps: tuple[str, ...] = (),
    tag: str = "transfer",
    unified_memory: bool = False,
) -> SimTask:
    """A PCIe :class:`SimTask` priced by the link model, cost attached."""
    cost = CostModel.transfer_cost(nbytes, link, unified_memory=unified_memory)
    return SimTask(  # repro-lint: disable=inline-sim-task -- the blessed constructor itself
        name, "pcie", cost.duration, deps=deps, tag=tag, cost=cost
    )


class PerfEngine(ABC):
    """An inference engine whose execution is costed on the simulator."""

    name = "base"

    def __init__(self, plan: DeploymentPlan) -> None:
        self.plan = plan
        self.machine = plan.machine
        self.model = plan.model
        self.dtype = plan.dtype

    # ---- to implement --------------------------------------------------------

    @abstractmethod
    def iteration_tasks(
        self,
        machine: "MachineSpec",
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        """Operator DAG for one inference iteration, priced on ``machine``.

        Args:
            machine: The hardware every task is priced against: the plan's
                machine or a perturbed copy of it (a fault epoch, a what-if
                knob).  Engines read it, never ``self.machine``; the DAG's
                shape depends only on the plan.
            ctx_len: Tokens already in the KV cache.
            n_tokens: Tokens processed in this iteration (prompt phase:
                the prompt length; generation phase: 1).
            batch: Number of concurrent requests.
            rng: When given, activation counts are sampled; otherwise
                expected values are used (deterministic).
        """

    def gpu_load_share(self, batch: int = 1) -> Ratio:
        """Fraction of neuron computation served by the GPU (Figure 12)."""
        return self.plan.gpu_neuron_load_share(batch)

    # ---- simulation -----------------------------------------------------------

    def simulate_iteration(
        self,
        ctx_len: int,
        n_tokens: int,
        batch: int = 1,
        rng: np.random.Generator | None = None,
        machine: "MachineSpec | None" = None,
        tracer: "Tracer | None" = None,
        trace_t0: Seconds = 0.0,
        trace_iteration: int | None = None,
        validate: bool = False,
    ) -> ScheduleResult:
        """Schedule one iteration's DAG; returns the timing result.

        ``machine`` prices this one iteration on a spec other than the
        plan's (the default): a fault epoch's perturbed machine (see
        :class:`~repro.serving.continuous.IterationCostCache`) or a
        what-if knob.  It is handed to :meth:`iteration_tasks`; the engine
        itself is never modified, so pricing is re-entrant.

        With a ``tracer`` attached, every scheduled task is recorded as a
        device-lane span shifted to global time ``trace_t0`` (and labelled
        ``trace_iteration``).  With ``tracer=None`` — the default — the
        telemetry layer costs one ``is None`` check and the result is
        bit-identical to an untraced run.

        ``validate=True`` replays the realized schedule against the
        simulator invariants (:func:`repro.check.schedule.validate_schedule`
        — exclusive devices, dependency order, cost accounting) and raises
        :class:`~repro.check.schedule.ScheduleValidationError` on any
        violation.  Off by default: validation is a debugging/CI hook, not
        a per-iteration cost.
        """
        tasks = self.iteration_tasks(
            self.machine if machine is None else machine, ctx_len, n_tokens, batch, rng
        )
        result = EventSimulator(list(RESOURCES)).run(tasks)
        if validate:
            # Imported lazily: repro.check is diagnostic tooling, and the
            # default (validate=False) path must not pay for it.
            from repro.check.schedule import require_valid, validate_schedule

            require_valid(validate_schedule(result, tasks))
        if tracer is not None and tracer.enabled:
            tracer.add_schedule(result, t0=trace_t0, iteration=trace_iteration)
        return result

    def simulate_request(
        self,
        input_len: int,
        output_len: int,
        batch: int = 1,
        decode_samples: int = 4,
        rng: np.random.Generator | None = None,
        tracer: "Tracer | None" = None,
        trace_t0: Seconds = 0.0,
    ) -> RequestResult:
        """Simulate a full request: prompt phase + ``output_len`` decode steps.

        Decode cost is evaluated at ``decode_samples`` context lengths
        spread over the generation window and averaged (KV growth is linear
        in context, so the mean over evenly spaced samples integrates it).

        A ``tracer`` records the *sampled* timeline starting at
        ``trace_t0`` — the prompt iteration followed by each sampled decode
        iteration back to back (iteration 0 is the prompt).  The integrated
        result itself is bit-identical with or without a tracer.
        """
        if input_len <= 0 or output_len <= 0 or batch <= 0:
            raise ValueError("input_len, output_len, batch must be positive")
        prompt = self.simulate_iteration(
            0, input_len, batch, rng, tracer=tracer, trace_t0=trace_t0, trace_iteration=0
        )

        samples = min(decode_samples, output_len)
        ctx_points = np.linspace(input_len, input_len + output_len - 1, samples)
        decode_time = 0.0
        decode_tags: dict[str, float] = {}
        trace_now = trace_t0 + prompt.makespan
        for i, ctx in enumerate(ctx_points):
            result = self.simulate_iteration(
                int(ctx),
                1,
                batch,
                rng,
                tracer=tracer,
                trace_t0=trace_now,
                trace_iteration=i + 1,
            )
            trace_now += result.makespan
            decode_time += result.makespan
            for tag, t in result.time_by_tag().items():
                decode_tags[tag] = decode_tags.get(tag, 0.0) + t
        scale = output_len / samples
        decode_time *= scale

        breakdown = dict(prompt.time_by_tag())
        for tag, t in decode_tags.items():
            breakdown[tag] = breakdown.get(tag, 0.0) + t * scale

        return RequestResult(
            engine=self.name,
            model=self.model.name,
            input_len=input_len,
            output_len=output_len,
            batch=batch,
            prompt_time=prompt.makespan,
            decode_time=decode_time,
            breakdown=breakdown,
            gpu_load_share=self.gpu_load_share(batch),
        )

    # ---- KV-cache footprint (serving admission control) -------------------------

    def kv_bytes_per_token(self) -> Bytes:
        """KV-cache bytes appended per token across all layers."""
        return self.model.kv_cache_bytes_per_token(self.dtype)

    def request_kv_bytes(self, input_len: int, output_len: int) -> Bytes:
        """Worst-case KV footprint of one request (prompt + full response).

        This is what a continuous-batching server must reserve at admission
        so the request can always run to completion without eviction.
        """
        if input_len <= 0 or output_len <= 0:
            raise ValueError("input_len and output_len must be positive")
        return (input_len + output_len) * self.kv_bytes_per_token()

    def kv_budget_bytes(self) -> Bytes:
        """GPU memory left for KV cache after plan-resident allocations.

        Usable GPU capacity (after the activation/scratch reserve) minus
        hot neuron weights, predictors, and embeddings.  Clamped at zero —
        a fully weight-packed GPU leaves no KV budget, and serving callers
        must then supply an explicit budget.
        """
        usable = self.machine.gpu.memory_capacity * (1.0 - self.plan.gpu_memory_reserve)
        resident = (
            self.plan.gpu_weight_bytes
            + self.plan.total_predictor_bytes
            + self.plan.embedding_bytes
        )
        return max(usable - resident, 0.0)

    # ---- shared cost helpers ---------------------------------------------------

    def _activation_bytes(self, rows: int) -> Bytes:
        """Bytes of one hidden-state tensor (FP32 activations)."""
        return rows * self.model.d_model * 4.0

    def _kv_read_bytes(self, ctx_len: int, n_tokens: int, batch: int) -> Bytes:
        """KV-cache bytes read by one layer's attention in this iteration.

        Each of the ``n_tokens`` new positions reads all prior K and V; for
        a prompt block the average prior length is ``ctx + n/2``.
        """
        avg_context = ctx_len + n_tokens / 2.0
        kv_bytes_per_pos = 2.0 * self.model.kv_dim * self.dtype.bytes_per_param
        return batch * n_tokens * avg_context * kv_bytes_per_pos

    def _kv_flops(self, ctx_len: int, n_tokens: int, batch: int) -> Flops:
        avg_context = ctx_len + n_tokens / 2.0
        return batch * n_tokens * avg_context * 4.0 * self.model.kv_dim

    def _lm_head_task(self, machine: "MachineSpec", dep: str, batch: int) -> SimTask:
        """The LM head on ``machine``'s GPU (embeddings are GPU-resident)."""
        work = OpWork(
            flops=2.0 * self.model.embedding_params * batch,
            bytes_read=self.dtype.nbytes(self.model.embedding_params)
            + self._activation_bytes(batch),
            bytes_written=batch * self.model.vocab_size * 4.0,
        )
        return op_task(
            "lm_head",
            "gpu",
            machine.gpu,
            work,
            deps=(dep,) if dep else (),
            tag="lmhead",
        )
