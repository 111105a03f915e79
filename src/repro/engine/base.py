"""Abstract base for performance-simulated inference engines.

Every engine — PowerInfer and the baselines — implements
:meth:`PerfEngine.iteration_tasks`, producing the operator DAG for a single
inference iteration (one token block) at a given context length, priced on
a given machine, and :meth:`PerfEngine.context_work`, the work of the few
tasks of that DAG that read the context.
:meth:`PerfEngine.simulate_iteration` builds such a DAG and schedules it on
the GPU/CPU/PCIe resources via the discrete-event simulator; what-if knobs,
attribution and tracing price through it.
:meth:`PerfEngine.price_iteration` is the serving cost cache's entry point:
a miss that needs only a makespan re-prices the context tasks of a
memoized DAG shape and takes its longest path instead of building and
scheduling the DAG again.  The base class also assembles end-to-end
request results (prompt phase + generation phase, paper Section 2.1).

Generation-phase cost varies (slowly, via the KV cache) with context
length, so :meth:`simulate_request` samples the per-token DAG at a few
context points across the decode window and integrates, rather than
simulating all ``output_len`` DAGs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.plan import DeploymentPlan
from repro.engine.results import RequestResult
from repro.hardware.costmodel import CostModel, OpWork
from repro.hardware.events import (
    EventSimulator,
    ScheduleResult,
    SimTask,
    dag_arrays,
    forward_pass,
)
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


class _PlanMemo:
    """What pricing under one plan may reuse: split tables and DAG shapes.

    ``splits`` maps a row count to the plan's expected per-layer
    ``(ag, ac, mg, mc)`` active-neuron counts, an ``(n_layers, 4)`` float
    array.  ``shapes`` maps ``(machine, n_tokens, batch)`` to the DAG's
    topology and its task durations, one float array per shape;
    ``topologies`` holds each distinct topology once, so shapes share it.
    """

    __slots__ = ("plan", "splits", "topologies", "shapes")

    def __init__(self, plan: DeploymentPlan) -> None:
        self.plan = plan
        self.splits: dict[int, np.ndarray] = {}
        self.topologies: dict[_Topology, _Topology] = {}
        self.shapes: dict[tuple, tuple[_Topology, np.ndarray]] = {}


@dataclass(frozen=True)
class _Topology:
    """An iteration DAG without durations: per task, its dependencies and
    resource as list indices; ``context`` lists the tasks whose work reads
    the context, in DAG order."""

    deps: tuple[tuple[int, ...], ...]
    resources: tuple[int, ...]
    context: tuple[int, ...]


class PerfEngine(ABC):
    """An inference engine whose execution is costed on the simulator."""

    name = "base"
    #: Tags of the tasks whose work reads ``ctx_len``: operator tasks, each
    #: priced on the device its resource names (``machine.gpu`` or
    #: ``machine.cpu``).  The DAG's structure and every other task's
    #: duration depend on (plan, machine, n_tokens, batch) alone.  Empty
    #: for an engine that cannot re-price them, which then builds a fresh
    #: DAG on every cost-cache miss.
    context_tags: tuple[str, ...] = ()

    def __init__(self, plan: DeploymentPlan) -> None:
        self.plan = plan
        self.machine = plan.machine
        self.model = plan.model
        self.dtype = plan.dtype
        self._memo = _PlanMemo(plan)

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

    def context_work(self, ctx_len: int, n_tokens: int, batch: int) -> list[OpWork]:
        """Work of the tasks tagged :attr:`context_tags`, in DAG order.

        Each must be the work :meth:`iteration_tasks` gives that task
        (expected activations, no ``rng``), from the same formula.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot re-price context tasks")

    def gpu_load_share(self, batch: int = 1) -> Ratio:
        """Fraction of neuron computation served by the GPU (Figure 12)."""
        return self.plan.gpu_neuron_load_share(batch)

    # ---- plan-keyed reuse ---------------------------------------------------------

    def _plan_memo(self) -> _PlanMemo:
        """This engine's memo of its current plan.

        Keyed on the plan object: a copy of the engine given another plan
        (the KV-shrink re-plan) starts its own memo instead of pricing the
        new plan with the old plan's splits.
        """
        memo = self._memo
        if memo.plan is not self.plan:
            memo = self._memo = _PlanMemo(self.plan)
        return memo

    def _splits(self, rows: int) -> list[list[float]]:
        """Expected ``[ag, ac, mg, mc]`` of every layer at ``rows`` token rows.

        The (attention GPU, attention CPU, MLP GPU, MLP CPU) active-neuron
        counts of :meth:`DeploymentPlan.attn_active_split` and
        :meth:`~DeploymentPlan.mlp_active_split`, computed once per layer
        and row count for this engine's plan.
        """
        memo = self._plan_memo()
        table = memo.splits.get(rows)
        if table is None:
            plan = self.plan
            table = memo.splits[rows] = np.array(
                [
                    plan.attn_active_split(li, rows) + plan.mlp_active_split(li, rows)
                    for li in range(self.model.n_layers)
                ]
            )
        return table.tolist()

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

    def price_iteration(
        self,
        ctx_len: int,
        n_tokens: int,
        batch: int = 1,
        machine: "MachineSpec | None" = None,
        keep_schedule: bool = True,
    ) -> tuple[Seconds, ScheduleResult | None]:
        """Makespan of one iteration with expected activations, and its
        schedule when ``keep_schedule`` asks for it.

        The serving cost cache prices every miss here.  A kept schedule
        comes from :meth:`simulate_iteration`.  Without one, the iteration
        is priced as a shape: the first miss of each (plan, ``machine``,
        ``n_tokens``, ``batch``) builds the DAG and memoizes its topology
        and durations, and later misses re-price only the context tasks
        (:meth:`context_work`, on the device of each task's resource)
        before one :func:`~repro.hardware.events.forward_pass`.  Either way
        the makespan is bit for bit the list scheduler's.
        """
        if keep_schedule:
            result = self.simulate_iteration(ctx_len, n_tokens, batch, machine=machine)
            return result.makespan, result
        machine = self.machine if machine is None else machine
        memo = self._plan_memo()
        key = (machine, n_tokens, batch)
        shape = memo.shapes.get(key)
        if shape is None:
            tasks = self.iteration_tasks(machine, ctx_len, n_tokens, batch)
            durations = [t.duration for t in tasks]
            arrays = dag_arrays(tasks, RESOURCES)
            if arrays is not None and self.context_tags:
                context = tuple(
                    i for i, t in enumerate(tasks) if t.tag in self.context_tags
                )
                topology = _Topology(*arrays, context)
                topology = memo.topologies.setdefault(topology, topology)
                memo.shapes[key] = (topology, np.array(durations))
        else:
            topology, stored = shape
            resources = topology.resources
            stored.put(
                topology.context,
                [
                    CostModel.op_cost(work, getattr(machine, RESOURCES[resources[i]])).duration
                    for i, work in zip(
                        topology.context, self.context_work(ctx_len, n_tokens, batch)
                    )
                ],
            )
            durations = stored.tolist()
            arrays = topology.deps, topology.resources
        times = None if arrays is None else forward_pass(*arrays, durations)
        if times is None:
            # The list scheduler's answer, or its error.
            result = self.simulate_iteration(ctx_len, n_tokens, batch, machine=machine)
            return result.makespan, None
        return max(times[1], default=0.0), None

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
        if decode_samples < 1:
            raise ValueError("decode_samples must be >= 1")
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
