"""Baseline serving engines reimplemented as scheduling policies.

Each comparator in the paper's evaluation is, for simulation purposes, a
policy for where weights live and when they move (paper Section 2.2,
Figure 3):

* :class:`LlamaCppEngine` — hybrid offloading at Transformer-layer
  granularity: the CPU computes its (dense) layers first, ships the hidden
  state over PCIe once, and the GPU finishes.  The paper's primary baseline.
* :class:`FlexGenEngine` — GPU-centric offloading: as many layers as fit
  stay GPU-resident; the rest are streamed from CPU memory every iteration
  (computation overlaps the stream, but at batch 1 the PCIe link dominates:
  Figure 4's >99.5% transfer share).
* :class:`DejaVuUmEngine` — sparsity-aware GPU inference with weights
  fetched through CUDA Unified Memory when the model exceeds GPU memory
  (footnote 2).  Only predicted-active neurons are touched, but each touch
  faults pages across PCIe at UM efficiency.
* :class:`VllmEngine` — the A100 reference: the whole model is GPU-resident
  and dense (PagedAttention keeps the KV cache on the GPU too).
* :class:`LayerwiseSparseEngine` — the "+PO" ablation step (Figure 15):
  llama.cpp's layer split plus PowerInfer's predictors and neuron-aware
  operators, but each layer still computed entirely by one device.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import PerfEngine, op_task, transfer_task
from repro.engine.plan import DeploymentPlan
from repro.hardware.costmodel import OpWork
from repro.hardware.events import SimTask
from repro.hardware.memory import OutOfMemoryError
from repro.hardware.spec import MachineSpec

__all__ = [
    "LlamaCppEngine",
    "FlexGenEngine",
    "DejaVuUmEngine",
    "VllmEngine",
    "LayerwiseSparseEngine",
]


class _LayerSplitMixin:
    """Shared logic for engines that place whole layers on one device."""

    plan: DeploymentPlan

    def gpu_layer_count(self) -> int:
        """Layers that fit on the GPU next to embeddings and KV cache."""
        plan = self.plan
        budget = plan.machine.gpu.memory_capacity * (1.0 - plan.gpu_memory_reserve)
        budget -= plan.embedding_bytes
        layer_bytes = plan.model.layer_bytes(plan.dtype)
        kv_per_layer = (
            2.0 * plan.model.kv_dim * plan.dtype.bytes_per_param * plan.expected_context
        )
        if budget <= 0:
            return 0
        n = int(budget // (layer_bytes + kv_per_layer))
        return max(0, min(n, plan.model.n_layers))


class LlamaCppEngine(_LayerSplitMixin, PerfEngine):
    """Dense layer-level hybrid offloading (paper Figure 3b)."""

    name = "llama.cpp"

    def _layer_work(self, device_kind: str, ctx: int, n_tok: int, batch: int) -> OpWork:
        model, dtype = self.model, self.dtype
        rows = n_tok * batch
        act = self._activation_bytes(rows)
        return OpWork(
            flops=2.0 * model.params_per_layer * rows
            + self._kv_flops(ctx, n_tok, batch),
            bytes_read=dtype.nbytes(model.params_per_layer)
            + self._kv_read_bytes(ctx, n_tok, batch)
            + act,
            bytes_written=act,
        )

    def iteration_tasks(
        self,
        machine: MachineSpec,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        n_gpu = self.gpu_layer_count()
        n_cpu = self.model.n_layers - n_gpu
        rows = n_tokens * batch
        tasks: list[SimTask] = []
        prev = ""
        # CPU processes its layers first (Figure 3b) ...
        for li in range(n_cpu):
            name = f"L{li}.cpu"
            tasks.append(
                op_task(
                    name,
                    "cpu",
                    machine.cpu,
                    self._layer_work("cpu", ctx_len, n_tokens, batch),
                    deps=(prev,) if prev else (),
                    tag="cpu-dense",
                )
            )
            prev = name
        # ... then one hidden-state hop to the GPU ...
        if n_cpu and n_gpu:
            tasks.append(
                transfer_task(
                    "hidden_xfer", machine.link, self._activation_bytes(rows), deps=(prev,)
                )
            )
            prev = "hidden_xfer"
        # ... and the GPU finishes.
        for li in range(n_cpu, self.model.n_layers):
            name = f"L{li}.gpu"
            tasks.append(
                op_task(
                    name,
                    "gpu",
                    machine.gpu,
                    self._layer_work("gpu", ctx_len, n_tokens, batch),
                    deps=(prev,) if prev else (),
                    tag="gpu-dense",
                )
            )
            prev = name
        tasks.append(self._lm_head_task(machine, prev, batch))
        return tasks

    def gpu_load_share(self, batch: int = 1) -> float:
        """Dense engines: GPU share == share of layer weights on the GPU."""
        return self.gpu_layer_count() / self.model.n_layers


class FlexGenEngine(_LayerSplitMixin, PerfEngine):
    """GPU-centric offloading: stream non-resident layers every iteration."""

    name = "flexgen"

    def iteration_tasks(
        self,
        machine: MachineSpec,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        model, dtype = self.model, self.dtype
        n_resident = self.gpu_layer_count()
        rows = n_tokens * batch
        act = self._activation_bytes(rows)
        layer_bytes = dtype.nbytes(model.params_per_layer)
        tasks: list[SimTask] = []
        prev = ""
        prev_xfer = ""
        for li in range(model.n_layers):
            deps = [prev] if prev else []
            if li >= n_resident:
                xfer = f"L{li}.stream"
                tasks.append(
                    transfer_task(
                        xfer,
                        machine.link,
                        layer_bytes,
                        deps=(prev_xfer,) if prev_xfer else (),
                    )
                )
                prev_xfer = xfer
                deps.append(xfer)
            name = f"L{li}.gpu"
            work = OpWork(
                flops=2.0 * model.params_per_layer * rows
                + self._kv_flops(ctx_len, n_tokens, batch),
                bytes_read=layer_bytes + self._kv_read_bytes(ctx_len, n_tokens, batch) + act,
                bytes_written=act,
            )
            tasks.append(
                op_task(
                    name,
                    "gpu",
                    machine.gpu,
                    work,
                    deps=tuple(deps),
                    tag="gpu-dense",
                )
            )
            prev = name
        tasks.append(self._lm_head_task(machine, prev, batch))
        return tasks

    def gpu_load_share(self, batch: int = 1) -> float:
        return 1.0  # all computation on the GPU; weights stream to it


class DejaVuUmEngine(_LayerSplitMixin, PerfEngine):
    """Sparse GPU inference with Unified-Memory weight fetching."""

    name = "dejavu-um"

    def iteration_tasks(
        self,
        machine: MachineSpec,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        model, dtype = self.model, self.dtype
        n_resident = self.gpu_layer_count()
        rows = n_tokens * batch
        act = self._activation_bytes(rows)
        mlp_nb = model.mlp_neuron_bytes(dtype)
        attn_nb = model.attn_neuron_bytes(dtype)
        tasks: list[SimTask] = []
        prev = ""
        prev_fetch = ""
        for li in range(model.n_layers):
            if rng is None:
                ag, ac = self.plan.attn_active_split(li, rows)
                mg, mc = self.plan.mlp_active_split(li, rows)
            else:
                ag, ac = self.plan.sampled_attn_split(li, rng, rows)
                mg, mc = self.plan.sampled_mlp_split(li, rng, rows)
            active_bytes = (ag + ac) * attn_nb + (mg + mc) * mlp_nb
            pred_bytes = self.plan.predictor_bytes[li]

            pred = f"L{li}.pred"
            tasks.append(
                op_task(
                    pred,
                    "gpu",
                    machine.gpu,
                    OpWork(flops=pred_bytes * rows, bytes_read=pred_bytes + act),
                    deps=(prev,) if prev else (),
                    tag="predictor",
                )
            )
            deps = [pred]
            if li >= n_resident:
                fetch = f"L{li}.um_fetch"
                fetch_deps = [pred]
                if prev_fetch:
                    fetch_deps.append(prev_fetch)
                tasks.append(
                    transfer_task(
                        fetch,
                        machine.link,
                        active_bytes,
                        deps=tuple(fetch_deps),
                        unified_memory=True,
                    )
                )
                prev_fetch = fetch
                deps.append(fetch)
            name = f"L{li}.gpu"
            ag1, ac1 = self.plan.attn_active_split(li, 1)
            mg1, mc1 = self.plan.mlp_active_split(li, 1)
            work = OpWork(
                flops=2.0
                * ((ag1 + ac1) * model.attn_neuron_params + (mg1 + mc1) * model.mlp_neuron_params)
                * rows
                + self._kv_flops(ctx_len, n_tokens, batch),
                bytes_read=active_bytes
                + self._kv_read_bytes(ctx_len, n_tokens, batch)
                + act,
                bytes_written=act,
            )
            tasks.append(
                op_task(
                    name,
                    "gpu",
                    machine.gpu,
                    work,
                    deps=tuple(deps),
                    tag="gpu-neuron",
                )
            )
            prev = name
        tasks.append(self._lm_head_task(machine, prev, batch))
        return tasks

    def gpu_load_share(self, batch: int = 1) -> float:
        return 1.0


class VllmEngine(PerfEngine):
    """Full-GPU dense serving (the A100 reference of Figure 18)."""

    name = "vllm"

    def __init__(self, plan: DeploymentPlan) -> None:
        super().__init__(plan)
        # Section 8.3.4 picks OPT-30B and Falcon-40B because their memory
        # needs match the A100's 80 GB "precisely" — PagedAttention's
        # paging squeezes the KV cache into the slack, so nearly the whole
        # card counts as usable.
        needed = plan.dtype.nbytes(plan.model.total_params)
        capacity = plan.machine.gpu.memory_capacity * 0.97
        if needed > capacity:
            raise OutOfMemoryError(
                f"{plan.model.name} ({needed / 2**30:.1f} GiB) does not fit "
                f"{plan.machine.gpu.name} ({capacity / 2**30:.1f} GiB usable)"
            )

    def iteration_tasks(
        self,
        machine: MachineSpec,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        model, dtype = self.model, self.dtype
        rows = n_tokens * batch
        act = self._activation_bytes(rows)
        tasks: list[SimTask] = []
        prev = ""
        for li in range(model.n_layers):
            work = OpWork(
                flops=2.0 * model.params_per_layer * rows
                + self._kv_flops(ctx_len, n_tokens, batch),
                bytes_read=dtype.nbytes(model.params_per_layer)
                + self._kv_read_bytes(ctx_len, n_tokens, batch)
                + act,
                bytes_written=act,
            )
            name = f"L{li}.gpu"
            tasks.append(
                op_task(
                    name,
                    "gpu",
                    machine.gpu,
                    work,
                    deps=(prev,) if prev else (),
                    tag="gpu-dense",
                )
            )
            prev = name
        tasks.append(self._lm_head_task(machine, prev, batch))
        return tasks

    def gpu_load_share(self, batch: int = 1) -> float:
        return 1.0


class LayerwiseSparseEngine(_LayerSplitMixin, PerfEngine):
    """"+PO" ablation: predictors + sparse operators, layer-level split.

    Layers keep llama.cpp's placement; each device computes only its
    layers' predicted-active neurons, but there is no intra-layer
    GPU/CPU cooperation.
    """

    name = "+PO"

    def iteration_tasks(
        self,
        machine: MachineSpec,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        model, dtype = self.model, self.dtype
        n_gpu = self.gpu_layer_count()
        n_cpu = model.n_layers - n_gpu
        rows = n_tokens * batch
        act = self._activation_bytes(rows)
        mlp_nb = model.mlp_neuron_bytes(dtype)
        attn_nb = model.attn_neuron_bytes(dtype)
        tasks: list[SimTask] = []
        prev = ""

        def layer_tasks(li: int, resource: str, device) -> None:
            nonlocal prev
            if rng is None:
                ag, ac = self.plan.attn_active_split(li, rows)
                mg, mc = self.plan.mlp_active_split(li, rows)
            else:
                ag, ac = self.plan.sampled_attn_split(li, rng, rows)
                mg, mc = self.plan.sampled_mlp_split(li, rng, rows)
            active_attn, active_mlp = ag + ac, mg + mc
            ag1, ac1 = self.plan.attn_active_split(li, 1)
            mg1, mc1 = self.plan.mlp_active_split(li, 1)
            pred_bytes = self.plan.predictor_bytes[li]
            pred = f"L{li}.pred"
            tasks.append(
                op_task(
                    pred,
                    resource,
                    device,
                    OpWork(flops=pred_bytes * rows, bytes_read=pred_bytes + act),
                    deps=(prev,) if prev else (),
                    tag="predictor",
                )
            )
            name = f"L{li}.{resource}"
            work = OpWork(
                flops=2.0
                * ((ag1 + ac1) * model.attn_neuron_params + (mg1 + mc1) * model.mlp_neuron_params)
                * rows
                + self._kv_flops(ctx_len, n_tokens, batch),
                bytes_read=active_attn * attn_nb
                + active_mlp * mlp_nb
                + self._kv_read_bytes(ctx_len, n_tokens, batch)
                + act,
                bytes_written=act,
            )
            tasks.append(
                op_task(
                    name,
                    resource,
                    device,
                    work,
                    deps=(pred,),
                    tag=f"{resource}-neuron",
                )
            )
            prev = name

        for li in range(n_cpu):
            layer_tasks(li, "cpu", machine.cpu)
        if n_cpu and n_gpu:
            tasks.append(transfer_task("hidden_xfer", machine.link, act, deps=(prev,)))
            prev = "hidden_xfer"
        for li in range(n_cpu, model.n_layers):
            layer_tasks(li, "gpu", machine.gpu)
        tasks.append(self._lm_head_task(machine, prev, batch))
        return tasks

    def gpu_load_share(self, batch: int = 1) -> float:
        return self.gpu_layer_count() / self.model.n_layers
