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
from repro.units import Bytes, Flops

__all__ = [
    "LlamaCppEngine",
    "FlexGenEngine",
    "DejaVuUmEngine",
    "VllmEngine",
    "LayerwiseSparseEngine",
]


class _LayerEngine(PerfEngine):
    """An engine that runs each layer as one task folding in its KV work.

    Every layer task reads the context, so :meth:`context_work` returns
    them all, from the :meth:`_layer_work` formula their DAG uses.
    """

    def _layer_work(
        self,
        weight_flops: Flops,
        weight_bytes: Bytes,
        ctx_len: int,
        n_tokens: int,
        batch: int,
    ) -> OpWork:
        """One layer's work: its weights plus attention over the KV cache."""
        act = self._activation_bytes(n_tokens * batch)
        return OpWork(
            flops=weight_flops + self._kv_flops(ctx_len, n_tokens, batch),
            bytes_read=weight_bytes + self._kv_read_bytes(ctx_len, n_tokens, batch) + act,
            bytes_written=act,
        )

    def _dense_weights(self, rows: int) -> tuple[Flops, Bytes]:
        """Weight FLOPs and bytes of one dense layer over ``rows`` token rows."""
        model = self.model
        return 2.0 * model.params_per_layer * rows, self.dtype.nbytes(model.params_per_layer)

    def _layer_weights(self, rows: int) -> list[tuple[Flops, Bytes]]:
        """Expected weight FLOPs and bytes of every layer."""
        return [self._dense_weights(rows)] * self.model.n_layers

    def context_work(self, ctx_len: int, n_tokens: int, batch: int) -> list[OpWork]:
        return [
            self._layer_work(flops, nbytes, ctx_len, n_tokens, batch)
            for flops, nbytes in self._layer_weights(n_tokens * batch)
        ]


class _SparseLayerEngine(_LayerEngine):
    """A layer engine that reads and computes predicted-active neurons only."""

    def _sparse_weights(
        self, split: list[float], per_row: list[float], rows: int
    ) -> tuple[Flops, Bytes]:
        """Weight FLOPs and bytes of one layer's predicted-active neurons.

        ``split`` holds the layer's ``(ag, ac, mg, mc)`` active counts over
        all rows (the weights read once), ``per_row`` those of one row
        (FLOPs scale with per-row activations times the row count).
        """
        model, dtype = self.model, self.dtype
        ag, ac, mg, mc = split
        ag1, ac1, mg1, mc1 = per_row
        flops = (
            2.0
            * ((ag1 + ac1) * model.attn_neuron_params + (mg1 + mc1) * model.mlp_neuron_params)
            * rows
        )
        nbytes = (ag + ac) * model.attn_neuron_bytes(dtype) + (mg + mc) * model.mlp_neuron_bytes(
            dtype
        )
        return flops, nbytes

    def _layer_weights(self, rows: int) -> list[tuple[Flops, Bytes]]:
        return [
            self._sparse_weights(split, per_row, rows)
            for split, per_row in zip(self._splits(rows), self._splits(1))
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


class LlamaCppEngine(_LayerSplitMixin, _LayerEngine):
    """Dense layer-level hybrid offloading (paper Figure 3b)."""

    name = "llama.cpp"
    context_tags = ("cpu-dense", "gpu-dense")

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
        work = self._layer_work(*self._dense_weights(rows), ctx_len, n_tokens, batch)
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
                    work,
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
                    work,
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


class FlexGenEngine(_LayerSplitMixin, _LayerEngine):
    """GPU-centric offloading: stream non-resident layers every iteration."""

    name = "flexgen"
    context_tags = ("gpu-dense",)

    def iteration_tasks(
        self,
        machine: MachineSpec,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        model = self.model
        n_resident = self.gpu_layer_count()
        weight_flops, layer_bytes = self._dense_weights(n_tokens * batch)
        work = self._layer_work(weight_flops, layer_bytes, ctx_len, n_tokens, batch)
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


class DejaVuUmEngine(_LayerSplitMixin, _SparseLayerEngine):
    """Sparse GPU inference with Unified-Memory weight fetching."""

    name = "dejavu-um"
    context_tags = ("gpu-neuron",)

    def iteration_tasks(
        self,
        machine: MachineSpec,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        model = self.model
        n_resident = self.gpu_layer_count()
        rows = n_tokens * batch
        act = self._activation_bytes(rows)
        expected = self._splits(rows) if rng is None else None
        per_row = self._splits(1)
        tasks: list[SimTask] = []
        prev = ""
        prev_fetch = ""
        for li in range(model.n_layers):
            if rng is None:
                split = expected[li]
            else:
                split = [
                    *self.plan.sampled_attn_split(li, rng, rows),
                    *self.plan.sampled_mlp_split(li, rng, rows),
                ]
            weight_flops, active_bytes = self._sparse_weights(split, per_row[li], rows)
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
            tasks.append(
                op_task(
                    name,
                    "gpu",
                    machine.gpu,
                    self._layer_work(weight_flops, active_bytes, ctx_len, n_tokens, batch),
                    deps=tuple(deps),
                    tag="gpu-neuron",
                )
            )
            prev = name
        tasks.append(self._lm_head_task(machine, prev, batch))
        return tasks

    def gpu_load_share(self, batch: int = 1) -> float:
        return 1.0


class VllmEngine(_LayerEngine):
    """Full-GPU dense serving (the A100 reference of Figure 18)."""

    name = "vllm"
    context_tags = ("gpu-dense",)

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
        work = self._layer_work(
            *self._dense_weights(n_tokens * batch), ctx_len, n_tokens, batch
        )
        tasks: list[SimTask] = []
        prev = ""
        for li in range(self.model.n_layers):
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


class LayerwiseSparseEngine(_LayerSplitMixin, _SparseLayerEngine):
    """"+PO" ablation: predictors + sparse operators, layer-level split.

    Layers keep llama.cpp's placement; each device computes only its
    layers' predicted-active neurons, but there is no intra-layer
    GPU/CPU cooperation.
    """

    name = "+PO"
    context_tags = ("cpu-neuron", "gpu-neuron")

    def iteration_tasks(
        self,
        machine: MachineSpec,
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        model = self.model
        n_gpu = self.gpu_layer_count()
        n_cpu = model.n_layers - n_gpu
        rows = n_tokens * batch
        act = self._activation_bytes(rows)
        expected = self._splits(rows) if rng is None else None
        per_row = self._splits(1)
        tasks: list[SimTask] = []
        prev = ""

        def layer_tasks(li: int, resource: str, device) -> None:
            nonlocal prev
            if rng is None:
                split = expected[li]
            else:
                split = [
                    *self.plan.sampled_attn_split(li, rng, rows),
                    *self.plan.sampled_mlp_split(li, rng, rows),
                ]
            weight_flops, weight_bytes = self._sparse_weights(split, per_row[li], rows)
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
            tasks.append(
                op_task(
                    name,
                    resource,
                    device,
                    self._layer_work(weight_flops, weight_bytes, ctx_len, n_tokens, batch),
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
