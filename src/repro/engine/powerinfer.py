"""The PowerInfer online engine over the performance simulator.

Builds, for each inference iteration, the operator DAG of paper Sections
5.2-5.3: per layer, an attention block and an MLP block, each preceded by a
GPU-resident activation predictor; activated neurons split between GPU and
CPU executors per the placement policy; CPU partial results are shipped
across PCIe and merged on the GPU (merging lives on the GPU because GPU
neurons activate more often).  Selective synchronization: when the CPU side
has no activated neurons, the transfer + sync steps are elided and the GPU
proceeds directly.

The same class implements the "+Engine" ablation (pass a plan whose masks
came from the greedy policy) and, with ``hybrid=False``-style subclasses in
:mod:`repro.engine.baselines`, the "+PO" layer-wise variant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.base import PerfEngine, op_task, transfer_task
from repro.hardware.costmodel import OpWork

if TYPE_CHECKING:  # pragma: no cover - type-only imports; tasks are built
    # exclusively through the op_task/transfer_task pricing constructors.
    from repro.hardware.events import SimTask
    from repro.hardware.spec import MachineSpec

__all__ = ["PowerInferEngine"]


class PowerInferEngine(PerfEngine):
    """Neuron-granularity GPU-CPU hybrid execution.

    Args:
        plan: Offline-phase output (placement, predictors, profiles).
        selective_sync: Elide the CPU->GPU transfer and synchronization
            when the CPU side has no activated neurons (Section 5.3's
            selective synchronization).  Disabled only for ablations.
    """

    name = "powerinfer"
    context_tags = ("kv",)

    def __init__(self, plan, selective_sync: bool = True) -> None:
        super().__init__(plan)
        self.selective_sync = selective_sync

    def _attn_ctx_work(
        self, ctx_len: int, n_tokens: int, batch: int, active_heads: float
    ) -> OpWork:
        """Attention over one layer's KV cache, for the active heads only.

        The one task of a layer whose work reads the context.
        """
        head_frac = min(active_heads / self.model.n_heads, 1.0)
        return OpWork(
            flops=self._kv_flops(ctx_len, n_tokens, batch) * head_frac,
            bytes_read=self._kv_read_bytes(ctx_len, n_tokens, batch) * head_frac,
            bytes_written=self._activation_bytes(n_tokens * batch),
        )

    def context_work(self, ctx_len: int, n_tokens: int, batch: int) -> list[OpWork]:
        return [
            self._attn_ctx_work(ctx_len, n_tokens, batch, ag + ac)
            for ag, ac, _, _ in self._splits(n_tokens * batch)
        ]

    def iteration_tasks(
        self,
        machine: "MachineSpec",
        ctx_len: int,
        n_tokens: int,
        batch: int,
        rng: np.random.Generator | None = None,
    ) -> list[SimTask]:
        model, dtype = self.model, self.dtype
        gpu, cpu, link = machine.gpu, machine.cpu, machine.link
        rows = n_tokens * batch  # token rows flowing through the layer
        act = self._activation_bytes(rows)
        mlp_nb = model.mlp_neuron_bytes(dtype)
        attn_nb = model.attn_neuron_bytes(dtype)
        mlp_np_ = model.mlp_neuron_params
        attn_np_ = model.attn_neuron_params

        tasks: list[SimTask] = []
        prev_out = ""  # name of the task producing the previous layer output
        expected = self._splits(rows) if rng is None else None
        per_row = self._splits(1)

        for li in range(model.n_layers):
            # Weight BYTES are governed by the union of activations across
            # all token rows (weights read once per iteration); FLOPs scale
            # with per-row activations times the row count.
            if rng is None:
                ag, ac, mg, mc = expected[li]
            else:
                ag, ac = self.plan.sampled_attn_split(li, rng, rows)
                mg, mc = self.plan.sampled_mlp_split(li, rng, rows)
            ag1, ac1, mg1, mc1 = per_row[li]
            deps_in = (prev_out,) if prev_out else ()

            # -- activation predictors (GPU-resident, Section 5.1) --------
            pred_bytes = self.plan.predictor_bytes[li]
            pred_work = OpWork(
                flops=pred_bytes * rows,  # ~2 flops per fp16 parameter-row
                bytes_read=pred_bytes + act,
                bytes_written=(model.d_ffn + model.n_heads) * batch * 1.0,
            )
            pred_attn = f"L{li}.pred_attn"
            tasks.append(
                op_task(pred_attn, "gpu", gpu, pred_work.scaled(0.5),
                        deps=deps_in, tag="predictor")
            )

            # -- attention block ------------------------------------------
            attn_gpu = f"L{li}.attn_gpu"
            tasks.append(
                op_task(
                    attn_gpu,
                    "gpu",
                    gpu,
                    OpWork(
                        flops=2.0 * ag1 * attn_np_ * rows,
                        bytes_read=ag * attn_nb + act,
                        bytes_written=act,
                    ),
                    deps=(pred_attn,),
                    tag="gpu-neuron",
                )
            )
            attn_deps = [attn_gpu]
            if ac > 0:
                attn_cpu = f"L{li}.attn_cpu"
                tasks.append(
                    op_task(
                        attn_cpu,
                        "cpu",
                        cpu,
                        OpWork(
                            flops=2.0 * ac1 * attn_np_ * rows,
                            bytes_read=ac * attn_nb + act,
                            bytes_written=act,
                        ),
                        deps=(pred_attn,),
                        tag="cpu-neuron",
                    )
                )
                attn_deps.append(attn_cpu)
            # QKV of GPU-computed heads ship to the CPU, where the KV cache
            # lives (Section 7) and attention-over-context runs.
            qkv_xfer = f"L{li}.qkv_xfer"
            tasks.append(transfer_task(qkv_xfer, link, act, deps=(attn_gpu,)))
            attn_ctx = f"L{li}.attn_ctx"
            tasks.append(
                op_task(
                    attn_ctx,
                    "cpu",
                    cpu,
                    self._attn_ctx_work(ctx_len, n_tokens, batch, ag + ac),
                    deps=tuple(attn_deps[1:]) + (qkv_xfer,),
                    tag="kv",
                )
            )
            ctx_xfer = f"L{li}.ctx_xfer"
            tasks.append(transfer_task(ctx_xfer, link, act, deps=(attn_ctx,)))
            attn_merge = f"L{li}.attn_merge"
            merge_work = OpWork(bytes_read=2 * act, bytes_written=act)
            tasks.append(
                op_task(
                    attn_merge,
                    "gpu",
                    gpu,
                    merge_work,
                    deps=(attn_gpu, ctx_xfer),
                    tag="merge",
                    sync=machine.sync_overhead,
                )
            )

            # -- MLP block ---------------------------------------------------
            pred_mlp = f"L{li}.pred_mlp"
            tasks.append(
                op_task(pred_mlp, "gpu", gpu, pred_work.scaled(0.5),
                        deps=(attn_merge,), tag="predictor")
            )
            mlp_gpu = f"L{li}.mlp_gpu"
            tasks.append(
                op_task(
                    mlp_gpu,
                    "gpu",
                    gpu,
                    OpWork(
                        flops=2.0 * mg1 * mlp_np_ * rows,
                        bytes_read=mg * mlp_nb + act,
                        bytes_written=act,
                    ),
                    deps=(pred_mlp,),
                    tag="gpu-neuron",
                )
            )
            merge_deps = [mlp_gpu]
            sync_cost = 0.0 if self.selective_sync else machine.sync_overhead
            if mc > 0 or not self.selective_sync:
                mlp_cpu = f"L{li}.mlp_cpu"
                tasks.append(
                    op_task(
                        mlp_cpu,
                        "cpu",
                        cpu,
                        OpWork(
                            flops=2.0 * mc1 * mlp_np_ * rows,
                            bytes_read=mc * mlp_nb + act,
                            bytes_written=act,
                        ),
                        deps=(pred_mlp, attn_merge),
                        tag="cpu-neuron",
                    )
                )
                mlp_xfer = f"L{li}.mlp_xfer"
                tasks.append(transfer_task(mlp_xfer, link, act, deps=(mlp_cpu,)))
                merge_deps.append(mlp_xfer)
                sync_cost = machine.sync_overhead  # selective sync: only
                # paid when the CPU actually produced partial results.
            mlp_merge = f"L{li}.mlp_merge"
            tasks.append(
                op_task(
                    mlp_merge,
                    "gpu",
                    gpu,
                    merge_work,
                    deps=tuple(merge_deps),
                    tag="merge",
                    sync=sync_cost,
                )
            )
            prev_out = mlp_merge

        tasks.append(self._lm_head_task(machine, prev_out, batch))
        return tasks
