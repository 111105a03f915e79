"""Deployment plans: everything the online engine needs to run a model.

A :class:`DeploymentPlan` bundles the outputs of PowerInfer's offline phase
(paper Figure 7, steps 1-3): the model architecture, the target machine, the
storage dtype, per-layer activation statistics from the profiler, the
solver's GPU/CPU neuron masks, and the adaptive predictor sizes.  It also
owns the memory accounting — verifying that hot neurons + predictors +
embeddings fit the GPU and that the spill fits host memory (Inequality 6's
real-world counterpart).

Baselines reuse the same plan (they ignore the fields their design lacks,
e.g. llama.cpp ignores masks and predictors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.memory import MemoryPool
from repro.hardware.spec import MachineSpec
from repro.models.config import ModelConfig
from repro.quant.formats import DType

__all__ = ["MemoryReport", "DeploymentPlan"]


@dataclass(frozen=True)
class MemoryReport:
    """Bytes committed on each device under a plan."""

    gpu_used: float
    gpu_capacity: float
    cpu_used: float
    cpu_capacity: float

    @property
    def gpu_fraction(self) -> float:
        return self.gpu_used / self.gpu_capacity

    @property
    def cpu_fraction(self) -> float:
        return self.cpu_used / self.cpu_capacity


def _union_rate(probs: np.ndarray, batch: int) -> np.ndarray:
    if batch == 1:
        return probs
    return 1.0 - (1.0 - probs) ** batch


@dataclass
class DeploymentPlan:
    """Offline-phase output consumed by the online engines.

    Attributes:
        model: Architecture being served.
        machine: Target hardware.
        dtype: Weight storage format.
        mlp_probs: Per-layer per-neuron activation probabilities (profiled).
        attn_probs: Per-layer per-head activation probabilities.
        mlp_gpu_masks: Solver output — True where the MLP neuron is
            GPU-resident.
        attn_gpu_masks: Same for attention heads.
        predictor_bytes: Per-layer predictor memory (resident on GPU).
        gpu_memory_reserve: Fraction of GPU memory held for activations
            and working buffers.
        expected_context: Context length used when a single representative
            KV-cache size is needed.
    """

    model: ModelConfig
    machine: MachineSpec
    dtype: DType
    mlp_probs: list[np.ndarray]
    attn_probs: list[np.ndarray]
    mlp_gpu_masks: list[np.ndarray]
    attn_gpu_masks: list[np.ndarray]
    predictor_bytes: list[float] = field(default_factory=list)
    gpu_memory_reserve: float = 0.08
    expected_context: int = 256

    def __post_init__(self) -> None:
        n = self.model.n_layers
        for name, seq in (
            ("mlp_probs", self.mlp_probs),
            ("attn_probs", self.attn_probs),
            ("mlp_gpu_masks", self.mlp_gpu_masks),
            ("attn_gpu_masks", self.attn_gpu_masks),
        ):
            if len(seq) != n:
                raise ValueError(f"{name} must have one entry per layer ({n})")
        for li in range(n):
            if self.mlp_probs[li].shape != (self.model.d_ffn,):
                raise ValueError(f"mlp_probs[{li}] must have shape (d_ffn,)")
            if self.attn_probs[li].shape != (self.model.n_heads,):
                raise ValueError(f"attn_probs[{li}] must have shape (n_heads,)")
            if self.mlp_gpu_masks[li].shape != (self.model.d_ffn,):
                raise ValueError(f"mlp_gpu_masks[{li}] must have shape (d_ffn,)")
            if self.attn_gpu_masks[li].shape != (self.model.n_heads,):
                raise ValueError(f"attn_gpu_masks[{li}] must have shape (n_heads,)")
        if not self.predictor_bytes:
            self.predictor_bytes = [0.0] * n
        if len(self.predictor_bytes) != n:
            raise ValueError("predictor_bytes must have one entry per layer")

    # ---- memory accounting -------------------------------------------------

    @property
    def embedding_bytes(self) -> float:
        return self.dtype.nbytes(self.model.embedding_params)

    @property
    def gpu_weight_bytes(self) -> float:
        """Neuron weights resident on GPU under the masks."""
        total = 0.0
        for li in range(self.model.n_layers):
            total += float(self.mlp_gpu_masks[li].sum()) * self.model.mlp_neuron_bytes(self.dtype)
            total += float(self.attn_gpu_masks[li].sum()) * self.model.attn_neuron_bytes(self.dtype)
        return total

    @property
    def cpu_weight_bytes(self) -> float:
        return self.dtype.nbytes(
            self.model.n_layers * self.model.params_per_layer
        ) - self.gpu_weight_bytes

    @property
    def total_predictor_bytes(self) -> float:
        return float(sum(self.predictor_bytes))

    def memory_report(self, context: int | None = None) -> MemoryReport:
        """Account all allocations; raises ``OutOfMemoryError`` on overflow.

        GPU holds: hot neuron weights, predictors, embeddings (LM head).
        CPU holds: cold neuron weights and the KV cache (paper Section 7).
        """
        ctx = context if context is not None else self.expected_context
        gpu = MemoryPool(
            name=self.machine.gpu.name,
            capacity=self.machine.gpu.memory_capacity,
            reserve_fraction=self.gpu_memory_reserve,
        )
        cpu = MemoryPool(
            name=self.machine.cpu.name,
            capacity=self.machine.cpu.memory_capacity,
            reserve_fraction=0.05,
        )
        gpu.allocate("hot-neurons", self.gpu_weight_bytes)
        gpu.allocate("predictors", self.total_predictor_bytes)
        gpu.allocate("embeddings", self.embedding_bytes)
        cpu.allocate("cold-neurons", self.cpu_weight_bytes)
        cpu.allocate("kv-cache", self.model.kv_cache_bytes_per_token(self.dtype) * ctx)
        return MemoryReport(
            gpu_used=gpu.used,
            gpu_capacity=gpu.usable_capacity,
            cpu_used=cpu.used,
            cpu_capacity=cpu.usable_capacity,
        )

    # ---- degraded-mode re-planning -------------------------------------------

    def with_gpu_bytes_freed(self, nbytes: float) -> "DeploymentPlan":
        """A copy with the coldest GPU-resident neurons demoted to the CPU.

        Graceful-degradation hook: when GPU memory is squeezed mid-run
        (e.g. a KV-budget shrink fault), the server trades hot-neuron
        residency for KV space.  MLP neurons are demoted globally in
        ascending activation-probability order — the least valuable GPU
        bytes go first, the mirror image of the solver's hot-first
        packing — until at least ``nbytes`` are freed or no GPU-resident
        MLP neurons remain.  Attention heads are kept (their masks also
        shape the CPU attention path) and deterministic order is guaranteed
        by a stable sort.  Returns ``self`` when ``nbytes <= 0``.
        """
        if nbytes <= 0:
            return self
        neuron_bytes = self.model.mlp_neuron_bytes(self.dtype)
        flat_mask = np.concatenate(self.mlp_gpu_masks)
        resident = np.flatnonzero(flat_mask)
        # Flat indices ascend in (layer, neuron) order, so a stable sort on
        # probability orders the candidates by (prob, layer, neuron).
        order = np.argsort(np.concatenate(self.mlp_probs)[resident], kind="stable")
        n_demote = min(
            resident.size, int(np.ceil(nbytes / neuron_bytes)) if neuron_bytes else 0
        )
        flat_mask[resident[order[:n_demote]]] = False
        new_masks = np.split(flat_mask, np.cumsum([m.size for m in self.mlp_gpu_masks])[:-1])
        return DeploymentPlan(
            model=self.model,
            machine=self.machine,
            dtype=self.dtype,
            mlp_probs=self.mlp_probs,
            attn_probs=self.attn_probs,
            mlp_gpu_masks=new_masks,
            attn_gpu_masks=self.attn_gpu_masks,
            predictor_bytes=list(self.predictor_bytes),
            gpu_memory_reserve=self.gpu_memory_reserve,
            expected_context=self.expected_context,
        )

    # ---- expected activation splits -----------------------------------------

    def mlp_active_split(self, layer: int, batch: int = 1) -> tuple[float, float]:
        """Expected (GPU, CPU) counts of active MLP neurons for one token
        block of ``batch`` independent tokens."""
        probs = _union_rate(self.mlp_probs[layer], batch)
        mask = self.mlp_gpu_masks[layer]
        return float(probs[mask].sum()), float(probs[~mask].sum())

    def attn_active_split(self, layer: int, batch: int = 1) -> tuple[float, float]:
        probs = _union_rate(self.attn_probs[layer], batch)
        mask = self.attn_gpu_masks[layer]
        return float(probs[mask].sum()), float(probs[~mask].sum())

    def sampled_mlp_split(
        self, layer: int, rng: np.random.Generator, batch: int = 1
    ) -> tuple[int, int]:
        """Sampled (GPU, CPU) active MLP neuron counts for one token block."""
        probs = _union_rate(self.mlp_probs[layer], batch)
        active = rng.random(probs.size) < probs
        mask = self.mlp_gpu_masks[layer]
        return int(np.logical_and(active, mask).sum()), int(
            np.logical_and(active, ~mask).sum()
        )

    def sampled_attn_split(
        self, layer: int, rng: np.random.Generator, batch: int = 1
    ) -> tuple[int, int]:
        probs = _union_rate(self.attn_probs[layer], batch)
        active = rng.random(probs.size) < probs
        mask = self.attn_gpu_masks[layer]
        return int(np.logical_and(active, mask).sum()), int(
            np.logical_and(active, ~mask).sum()
        )

    def gpu_neuron_load_share(self, batch: int = 1) -> float:
        """Expected fraction of activated-neuron computation on the GPU,
        weighted by per-neuron weight bytes (paper Figure 12)."""
        gpu_work = 0.0
        total_work = 0.0
        mlp_nb = self.model.mlp_neuron_bytes(self.dtype)
        attn_nb = self.model.attn_neuron_bytes(self.dtype)
        for li in range(self.model.n_layers):
            mg, mc = self.mlp_active_split(li, batch)
            ag, ac = self.attn_active_split(li, batch)
            gpu_work += mg * mlp_nb + ag * attn_nb
            total_work += (mg + mc) * mlp_nb + (ag + ac) * attn_nb
        return gpu_work / total_work if total_work else 0.0
