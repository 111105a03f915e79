"""Shared experiment plumbing: cached plans and engine construction.

Offline plan building (profile synthesis + ILP) costs from about 0.3 s
(opt-6.7b, where every neuron fits the GPU and HiGHS is skipped) to several
seconds (plans HiGHS has to solve) per (model, machine, dtype, policy)
tuple; experiments share one process-wide cache so figure benches that
reuse a deployment pay once.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.pipeline import build_plan
from repro.engine.base import PerfEngine
from repro.engine.baselines import (
    DejaVuUmEngine,
    FlexGenEngine,
    LayerwiseSparseEngine,
    LlamaCppEngine,
    VllmEngine,
)
from repro.engine.plan import DeploymentPlan
from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.spec import MACHINE_PRESETS
from repro.models.config import MODEL_PRESETS
from repro.quant.formats import DTYPE_PRESETS

__all__ = ["cached_plan", "make_engine", "ENGINE_CLASSES"]

ENGINE_CLASSES = {
    "powerinfer": PowerInferEngine,
    "llama.cpp": LlamaCppEngine,
    "flexgen": FlexGenEngine,
    "dejavu-um": DejaVuUmEngine,
    "vllm": VllmEngine,
    "+PO": LayerwiseSparseEngine,
}

# Engines that consult the placement masks need a solved policy; the rest
# run off a "none" plan (cheap — skips the ILP).
_POLICY_FOR_ENGINE = {
    "powerinfer": "ilp",
    "llama.cpp": "none",
    "flexgen": "none",
    "dejavu-um": "none",
    "vllm": "none",
    "+PO": "none",
}


@lru_cache(maxsize=128)
def cached_plan(
    model_name: str,
    machine_name: str,
    dtype_name: str = "fp16",
    policy: str = "ilp",
    seed: int = 0,
    kv_gpu_budget_bytes: float = 0.0,
) -> DeploymentPlan:
    """Build (or fetch) the deployment plan for a preset combination."""
    return build_plan(
        MODEL_PRESETS[model_name],
        MACHINE_PRESETS[machine_name],
        dtype=DTYPE_PRESETS[dtype_name],
        policy=policy,
        seed=seed,
        kv_gpu_budget_bytes=kv_gpu_budget_bytes,
    )


def make_engine(
    engine_name: str,
    model_name: str,
    machine_name: str,
    dtype_name: str = "fp16",
    policy: str | None = None,
    seed: int = 0,
    kv_gpu_budget_bytes: float = 0.0,
) -> PerfEngine:
    """Construct a named engine over a cached plan.

    ``kv_gpu_budget_bytes`` withholds GPU memory from neuron placement for
    serving-time KV cache (continuous-batching deployments).

    Raises:
        KeyError: Unknown engine/model/machine/dtype name.
        OutOfMemoryError: If the model does not fit the machine.
    """
    cls = ENGINE_CLASSES[engine_name]
    plan_policy = policy if policy is not None else _POLICY_FOR_ENGINE[engine_name]
    plan = cached_plan(
        model_name, machine_name, dtype_name, plan_policy, seed, kv_gpu_budget_bytes
    )
    return cls(plan)
