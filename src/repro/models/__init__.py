"""Model zoo: architecture configs, synthetic weights, numpy transformer."""

from repro.models.config import (
    FALCON_40B,
    LLAMA_70B,
    MODEL_PRESETS,
    OPT_6_7B,
    OPT_13B,
    OPT_30B,
    OPT_66B,
    OPT_175B,
    Activation,
    ModelConfig,
    tiny_config,
)
from repro.models.kvcache import KVCache
from repro.models.transformer import Transformer, mlp_activation_mask, softmax
from repro.models.weights import LayerWeights, ModelWeights, init_weights

__all__ = [
    "Activation",
    "FALCON_40B",
    "KVCache",
    "LLAMA_70B",
    "LayerWeights",
    "MODEL_PRESETS",
    "ModelConfig",
    "ModelWeights",
    "OPT_13B",
    "OPT_175B",
    "OPT_30B",
    "OPT_66B",
    "OPT_6_7B",
    "Transformer",
    "init_weights",
    "mlp_activation_mask",
    "softmax",
    "tiny_config",
]
