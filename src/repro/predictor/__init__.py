"""Adaptive activation predictors: numpy MLPs + iterative sizing."""

from repro.predictor.adaptive import (
    AdaptiveSizingResult,
    adaptive_train,
    baseline_hidden_size,
    modeled_predictor_bytes,
    modeled_predictor_params,
)
from repro.predictor.mlp import MlpPredictor, PredictorMetrics
from repro.predictor.training import collect_training_data, synthesize_training_data

__all__ = [
    "AdaptiveSizingResult",
    "MlpPredictor",
    "PredictorMetrics",
    "adaptive_train",
    "baseline_hidden_size",
    "collect_training_data",
    "modeled_predictor_bytes",
    "modeled_predictor_params",
    "synthesize_training_data",
]
