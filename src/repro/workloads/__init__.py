"""Serving workloads and synthetic accuracy tasks."""

from repro.workloads.prompts import (
    ALPACA,
    CHATGPT_PROMPTS,
    PAPER_OUTPUT_LENGTHS,
    PromptWorkload,
    sample_requests,
)
from repro.workloads.tasks import (
    TASK_FAMILIES,
    TaskInstance,
    TaskSpec,
    evaluate_agreement,
    make_task,
    score_choices,
)

__all__ = [
    "ALPACA",
    "CHATGPT_PROMPTS",
    "PAPER_OUTPUT_LENGTHS",
    "PromptWorkload",
    "TASK_FAMILIES",
    "TaskInstance",
    "TaskSpec",
    "evaluate_agreement",
    "make_task",
    "sample_requests",
    "score_choices",
]
