"""Serving simulation: arrivals, one iteration-level serving loop, SLO metrics."""

from repro.serving.arrival import Request, poisson_arrivals
from repro.serving.continuous import (
    ContinuousServer,
    IterationCostCache,
    RequestState,
    ServerSession,
    retry_delay,
)
from repro.serving.fleet import (
    FleetConfig,
    FleetResult,
    FleetRouter,
    Replica,
    ReplicaRole,
    ReplicaSummary,
    make_router_policy,
)
from repro.serving.metrics import (
    SLO,
    ContinuousReport,
    RequestMetrics,
    merge_busy_intervals,
    percentile,
)
from repro.serving.policies import (
    SERVING_POLICIES,
    ChunkedPrefillPolicy,
    FCFSJoinPolicy,
    IterationPlan,
    PrefillPriorityPolicy,
    SchedulerPolicy,
    StaticBatchPolicy,
    make_policy,
)

__all__ = [
    "SLO",
    "SERVING_POLICIES",
    "ChunkedPrefillPolicy",
    "ContinuousReport",
    "ContinuousServer",
    "FCFSJoinPolicy",
    "FleetConfig",
    "FleetResult",
    "FleetRouter",
    "IterationCostCache",
    "IterationPlan",
    "PrefillPriorityPolicy",
    "Replica",
    "ReplicaRole",
    "ReplicaSummary",
    "Request",
    "RequestMetrics",
    "RequestState",
    "SchedulerPolicy",
    "ServerSession",
    "StaticBatchPolicy",
    "make_policy",
    "make_router_policy",
    "retry_delay",
    "merge_busy_intervals",
    "percentile",
    "poisson_arrivals",
]
