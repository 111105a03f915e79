"""Fleet serving under replica chaos: failover vs a blind router.

Chaos study for the multi-replica fleet (beyond-paper).  One Poisson
request stream is played through a heterogeneous 3-replica fleet —
``pc-high`` / ``pc-low`` / ``a100-server``, each an independent
continuous-batching server — while the ``pc-high`` replica crashes
mid-stream and stays dead for 18 s.  The contrast isolating the health
reaction:

* **failover** — heartbeat detection marks the replica down, its
  undelivered queue is drained and re-dispatched to survivors, each
  victim replaying from its last completed token (lost KV re-priced on
  the new replica), and new arrivals route around the hole.
* **no-failover** — the same detection runs (for availability
  accounting) but the router stays blind: it keeps dispatching to the
  dead replica and strands its queue on local retries that land inside
  the crash stall.

Scored on SLO goodput and deadline-miss rate over *submitted* requests,
so neither router can look better by losing work.  Everything is seeded;
two runs produce identical rows (asserted by the fleet chaos tests).
The scenario builders here are also the canonical fleet fixtures for
``repro check --only schedule`` (:mod:`repro.check.verify`) and CI's
``fleet-chaos-smoke`` job.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.bench.runner import make_engine
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.serving import (
    SLO,
    FleetConfig,
    FleetRouter,
    Replica,
    ReplicaRole,
    make_policy,
    poisson_arrivals,
)
from repro.workloads import CHATGPT_PROMPTS

__all__ = [
    "DEFAULT_SLO",
    "FLEET_MACHINES",
    "build_fleet",
    "default_crash_schedule",
    "default_fleet_monitor",
    "fleet_requests",
    "run_fleet_chaos",
]

MODEL = "opt-6.7b"
DTYPE = "int4"
# Heterogeneous capacity on purpose: the crash takes out a *fast* replica
# (pc-high), so survivors absorb real load, not a rounding error.
FLEET_MACHINES = ("pc-high", "pc-low", "a100-server")
CRASH_REPLICA = 0  # pc-high
N_REQUESTS = 48
# Hot enough that the dead replica's stranded queue actually misses
# deadlines in the no-failover ablation (~19 s stream vs an 18 s crash).
RATE_RPS = 2.5
MAX_BATCH = 8
KV_BUDGET_BYTES = 0.35 * 2**30
DEADLINE_S = 12.0
MAX_RETRIES = 2
MAX_QUEUE = 16
SEED = 42
CRASH_START_S = 6.0
CRASH_DURATION_S = 18.0
DEFAULT_SLO = SLO(ttft_target=6.0, tbt_target=0.020)
ROUTER_POLICY_NAMES = ("round-robin", "least-loaded", "session-affinity")
# Conversations for session-affinity: a few concurrent "users", coprime
# with the fleet size so home assignment is not just round-robin.
N_SESSIONS = 5


def default_crash_schedule() -> FaultSchedule:
    """The canonical fleet chaos timeline: one long mid-stream crash.

    The crash starts with work in flight on every replica and outlasts
    the detection window by far, so drains, re-dispatches, *and* the
    recovery transition all happen inside the run.
    """
    return FaultSchedule(
        [
            FaultEvent(
                FaultKind.REPLICA_CRASH,
                start=CRASH_START_S,
                duration=CRASH_DURATION_S,
            )
        ]
    )


def default_fleet_monitor():
    """The canonical burn-rate monitor for the fleet chaos scenario.

    The rule pair (4 s establishing window, 1 s confirming window, 2x
    threshold) is tuned with the budgets so the 18 s crash reliably
    fires alerts inside its window while the fault-free reference run
    stays silent.  The TBT budget is wider than the others because
    ~20% of requests graze the 20 ms target under normal load on this
    heterogeneous fleet — only the crash pushes the miss rate past it.
    """
    from repro.telemetry import BurnRateRule, SLOMonitor, SLOObjective

    return SLOMonitor(
        objectives=[
            SLOObjective("ttft", budget=0.1),
            SLOObjective("tbt", budget=0.25),
            SLOObjective("deadline", budget=0.1),
        ],
        rules=[BurnRateRule(long_window_s=4.0, short_window_s=1.0, threshold=2.0)],
    )


def fleet_requests(n_requests: int = N_REQUESTS, sessions: int | None = None):
    """The seeded request stream; ``sessions`` tags conversation ids."""
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=RATE_RPS,
        n_requests=n_requests,
        rng=np.random.default_rng(SEED),
        deadline=DEADLINE_S,
    )
    if sessions is not None:
        requests = [
            replace(r, session=i % sessions) for i, r in enumerate(requests)
        ]
    return requests


def build_fleet(
    router_policy: str = "round-robin",
    chaos: bool = True,
    failover: bool = True,
    disaggregate: bool = False,
    hedge: bool = False,
    brownout: bool = False,
    tracer=None,
) -> FleetRouter:
    """The canonical 3-replica fleet, optionally with the crash injected.

    Disaggregated variant: ``a100-server`` prefills, the two PCs decode —
    the crash then hits a *decode* replica, exercising failover of
    post-transfer segments.
    """
    replicas = []
    for i, machine in enumerate(FLEET_MACHINES):
        if disaggregate:
            role = ReplicaRole.PREFILL if machine == "a100-server" else ReplicaRole.DECODE
        else:
            role = ReplicaRole.BOTH
        faults = default_crash_schedule() if chaos and i == CRASH_REPLICA else None
        replicas.append(
            Replica(
                name=f"r{i}-{machine}",
                engine=make_engine("powerinfer", MODEL, machine, DTYPE),
                faults=faults,
                role=role,
                policy=make_policy("chunked", max_prefill_tokens=32),
                max_batch=MAX_BATCH,
                kv_budget_bytes=KV_BUDGET_BYTES,
                max_retries=MAX_RETRIES,
                max_queue=MAX_QUEUE,
            )
        )
    config = FleetConfig(
        policy=router_policy,
        failover=failover,
        disaggregate=disaggregate,
        hedge=hedge,
        brownout=brownout,
    )
    return FleetRouter(replicas, config=config, tracer=tracer)


def _row(policy: str, faults_label: str, failover: bool, result) -> dict:
    report = result.report
    return {
        "policy": policy,
        "faults": faults_label,
        "failover": failover,
        "goodput_rps": report.goodput(DEFAULT_SLO),
        "deadline_miss_rate": report.deadline_miss_rate,
        "ttft_p99_s": report.ttft_percentile(99),
        "availability": result.availability,
        "capacity_availability": result.capacity_availability,
        "completed": len(report.completed),
        "timed_out": len(report.timed_out),
        "shed": len(report.shed),
        "failed": len(report.failed),
        "failovers": result.counters.get("failovers", 0),
        "redispatches": result.counters.get("redispatches", 0),
    }


def run_fleet_chaos(quick: bool = False) -> list[dict]:
    """Fleet chaos rows per router policy, plus the no-failover ablation.

    Returns one row per (policy, fault condition); ``quick`` keeps only
    the round-robin chaos pair (the CI smoke configuration).  Invariants
    checked here rather than trusted: every submitted request is
    accounted for, and under the crash the failover router strictly
    beats the blind one on goodput *and* deadline-miss rate.
    """
    policies = ("round-robin",) if quick else ROUTER_POLICY_NAMES

    rows: list[dict] = []
    results: dict[tuple[str, str], object] = {}
    for policy in policies:
        sessions = N_SESSIONS if policy == "session-affinity" else None
        requests = fleet_requests(sessions=sessions)
        conditions = ("chaos",) if quick else ("none", "chaos")
        for condition in conditions:
            router = build_fleet(router_policy=policy, chaos=condition == "chaos")
            result = router.run(requests)
            if result.report.n_submitted != len(requests):
                raise AssertionError(
                    f"request accounting broken: {result.report.n_submitted} of "
                    f"{len(requests)} submitted requests have a disposition"
                )
            results[(policy, condition)] = result
            rows.append(_row(policy, condition, True, result))

    blind = build_fleet(router_policy="round-robin", chaos=True, failover=False)
    blind_result = blind.run(fleet_requests())
    rows.append(_row("round-robin", "chaos", False, blind_result))

    healed = results[("round-robin", "chaos")].report
    blind_report = blind_result.report
    if not (
        healed.goodput(DEFAULT_SLO) > blind_report.goodput(DEFAULT_SLO)
        and healed.deadline_miss_rate < blind_report.deadline_miss_rate
    ):
        raise AssertionError(
            "failover failed to beat the blind router under chaos: "
            f"goodput {healed.goodput(DEFAULT_SLO):.4f} vs "
            f"{blind_report.goodput(DEFAULT_SLO):.4f}, miss rate "
            f"{healed.deadline_miss_rate:.4f} vs {blind_report.deadline_miss_rate:.4f}"
        )
    return rows
