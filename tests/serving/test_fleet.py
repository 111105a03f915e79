"""Tests for the fault-tolerant fleet: router, failover, chaos scenarios.

Covers the acceptance criteria of the fleet subsystem: a 1-replica fleet
is bit-identical to the monolithic continuous server, failover strictly
beats a blind router under the canonical crash, crash-mid-decode replay
is honest (token conservation, KV loss-then-realloc across replicas),
and every chaos scenario passes the fleet validator with zero
violations — all of it deterministic across same-seed runs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.fleet_chaos import (
    DEADLINE_S,
    DEFAULT_SLO,
    KV_BUDGET_BYTES,
    MAX_BATCH,
    MAX_QUEUE,
    MAX_RETRIES,
    build_fleet,
    fleet_requests,
)
from repro.bench.runner import make_engine
from repro.check.schedule import validate_fleet_run
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.serving import (
    ContinuousServer,
    FleetConfig,
    FleetRouter,
    Replica,
    make_policy,
    make_router_policy,
    poisson_arrivals,
    retry_delay,
)
from repro.serving.arrival import Request
from repro.serving.continuous import RETRY_BACKOFF_S
from repro.serving.fleet import detect_windows
from repro.serving.fleet.policies import LeastLoadedPolicy
from repro.workloads import CHATGPT_PROMPTS

SERVER_KW = dict(
    max_batch=MAX_BATCH,
    kv_budget_bytes=KV_BUDGET_BYTES,
    max_retries=MAX_RETRIES,
    max_queue=MAX_QUEUE,
)


def _engine(machine="pc-low"):
    return make_engine("powerinfer", "opt-6.7b", machine, "int4")


def _replica(name="r0", machine="pc-low", faults=None, role="both"):
    return Replica(
        name=name,
        engine=_engine(machine),
        faults=faults,
        role=role,
        policy=make_policy("chunked", max_prefill_tokens=32),
        **SERVER_KW,
    )


def _requests(n=16, rate=1.2, seed=7, deadline=DEADLINE_S):
    return poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=rate,
        n_requests=n,
        rng=np.random.default_rng(seed),
        deadline=deadline,
    )


@pytest.fixture(scope="module")
def chaos_result():
    return build_fleet(router_policy="round-robin", chaos=True).run(fleet_requests())


@pytest.fixture(scope="module")
def blind_result():
    return build_fleet(
        router_policy="round-robin", chaos=True, failover=False
    ).run(fleet_requests())


# ---- retry backoff (shared single-server / fleet code path) ------------------


class TestRetryDelay:
    def test_exponential_growth_and_cap(self):
        assert RETRY_BACKOFF_S == 0.05
        assert retry_delay(1) == 0.05
        assert retry_delay(2) == 0.10
        assert retry_delay(4) == 0.40
        assert retry_delay(10, cap=2.0) == 2.0
        with pytest.raises(ValueError):
            retry_delay(0)


# ---- heartbeat detection -----------------------------------------------------


class TestDetectWindows:
    def test_long_crash_detected_on_the_beat_grid(self):
        [(down, up)] = detect_windows(((6.0, 24.0),), 0.25, 0.75)
        assert down == pytest.approx(6.5)
        assert up == pytest.approx(24.0)

    def test_short_crash_goes_unnoticed(self):
        assert detect_windows(((6.0, 6.4),), 0.25, 0.75) == []

    def test_multiple_windows(self):
        wins = detect_windows(((6.0, 10.0), (20.0, 20.1), (30.0, 33.0)), 0.25, 0.75)
        assert len(wins) == 2
        assert wins[0][0] < wins[0][1] <= 20.0
        assert wins[1][0] >= 30.0


# ---- router policies ---------------------------------------------------------


class TestRouterPolicies:
    def test_round_robin_cycles_over_candidates(self):
        policy = make_router_policy("round-robin")
        cands = [(0, None), (2, None), (5, None)]
        req = Request(request_id=0, arrival_time=0.0, input_len=8, output_len=8)
        picks = [policy.choose(cands, req, 0.0, 6) for _ in range(5)]
        assert picks == [0, 2, 5, 0, 2]

    def test_least_loaded_prefers_emptiest_then_lowest_index(self):
        a, b = _replica("a"), _replica("b")
        req = Request(request_id=1, arrival_time=0.0, input_len=8, output_len=8)
        policy = make_router_policy("least-loaded")
        assert policy.choose([(0, a), (1, b)], req, 0.0, 2) == 0  # tie -> lowest
        a.session.submit(req, at=0.0)
        assert LeastLoadedPolicy.load_of(a) == 1
        assert policy.choose([(0, a), (1, b)], req, 0.0, 2) == 1

    def test_session_affinity_pins_home_and_falls_back(self):
        a, b, c = _replica("a"), _replica("b"), _replica("c")
        policy = make_router_policy("session-affinity")
        req = Request(
            request_id=2, arrival_time=0.0, input_len=8, output_len=8, session=4
        )
        cands = [(0, a), (1, b), (2, c)]
        assert policy.choose(cands, req, 0.0, 3) == 1  # 4 % 3
        # Home down -> least-loaded fallback; no session -> same.
        assert policy.choose([(0, a), (2, c)], req, 0.0, 3) == 0
        bare = replace(req, session=None)
        assert policy.choose(cands, bare, 0.0, 3) == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError, match="unknown router policy"):
            make_router_policy("random")


# ---- config / construction validation ----------------------------------------


class TestFleetValidation:
    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            FleetConfig(hedge=True, disaggregate=True)

    def test_router_rejects_bad_fleets(self):
        with pytest.raises(ValueError, match="replica"):
            FleetRouter([])
        with pytest.raises(ValueError, match="unique"):
            FleetRouter([_replica("dup"), _replica("dup")])
        with pytest.raises(ValueError):
            FleetRouter(
                [_replica("p", role="prefill")],
                config=FleetConfig(disaggregate=True),
            )


# ---- 1-replica degeneration ---------------------------------------------------


class TestSingleReplicaBitIdentity:
    def test_fleet_of_one_reproduces_the_monolithic_server(self):
        requests = _requests(n=24, rate=1.5, seed=11)
        solo = ContinuousServer(
            _engine(),
            policy=make_policy("chunked", max_prefill_tokens=32),
            **SERVER_KW,
        ).run(requests)
        result = FleetRouter([_replica()]).run(requests)
        fleet = result.report
        assert fleet.completed == solo.completed
        assert fleet.timed_out == solo.timed_out
        assert fleet.shed == solo.shed
        assert fleet.failed == solo.failed
        assert fleet.busy_intervals == solo.busy_intervals
        assert fleet.n_iterations == solo.n_iterations
        assert fleet.peak_kv_bytes == solo.peak_kv_bytes
        assert fleet.to_dict(DEFAULT_SLO) == solo.to_dict(DEFAULT_SLO)
        assert validate_fleet_run(result) == []


# ---- the canonical chaos scenario --------------------------------------------


class TestFailover:
    def test_failover_strictly_beats_the_blind_router(self, chaos_result, blind_result):
        healed, blind = chaos_result.report, blind_result.report
        assert healed.goodput(DEFAULT_SLO) > blind.goodput(DEFAULT_SLO)
        assert healed.deadline_miss_rate < blind.deadline_miss_rate
        assert chaos_result.availability > blind_result.availability
        assert chaos_result.counters["failovers"] > 0
        assert blind_result.counters["failovers"] == 0

    def test_chaos_run_is_deterministic(self, chaos_result):
        again = build_fleet(router_policy="round-robin", chaos=True).run(
            fleet_requests()
        )
        assert again.report.to_dict(DEFAULT_SLO) == chaos_result.report.to_dict(
            DEFAULT_SLO
        )
        assert again.counters == chaos_result.counters

    def test_chaos_runs_pass_the_fleet_validator(self, chaos_result, blind_result):
        assert validate_fleet_run(chaos_result) == []
        assert validate_fleet_run(blind_result) == []

    def test_every_request_has_exactly_one_disposition(self, chaos_result):
        report = chaos_result.report
        ids = [r.request.request_id for r in report.completed]
        ids += [r.request_id for r in report.timed_out + report.shed + report.failed]
        assert sorted(ids) == list(range(len(fleet_requests())))

    def test_crashed_replica_served_nothing_inside_the_crash(self, chaos_result):
        rep = chaos_result.replicas[0]
        assert rep.crash_windows
        c0, c1 = rep.crash_windows[0]
        for start, end in rep.report.busy_intervals:
            assert end <= c0 + 1e-9 or start >= c1 - 1e-9


class TestCrashMidDecodeReplay:
    """Satellite: seeded crash-mid-decode fixture, replayed honestly."""

    @pytest.fixture(scope="class")
    def run(self):
        # Two identical replicas; replica 0 crashes at 4 s, long past the
        # first admissions, so in-flight decodes are mid-stream victims.
        faults = FaultSchedule(
            [FaultEvent(FaultKind.REPLICA_CRASH, start=4.0, duration=30.0)]
        )
        replicas = [_replica("r0", faults=faults), _replica("r1")]
        router = FleetRouter(replicas, config=FleetConfig(policy="round-robin"))
        requests = _requests(n=12, rate=2.0, seed=3, deadline=40.0)
        result = router.run(requests)
        return result

    def _migrated_ids(self, result):
        r0 = {e.name for e in result.replicas[0].ledger}
        r1 = {e.name for e in result.replicas[1].ledger}
        return sorted(r0 & r1)

    def test_victims_complete_with_full_token_count(self, run):
        assert run.counters["failovers"] > 0
        migrated = self._migrated_ids(run)
        assert migrated
        by_id = {m.request.request_id: m for m in run.report.completed}
        for name in migrated:
            rid = int(name.split("-")[-1])
            if rid not in by_id:
                continue  # timed out victims are allowed, lost ones are not
            metrics = by_id[rid]
            assert len(metrics.token_times) == metrics.request.output_len
            assert list(metrics.token_times) == sorted(metrics.token_times)

    def test_tokens_delivered_before_the_crash_are_not_re_emitted(self, run):
        # Replay starts from the last completed token: tokens timed before
        # the crash must be a prefix of the stitched timeline.
        c0 = 4.0
        for metrics in run.report.completed:
            times = metrics.token_times
            pre = [t for t in times if t < c0]
            assert times[: len(pre)] == tuple(pre)

    def test_kv_is_freed_on_the_dead_replica_then_reallocated(self, run):
        def balance(events):
            return sum(e.nbytes if e.op == "alloc" else -e.nbytes for e in events)

        migrated = self._migrated_ids(run)
        for name in migrated:
            r0_events = [e for e in run.replicas[0].ledger if e.name == name]
            r1_events = [e for e in run.replicas[1].ledger if e.name == name]
            assert r0_events and r1_events
            # Loss on r0 (alloc then free, nothing left resident)...
            assert r0_events[0].op == "alloc"
            assert balance(r0_events) == 0
            # ...then a fresh, larger residency on r1: the replayed
            # segment re-prefills prompt + delivered tokens.
            assert r1_events[0].op == "alloc"
            assert r1_events[0].nbytes >= r0_events[0].nbytes
            assert max(e.time for e in r0_events) <= min(e.time for e in r1_events)

    def test_fixture_passes_verify_schedule(self, run):
        assert validate_fleet_run(run) == []


# ---- resilience extras -------------------------------------------------------


class TestHedging:
    def test_hedged_requests_win_once_and_cancel_the_loser(self):
        result = build_fleet(
            router_policy="least-loaded", chaos=True, hedge=True
        ).run(fleet_requests())
        counters = result.counters
        assert counters["hedges"] > 0
        assert counters["hedge_wins"] == counters["hedges"]
        assert counters["hedge_cancels"] == counters["hedges"]
        assert result.hedged_ids
        assert validate_fleet_run(result) == []

    def test_hedging_loses_no_requests(self):
        result = build_fleet(
            router_policy="least-loaded", chaos=True, hedge=True
        ).run(fleet_requests())
        assert result.report.n_submitted == len(fleet_requests())
        assert not result.report.failed


class TestBrownout:
    def test_brownout_sheds_only_low_priority_during_detected_down(self):
        requests = [
            replace(r, priority=0 if i % 2 else 1)
            for i, r in enumerate(fleet_requests())
        ]
        result = build_fleet(router_policy="round-robin", chaos=True, brownout=True).run(
            requests
        )
        assert result.counters["brownout_shed"] > 0
        assert result.report.shed
        assert all(r.priority == 0 for r in result.report.shed)
        assert validate_fleet_run(result) == []

    def test_no_brownout_without_a_detected_crash(self):
        requests = [replace(r, priority=0) for r in fleet_requests()]
        result = build_fleet(
            router_policy="round-robin", chaos=False, brownout=True
        ).run(requests)
        assert result.counters.get("brownout_shed", 0) == 0
        assert not result.report.shed


class TestDisaggregation:
    def _fleet(self, link_faults=None):
        replicas = [
            _replica("prefill", machine="a100-server", role="prefill",
                     faults=link_faults),
            _replica("decode", machine="pc-low", role="decode"),
        ]
        return FleetRouter(
            replicas, config=FleetConfig(policy="round-robin", disaggregate=True)
        )

    def test_every_request_transfers_kv_once(self):
        requests = _requests(n=10, rate=1.0, seed=9, deadline=60.0)
        result = self._fleet().run(requests)
        assert result.transfers is not None
        assert len(result.transfers.tasks) == len(result.report.completed)
        assert validate_fleet_run(result) == []
        for metrics in result.report.completed:
            assert len(metrics.token_times) == metrics.request.output_len

    def test_link_degrade_slows_the_transfers(self):
        requests = _requests(n=10, rate=1.0, seed=9, deadline=60.0)
        nominal = self._fleet().run(requests)
        degraded_faults = FaultSchedule(
            [FaultEvent(FaultKind.LINK_DEGRADE, start=0.0, duration=500.0,
                        magnitude=8.0)]
        )
        slowed = self._fleet(link_faults=degraded_faults).run(requests)
        nominal_busy = nominal.transfers.busy_time["interconnect"]
        slowed_busy = slowed.transfers.busy_time["interconnect"]
        assert slowed_busy > 4.0 * nominal_busy
        assert validate_fleet_run(slowed) == []


# ---- external-mode session plumbing ------------------------------------------


class TestServerSessionExternalMode:
    def _session(self):
        server = ContinuousServer(
            _engine(), policy="fcfs", **SERVER_KW
        )
        return server.session(record_ledger=True)

    def _req(self, rid, at=0.0):
        return Request(request_id=rid, arrival_time=at, input_len=16, output_len=4)

    def test_submit_step_emits_lifecycle_events(self):
        session = self._session()
        session.submit(self._req(0), at=0.0)
        while session.has_work():
            if not session.step():
                break
        kinds = [e[0] for e in session.outbox]
        assert kinds[0] == "admit"
        assert kinds.count("token") == 4
        assert kinds[-1] == "complete"

    def test_cancel_releases_kv_and_stops_events(self):
        session = self._session()
        session.submit(self._req(0), at=0.0)
        session.submit(self._req(1), at=0.0)
        # Step until request 1 is running, then cancel it.
        while not any(s.request.request_id == 1 for s in session.running):
            assert session.step()
        assert session.cancel(1, at=session.now)
        assert not session.cancel(99, at=session.now)  # unknown rid
        while session.has_work():
            if not session.step():
                break
        session.finish(validate=False)
        completed = [e[2].request.request_id for e in session.outbox
                     if e[0] == "complete"]
        assert completed == [0]
        assert session.pool.used == 0
        assert sum(
            e.nbytes if e.op == "alloc" else -e.nbytes for e in session.kv_ledger
        ) == 0

    def test_drain_returns_undelivered_and_keeps_session_usable(self):
        session = self._session()
        for rid in range(3):
            session.submit(self._req(rid), at=float(rid))
        assert session.step()  # pump the first arrival in
        drained = session.drain(at=session.now)
        assert [r.request_id for r in drained] == [0, 1, 2]
        assert not session.has_work()
        # The session stays alive: new work is accepted after a drain.
        session.submit(self._req(7, at=session.now), at=session.now)
        while session.has_work():
            if not session.step():
                break
        assert any(e[0] == "complete" for e in session.outbox)
