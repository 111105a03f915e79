"""Split tables and memoized DAG shapes price exactly what a fresh DAG prices.

``PerfEngine.price_iteration`` without a kept schedule re-prices only the
context tasks of a memoized shape and runs one forward pass.  Its makespan
must equal, bit for bit, the list scheduler's makespan of a DAG built from
scratch: on every cost-cache miss of the canonical fleet stream, for every
engine, and for the engine copy the KV-shrink re-plan prices with.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import fleet_chaos
from repro.bench.runner import ENGINE_CLASSES, make_engine
from repro.engine.base import RESOURCES, PerfEngine
from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.events import EventSimulator
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.memory import OutOfMemoryError
from repro.serving import ContinuousServer, poisson_arrivals
from repro.serving.continuous import IterationCostCache
from repro.workloads import CHATGPT_PROMPTS


def fresh_makespan(engine, ctx_len, n_tokens, batch, machine=None):
    """The list scheduler's makespan of a DAG built from scratch."""
    machine = engine.machine if machine is None else machine
    tasks = engine.iteration_tasks(machine, ctx_len, n_tokens, batch)
    return EventSimulator(list(RESOURCES)).run(tasks).makespan


def memo_makespan(engine, ctx_len, n_tokens, batch, machine=None):
    makespan, schedule = engine.price_iteration(
        ctx_len, n_tokens, batch, machine=machine, keep_schedule=False
    )
    assert schedule is None
    return makespan


@pytest.mark.parametrize("seed", [42, 7])
def test_every_fleet_miss_prices_like_a_fresh_dag(monkeypatch, seed):
    """The canonical `repro fleet` scenario on the stream drawn from
    ``seed``: every untraced cost-cache miss, checked against a fresh DAG
    on the same (possibly fault-perturbed) machine."""
    misses = []
    price = PerfEngine.price_iteration

    def checked(self, ctx_len, n_tokens, batch=1, machine=None, keep_schedule=True):
        makespan, schedule = price(self, ctx_len, n_tokens, batch, machine, keep_schedule)
        misses.append(
            (makespan, fresh_makespan(self, ctx_len, n_tokens, batch, machine), n_tokens, batch)
        )
        return makespan, schedule

    monkeypatch.setattr(PerfEngine, "price_iteration", checked)
    requests = poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=fleet_chaos.RATE_RPS,
        n_requests=fleet_chaos.N_REQUESTS,
        rng=np.random.default_rng(seed),
        deadline=fleet_chaos.DEADLINE_S,
    )
    fleet_chaos.build_fleet().run(requests)
    assert len(misses) > 100
    assert all(memo == fresh for memo, fresh, _, _ in misses)
    # Far fewer shapes than misses, so most misses re-priced a memo.
    assert len({(n, b) for _, _, n, b in misses}) < len(misses) / 3


@pytest.mark.parametrize("engine_name", sorted(ENGINE_CLASSES))
def test_every_engine_reprices_context_like_a_fresh_dag(engine_name):
    try:
        engine = make_engine(engine_name, "opt-6.7b", "pc-low", "int4")
    except OutOfMemoryError:
        pytest.skip("does not fit")
    throttled = FaultSchedule(
        [FaultEvent(FaultKind.CPU_THROTTLE, start=0.0, duration=1.0, magnitude=2.0)]
    ).perturbed_machine(engine.machine, 0.5)
    for machine in (engine.machine, throttled):
        for n_tokens, batch in ((1, 1), (1, 4), (32, 1)):
            for ctx in (0, 5, 64, 511, 2048):
                assert memo_makespan(engine, ctx, n_tokens, batch, machine) == (
                    fresh_makespan(engine, ctx, n_tokens, batch, machine)
                )
    # One shape per (machine, n_tokens, batch), all sharing few topologies.
    memo = engine._plan_memo()
    assert len(memo.shapes) == 6
    assert len(memo.topologies) <= 3


def test_degraded_copy_prices_its_own_plan(mini_plan):
    """The KV-shrink re-plan copies the engine and swaps its plan; what
    the copy prices must be what a fresh engine over the demoted plan
    prices, even after the pristine engine filled its tables and shapes
    at the same row counts."""
    engine = PowerInferEngine(mini_plan)
    faults = FaultSchedule(
        [FaultEvent(FaultKind.KV_SHRINK, start=0.0, duration=5.0, magnitude=0.1)]
    )
    server = ContinuousServer(
        engine, kv_budget_bytes=2 * engine.request_kv_bytes(16, 32), faults=faults
    )
    points = [(0, 16, 1), (20, 1, 1), (40, 1, 3), (60, 1, 3)]
    pristine = [memo_makespan(engine, *p) for p in points]
    degraded, cache, _ = server._degraded_runtime()
    fresh = PowerInferEngine(degraded.plan)
    for point, before in zip(points, pristine):
        price = memo_makespan(degraded, *point)
        assert price == memo_makespan(fresh, *point) == fresh_makespan(fresh, *point)
        assert price != before  # the demotion really moves the price
        assert degraded.simulate_iteration(*point).makespan == price
    assert cache.cost(60, 1, 3) == memo_makespan(fresh, 64, 1, 3)
    # The pristine engine still prices its own plan.
    assert [memo_makespan(engine, *p) for p in points] == pristine


def test_split_tables_match_the_plan(mini_plan):
    engine = PowerInferEngine(mini_plan)
    for rows in (1, 3, 32):
        assert engine._splits(rows) == [
            [*mini_plan.attn_active_split(li, rows), *mini_plan.mlp_active_split(li, rows)]
            for li in range(mini_plan.model.n_layers)
        ]
    assert all(isinstance(v, float) for row in engine._splits(3) for v in row)


def test_no_pricing_state_on_the_plan(mini_plan):
    """Plans are shared process-wide (``runner.cached_plan``), so a memo on
    the plan would hand warm tables to the next engine."""
    before = dict(vars(mini_plan))
    engine = PowerInferEngine(mini_plan)
    memo_makespan(engine, 64, 1, 2)
    assert vars(mini_plan).keys() == before.keys()
    assert PowerInferEngine(mini_plan)._plan_memo().shapes == {}


def test_sampled_pricing_draws_on_every_call(mini_plan):
    engine = PowerInferEngine(mini_plan)
    rng = np.random.default_rng(5)
    states = [rng.bit_generator.state["state"]["state"]]
    for _ in range(3):
        engine.simulate_iteration(64, 1, 2, rng=rng)
        states.append(rng.bit_generator.state["state"]["state"])
    assert len(set(states)) == len(states)
    replay = np.random.default_rng(5)
    first = engine.simulate_iteration(64, 1, 2, rng=replay).makespan
    assert first == PowerInferEngine(mini_plan).simulate_iteration(
        64, 1, 2, rng=np.random.default_rng(5)
    ).makespan


def test_schedule_after_an_untraced_miss(mini_plan):
    """``schedule(...).makespan == cost(...)`` holds for a key whose cost
    an untraced session priced first, as a makespan only."""
    cache = IterationCostCache(PowerInferEngine(mini_plan))
    for args in ((0, 32, 1), (100, 1, 4), (130, 1, 4)):
        cost = cache.cost(*args)
        assert cache.schedule(*args).makespan == cost
