"""Attribution layer: time decomposition reconciles, critical path is sound."""

import pytest

from repro.analysis.attribution import (
    CriticalPath,
    CriticalSegment,
    analyze_iteration,
    critical_path,
    decompose,
    decompose_spans,
    layer_of,
)
from repro.bench.runner import ENGINE_CLASSES, make_engine
from repro.engine.base import RESOURCES
from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.costmodel import COST_COMPONENTS
from repro.hardware.events import EventSimulator, SimTask
from repro.telemetry.tracer import Tracer


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


@pytest.fixture(scope="module")
def schedule(engine):
    return engine.simulate_iteration(128, 1, 1)


def test_layer_of():
    assert layer_of("L12.mlp_gpu") == "L12"
    assert layer_of("L0.attn_merge") == "L0"
    assert layer_of("lm_head") == "other"
    assert layer_of("Lx.weird") == "other"
    assert layer_of("hidden_xfer.3") == "other"


class TestDecomposition:
    def test_reconciles_with_simulator_busy_time(self, schedule):
        result = schedule
        deco = decompose(result)
        assert deco.uncosted == 0.0
        assert deco.reconciliation_error(result.busy_time) <= 1e-6

    def test_groupings_agree(self, schedule):
        result = schedule
        deco = decompose(result)
        by_dev = deco.totals
        for buckets in (deco.by_tag, deco.by_layer):
            agg = {c: 0.0 for c in COST_COMPONENTS}
            for bucket in buckets.values():
                for name, sec in bucket.items():
                    agg[name] += sec
            for name in COST_COMPONENTS:
                assert agg[name] == pytest.approx(by_dev[name], rel=1e-12, abs=1e-15)

    def test_shares_sum_to_one(self, schedule):
        result = schedule
        shares = decompose(result).shares()
        assert set(shares) == set(COST_COMPONENTS)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(s >= 0.0 for s in shares.values())

    def test_as_rows(self, schedule):
        result = schedule
        rows = decompose(result).as_rows("device")
        assert {r["device"] for r in rows} >= {"gpu", "cpu"}
        for row in rows:
            assert row["total"] == pytest.approx(
                sum(row[c] for c in COST_COMPONENTS), rel=1e-12
            )

    def test_end_to_end_spans_reconcile(self, engine):
        """Acceptance bar: a traced end-to-end run reconciles to 1e-6."""
        tracer = Tracer()
        engine.simulate_request(16, 8, tracer=tracer)
        deco = decompose_spans(tracer.task_spans)
        assert deco.uncosted == 0.0
        assert deco.reconciliation_error(tracer.device_busy()) <= 1e-6

    def test_uncosted_spans_counted(self):
        sim = EventSimulator(["gpu"])
        result = sim.run([SimTask("raw", "gpu", 0.5)])
        deco = decompose(result)
        assert deco.uncosted == pytest.approx(0.5)
        assert deco.total_seconds == pytest.approx(0.5)


class TestCriticalPath:
    def test_path_spans_makespan_contiguously(self, schedule):
        result = schedule
        cp = critical_path(result)
        assert cp.segments, "critical path must be non-empty"
        assert cp.segments[0].start == 0.0
        assert cp.segments[0].gate == "start"
        assert cp.segments[-1].end == pytest.approx(result.makespan, rel=1e-12)
        for a, b in zip(cp.segments, cp.segments[1:]):
            assert a.end == b.start, f"gap between {a.name} and {b.name}"
        assert cp.length == pytest.approx(result.makespan, rel=1e-9)

    def test_gates_classified(self, schedule):
        result = schedule
        cp = critical_path(result)
        assert all(s.gate in ("start", "dependency", "resource") for s in cp.segments)
        # A multi-layer DAG has at least one true dependency edge on the path.
        assert any(s.gate == "dependency" for s in cp.segments)

    def test_slack_zero_on_path_nonnegative_off(self, schedule):
        result = schedule
        cp = critical_path(result)
        on_path = {s.name for s in cp.segments}
        for name in on_path:
            assert abs(cp.slack[name]) <= 1e-12 * max(result.makespan, 1.0)
        for name, slack in cp.slack.items():
            assert slack >= -1e-12 * max(result.makespan, 1.0)

    def test_gating_resource(self, schedule):
        result = schedule
        cp = critical_path(result)
        by_res = cp.time_by_resource()
        assert cp.gating_resource() in RESOURCES
        assert sum(by_res.values()) == pytest.approx(cp.length, rel=1e-12)

    def test_empty_schedule(self):
        cp = critical_path(EventSimulator(["gpu"]).run([]))
        assert cp.segments == []
        assert cp.makespan == 0.0

    def test_resource_gate_on_a_dag_that_breaks_the_chain_rule(self):
        """Engine DAGs keep the ``resource-chain`` rule, so no task there
        waits for its device; two independent tasks on one device do."""
        result = EventSimulator(["gpu"]).run(
            [SimTask("a", "gpu", 1.0), SimTask("b", "gpu", 2.0)]
        )
        cp = critical_path(result)
        assert [(s.name, s.gate) for s in cp.segments] == [("a", "start"), ("b", "resource")]
        assert cp.length == result.makespan == 3.0


def test_analyze_iteration_bundle(engine):
    analysis = analyze_iteration(engine, 64, 1)
    assert analysis.schedule.makespan > 0.0
    assert analysis.critical_path.makespan == analysis.schedule.makespan
    assert (
        analysis.decomposition.reconciliation_error(analysis.schedule.busy_time)
        <= 1e-6
    )


def _reference_critical_path(tasks, result):
    """Critical path read off the task list handed to the simulator.

    The task-list form ``critical_path`` had before it read the dependency
    edges the simulator records on each scheduled task.
    """
    by_name = {t.name: t for t in tasks}
    res = result.tasks
    prev_on_resource = {}
    succ = {name: [] for name in res}
    lanes = {}
    for name, tr in res.items():
        lanes.setdefault(tr.resource, []).append(name)
    for names in lanes.values():
        names.sort(key=lambda n: (res[n].start, res[n].end))
        for earlier, later in zip(names, names[1:]):
            prev_on_resource[later] = earlier
            succ[earlier].append(later)
    for name in res:
        for dep in by_name[name].deps:
            succ[dep].append(name)
    indegree = {name: 0 for name in res}
    for children in succ.values():
        for child in children:
            indegree[child] += 1
    frontier = [name for name, deg in indegree.items() if deg == 0]
    topo = []
    while frontier:
        name = frontier.pop()
        topo.append(name)
        for child in succ[name]:
            indegree[child] -= 1
            if indegree[child] == 0:
                frontier.append(child)
    latest_finish = {name: result.makespan for name in res}
    for name in reversed(topo):
        for child in succ[name]:
            latest_finish[name] = min(
                latest_finish[name], latest_finish[child] - res[child].duration
            )
    slack = {
        name: (latest_finish[name] - res[name].duration) - res[name].start for name in res
    }
    current = max(res.values(), key=lambda tr: (tr.end, tr.start)).name
    chain = []
    while current is not None:
        tr = res[current]
        gate, nxt = "start", None
        for dep in by_name[current].deps:
            if res[dep].end == tr.start:  # repro-lint: disable=float-time-eq -- exact by construction
                gate, nxt = "dependency", dep
                break
        if nxt is None:
            prev = prev_on_resource.get(current)
            if prev is not None and res[prev].end == tr.start:  # repro-lint: disable=float-time-eq -- exact by construction
                gate, nxt = "resource", prev
        chain.append(CriticalSegment(current, tr.resource, tr.tag, tr.start, tr.end, gate))
        current = nxt
    chain.reverse()
    return CriticalPath(segments=chain, makespan=result.makespan, slack=slack)


@pytest.mark.parametrize("ctx_len,n_tokens,batch", [(0, 64, 1), (192, 1, 4)])
@pytest.mark.parametrize("engine_name", list(ENGINE_CLASSES))
def test_critical_path_matches_task_list_reference(engine_name, ctx_len, n_tokens, batch):
    engine = make_engine(engine_name, "opt-6.7b", "pc-low", "int4")
    tasks = engine.iteration_tasks(engine.machine, ctx_len, n_tokens, batch)
    result = engine.simulate_iteration(ctx_len, n_tokens, batch)
    expected = _reference_critical_path(tasks, result)
    actual = critical_path(result)
    assert actual.segments == expected.segments
    assert actual.slack == expected.slack
    assert actual.makespan == expected.makespan
