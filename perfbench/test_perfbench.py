"""Tests of the benchmark itself.

From the repository root:

    python3 -m pytest perfbench/test_perfbench.py

The traced-run tests use shrunken workloads (a small model, short fleet
streams) so they finish in about a minute; the code paths are the ones the
full workloads take.
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import harness  # noqa: E402
import layers  # noqa: E402
from repro.bench import fleet_chaos  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    FleetChaos,
    FleetDeepTrace,
    PaperSweep,
    fleet_requests,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SmallPaperSweep(PaperSweep):
    model = "opt-6.7b"


class SmallFleetChaos(FleetChaos):
    def __init__(self, seed: int) -> None:
        self.streams = [fleet_requests(seed, 6)]


def test_default_seed_serves_the_canonical_fleet_stream():
    assert fleet_requests(42) == fleet_chaos.fleet_requests()
    assert FleetChaos(42).streams[0] == fleet_chaos.fleet_requests()


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    for name in [*WORKLOADS, *harness.END_TO_END_UNITS, *harness.PER_LAYER_UNITS]:
        assert NAME.match(name), name


def test_self_times_account_for_the_root_span():
    rec = layers.SpanRecorder()
    with rec.span("run"):
        with rec.span("a"):
            with rec.span("b"):
                time.sleep(0.002)
            time.sleep(0.001)
        with rec.span("b"):
            time.sleep(0.001)
    assert rec.calls == {"run": 1, "a": 1, "b": 2}
    assert sum(rec.self_s.values()) == pytest.approx(rec.total_s("run"), rel=1e-9)
    names = {span_id: name for span_id, name, _, _, _ in rec.spans}
    edges = sorted((name, names.get(parent)) for _, name, _, _, parent in rec.spans)
    assert edges == [("a", "run"), ("b", "a"), ("b", "run"), ("run", None)]


def test_layer_spans_restore_every_patched_attribute():
    rec = layers.SpanRecorder()
    points = layers._patch_points(rec)
    before = [vars(owner)[attr] for owner, attr, _ in points]
    with layers.layer_spans(rec):
        assert all(vars(owner)[attr] is not orig for (owner, attr, _), orig in zip(points, before))
    assert [vars(owner)[attr] for owner, attr, _ in points] == before


def _traced(workload, tmp_path):
    tally = harness.Tally()
    metrics, _ = harness.traced(workload, 0.01, tally, tmp_path / "spans.json")
    return metrics, tally


@pytest.mark.parametrize(
    "workload", [SmallPaperSweep, SmallFleetChaos, FleetDeepTrace], ids=list(WORKLOADS)
)
def test_traced_runs_observe_only_and_repeat(workload, tmp_path):
    first, tally = _traced(workload(3), tmp_path)
    # The wrappers only observe: traced and untraced outputs are bit-identical.
    assert tally.correct, tally.problems
    assert len(tally.digests) >= 2 and len(set(tally.digests)) == 1
    # Self times plus the unattributed remainder are the traced wall time.
    self_times = [first[m] for m in layers.SELF_TIME_METRICS.values()]
    assert sum(self_times) + first["unattributed_s"] == pytest.approx(
        first["traced_setup_s"] + first["traced_run_s"], rel=1e-9
    )
    assert json.loads((tmp_path / "spans.json").read_text())["traceEvents"]

    second, _ = _traced(workload(3), tmp_path)
    counts = [name for name, unit in harness.PER_LAYER_UNITS.items() if unit == "count"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["engine.dags_built"] > 0 and first["core.pipeline.plans_built"] > 0
