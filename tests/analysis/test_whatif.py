"""What-if sensitivity: every knob re-prices the iteration through the engine."""

import pytest

from repro.analysis.whatif import (
    STANDARD_KNOBS,
    PowerWhatIfResult,
    WhatIfResult,
    whatif_power_sensitivity,
    whatif_sensitivity,
)
from repro.bench.runner import ENGINE_CLASSES, make_engine
from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.costmodel import TaskCost
from repro.hardware.events import EventSimulator, SimTask
from repro.hardware.spec import PC_HIGH
from repro.telemetry.power import schedule_energy


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


class TestKnobs:
    def test_standard_knob_set(self):
        assert set(STANDARD_KNOBS) == {
            "pcie_bw_x2",
            "gpu_bw_x2",
            "cpu_bw_x2",
            "launch_zero",
            "sync_zero",
            "cpu_cores_x2",
            "cpu_cores_half",
        }

    def test_knobs_touch_only_their_field(self):
        m = PC_HIGH
        pcie = STANDARD_KNOBS["pcie_bw_x2"](m)
        assert pcie.link.bandwidth == 2.0 * m.link.bandwidth
        assert pcie.gpu == m.gpu and pcie.cpu == m.cpu

        gpu = STANDARD_KNOBS["gpu_bw_x2"](m)
        assert gpu.gpu.memory_bandwidth == 2.0 * m.gpu.memory_bandwidth
        assert gpu.cpu == m.cpu and gpu.link == m.link

        launch = STANDARD_KNOBS["launch_zero"](m)
        assert launch.gpu.launch_overhead == 0.0
        assert launch.cpu.launch_overhead == 0.0
        assert launch.sync_overhead == m.sync_overhead

        sync = STANDARD_KNOBS["sync_zero"](m)
        assert sync.sync_overhead == 0.0

        half = STANDARD_KNOBS["cpu_cores_half"](m)
        assert half.cpu.compute_flops == 0.5 * m.cpu.compute_flops
        assert half.cpu.memory_bandwidth == m.cpu.memory_bandwidth

    def test_original_machine_untouched(self):
        before = PC_HIGH.link.bandwidth
        STANDARD_KNOBS["pcie_bw_x2"](PC_HIGH)
        assert PC_HIGH.link.bandwidth == before


class TestSensitivity:
    def test_sorted_best_first(self, engine):
        results = whatif_sensitivity(engine, 64, 1)
        assert set(r.knob for r in results) == set(STANDARD_KNOBS)
        spans = [r.predicted_makespan for r in results]
        assert spans == sorted(spans)

    def test_baseline_matches_schedule(self, engine):
        actual = engine.simulate_iteration(64, 1).makespan
        for r in whatif_sensitivity(engine, 64, 1):
            assert r.baseline_makespan == actual

    def test_directions(self, engine):
        by_knob = {r.knob: r for r in whatif_sensitivity(engine, 64, 1)}
        # Pure improvements can never slow the schedule down.
        for knob in ("pcie_bw_x2", "gpu_bw_x2", "cpu_bw_x2", "launch_zero",
                     "sync_zero", "cpu_cores_x2"):
            assert by_knob[knob].predicted_speedup >= 1.0 - 1e-12
        # Halving CPU throughput can never speed it up.
        assert by_knob["cpu_cores_half"].predicted_speedup <= 1.0 + 1e-12

    def test_knob_prices_on_the_perturbed_machine(self, engine):
        (row,) = whatif_sensitivity(
            engine, 64, 1, knobs={"pcie": STANDARD_KNOBS["pcie_bw_x2"]}
        )
        perturbed = STANDARD_KNOBS["pcie_bw_x2"](engine.machine)
        expected = engine.simulate_iteration(64, 1, machine=perturbed).makespan
        assert row.predicted_makespan == expected


class TestPowerSensitivity:
    def test_sorted_by_perf_per_watt(self, engine):
        results = whatif_power_sensitivity(engine, 64, 1)
        assert set(r.knob for r in results) == set(STANDARD_KNOBS)
        gains = [r.perf_per_watt_gain for r in results]
        assert gains == sorted(gains, reverse=True)

    def test_fixed_work_gain_is_energy_ratio(self, engine):
        # Work is fixed across knobs, so perf/W gain must equal E_base/E_pred
        # and a knob that changes nothing must land exactly at 1.0 on both.
        results = whatif_power_sensitivity(
            engine, 64, 1, knobs={"identity": lambda m: m}
        )
        (row,) = results
        assert row.predicted_speedup == 1.0
        assert row.perf_per_watt_gain == 1.0
        assert row.baseline_joules == row.predicted_joules

    def test_rows_carry_watts(self, engine):
        for r in whatif_power_sensitivity(engine, 64, 1):
            row = r.as_row()
            assert row["baseline_w"] > 0.0 and row["predicted_w"] > 0.0
            assert row["perf_per_watt_gain"] == pytest.approx(
                row["baseline_j"] / row["predicted_j"]
            )


# ---- the analytic re-pricer this module used to run, kept as a reference ----


def _reference_reprice(tasks, base, machine):
    """Each task's recorded work re-run through the roofline on ``machine``.

    ``base`` is the machine the tasks were priced on.  The launch and sync
    counts and the unified-memory flag are read back from the recorded
    cost terms, as the engines' op_task/transfer_task record them.
    """
    out = []
    for task in tasks:
        c = task.cost
        if task.resource == "pcie":
            um = c.transfer != base.link.transfer_time(c.bytes)
            cost = TaskCost(
                bytes=c.bytes, transfer=machine.link.transfer_time(c.bytes, unified_memory=um)
            )
        else:
            device = machine.device(task.resource)
            launches = 1 if c.launch > 0.0 else 0
            syncs = 1 if c.sync > 0.0 else 0
            cost = TaskCost(
                flops=c.flops,
                bytes=c.bytes,
                mem_time=c.bytes / device.effective_bandwidth,
                compute_time=c.flops / device.compute_flops,
                launch=launches * device.launch_overhead,
                sync=syncs * machine.sync_overhead,
            )
        out.append(
            SimTask(  # repro-lint: disable=inline-sim-task -- test-local reference re-pricer
                task.name, task.resource, cost.duration, deps=task.deps, tag=task.tag, cost=cost
            )
        )
    return out


def _reference_schedule(tasks, base, machine):
    resources = sorted({t.resource for t in tasks})
    return EventSimulator(resources).run(_reference_reprice(tasks, base, machine))


def _reference_rows(engine, ctx_len, n_tokens, knobs):
    """What-if rows as the analytic re-pricer produced them, in knob order."""
    base = engine.machine
    tasks = engine.iteration_tasks(base, ctx_len, n_tokens, 1)
    base_sched = _reference_schedule(tasks, base, base)
    base_j = schedule_energy(base_sched, base).total_joules
    speed, power = [], []
    for name, knob in knobs.items():
        perturbed = knob(base)
        sched = _reference_schedule(tasks, base, perturbed)
        speed.append(WhatIfResult(name, base_sched.makespan, sched.makespan))
        power.append(
            PowerWhatIfResult(
                name,
                base_sched.makespan,
                sched.makespan,
                base_j,
                schedule_energy(sched, perturbed).total_joules,
            )
        )
    speed.sort(key=lambda r: r.predicted_makespan)
    power.sort(key=lambda r: -r.perf_per_watt_gain)
    return [r.as_row() for r in speed], [r.as_row() for r in power]


PRESET = ("opt-6.7b", "pc-low", "int4")
SHAPES = ((0, 64), (192, 1))  # (ctx_len, n_tokens): a prefill and a decode


class TestReprice:
    def test_identity_reprice_is_bit_identical(self):
        """The reference reads launch/sync counts and the UM flag back exactly."""
        for name in ENGINE_CLASSES:
            engine = make_engine(name, *PRESET)
            base = engine.machine
            tasks = engine.iteration_tasks(base, 192, 1, 1)
            for orig, new in zip(tasks, _reference_reprice(tasks, base, base)):
                assert (new.name, new.duration, new.cost) == (
                    orig.name,
                    orig.duration,
                    orig.cost,
                ), f"{name}: {orig.name}"


def test_cross_validation_within_acceptance():
    """Acceptance bar: re-simulating each knob equals the analytic re-pricer,
    bit for bit, for every engine at a prefill and a decode shape."""
    knobs = {"identity": lambda m: m, **STANDARD_KNOBS}
    for name in ENGINE_CLASSES:
        engine = make_engine(name, *PRESET)
        for ctx_len, n_tokens in SHAPES:
            speed, power = _reference_rows(engine, ctx_len, n_tokens, knobs)
            rows = whatif_sensitivity(engine, ctx_len, n_tokens, knobs=knobs)
            assert [r.as_row() for r in rows] == speed, (name, ctx_len, n_tokens)
            rows = whatif_power_sensitivity(engine, ctx_len, n_tokens, knobs=knobs)
            assert [r.as_row() for r in rows] == power, (name, ctx_len, n_tokens)
