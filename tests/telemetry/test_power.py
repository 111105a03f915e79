"""Energy metering: ledger/meter reconciliation, DVFS, and bit-identity."""

import dataclasses
import math

import pytest

from repro.bench.fleet_chaos import (
    DEFAULT_SLO,
    build_fleet,
    default_fleet_monitor,
    fleet_requests,
)
from repro.bench.runner import make_engine
from repro.hardware.events import EventSimulator, SimTask
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.spec import MACHINE_PRESETS
from repro.telemetry.fleet import FleetTracer
from repro.telemetry.power import (
    DEFAULT_CARBON_INTENSITY,
    PowerMeter,
    PowerModel,
    active_watts,
    fleet_energy,
    fleet_generated_tokens,
    grams_co2,
    idle_watts,
    request_energy,
    sample_fleet_power,
    schedule_energy,
    tracer_energy,
)
from repro.telemetry.tracer import Tracer

MACHINE = MACHINE_PRESETS["pc-low"]
IDLE_TOTAL = sum(idle_watts(MACHINE).values())


def run_tasks(tasks):
    resources = sorted({t.resource for t in tasks})
    return EventSimulator(resources).run(tasks)


def deep_tracer():
    return FleetTracer(monitor=default_fleet_monitor(), slo=DEFAULT_SLO)


class TestPowerMeter:
    def test_single_interval_integral(self):
        meter = PowerMeter([(1.0, 3.0, 50.0)], idle_watts_total=10.0, horizon=5.0)
        assert meter.total_joules == pytest.approx(10.0 * 5.0 + 50.0 * 2.0)
        assert meter.power_at(0.5) == pytest.approx(10.0)
        assert meter.power_at(2.0) == pytest.approx(60.0)
        assert meter.energy_between(1.0, 3.0) == pytest.approx(120.0)

    def test_zero_duration_entries_contribute_nothing(self):
        meter = PowerMeter(
            [(2.0, 2.0, 1000.0), (0.0, 4.0, 25.0)], idle_watts_total=5.0, horizon=4.0
        )
        assert meter.total_joules == pytest.approx(5.0 * 4.0 + 25.0 * 4.0)
        # A zero-width spike never shows up as instantaneous power either.
        assert meter.power_at(2.0) == pytest.approx(30.0)

    def test_overlapping_intervals_stack_dynamic_only(self):
        # Two overlapping tasks: idle must be counted once, dynamic draws
        # must stack — the overlap is where double-counting would show.
        meter = PowerMeter(
            [(0.0, 2.0, 30.0), (1.0, 3.0, 40.0)], idle_watts_total=10.0, horizon=3.0
        )
        assert meter.power_at(0.5) == pytest.approx(40.0)
        assert meter.power_at(1.5) == pytest.approx(80.0)
        assert meter.power_at(2.5) == pytest.approx(50.0)
        expected = 10.0 * 3.0 + 30.0 * 2.0 + 40.0 * 2.0
        assert meter.total_joules == pytest.approx(expected)

    def test_cumulative_is_monotone(self):
        meter = PowerMeter(
            [(0.0, 1.0, 20.0), (0.5, 2.5, 5.0)], idle_watts_total=2.0, horizon=3.0
        )
        samples = [meter.cumulative_joules(0.1 * k) for k in range(31)]
        assert all(b >= a for a, b in zip(samples, samples[1:]))


class TestScheduleEnergy:
    def test_ledger_meter_reconcile(self):
        engine = make_engine("powerinfer", "opt-6.7b", "pc-low", "int4")
        result = engine.simulate_iteration(128, 1, 4)
        report = schedule_energy(result, engine.machine)
        ledger = report.dynamic_joules + report.static_joules
        assert report.metered_joules == pytest.approx(ledger, rel=1e-9)
        assert report.total_joules > 0.0

    def test_zero_duration_task_prices_zero_joules(self):
        tasks = [
            SimTask(name="a", resource="gpu", duration=0.0),
            SimTask(name="b", resource="gpu", duration=1.0, deps=("a",)),
        ]
        report = schedule_energy(run_tasks(tasks), MACHINE)
        by_name = {e.name: e for e in report.tasks}
        assert by_name["a"].joules == 0.0
        assert by_name["b"].joules > 0.0
        ledger = report.dynamic_joules + report.static_joules
        assert report.metered_joules == pytest.approx(ledger, rel=1e-9)

    def test_compute_bound_draws_more_than_memory_bound(self):
        gpu = MACHINE.gpu
        mem_w = active_watts("gpu", None, MACHINE)
        assert mem_w == pytest.approx(gpu.busy_watts - gpu.idle_watts)
        # Unknown lanes draw nothing.
        assert active_watts("request", None, MACHINE) == 0.0

    def test_dvfs_throttle_scales_dynamic_power_cubically(self):
        faults = FaultSchedule(
            [FaultEvent(FaultKind.GPU_THROTTLE, start=1.0, duration=2.0, magnitude=2.0)]
        )
        nominal = active_watts("gpu", None, MACHINE, faults=faults, at=0.5)
        throttled = active_watts("gpu", None, MACHINE, faults=faults, at=1.5)
        assert throttled == pytest.approx(nominal / 2.0**3)
        # CPU throttle must not touch the GPU lane and vice versa.
        cpu_faults = FaultSchedule(
            [FaultEvent(FaultKind.CPU_THROTTLE, start=0.0, duration=9.0, magnitude=3.0)]
        )
        assert active_watts("gpu", None, MACHINE, faults=cpu_faults, at=1.0) == (
            pytest.approx(nominal)
        )
        # PCIe degradation is contention, not DVFS: no power change.
        pcie_faults = FaultSchedule(
            [FaultEvent(FaultKind.PCIE_DEGRADE, start=0.0, duration=9.0, magnitude=4.0)]
        )
        assert active_watts("pcie", None, MACHINE, faults=pcie_faults, at=1.0) == (
            pytest.approx(MACHINE.link.busy_watts - MACHINE.link.idle_watts)
        )

    def test_carbon_accounting(self):
        assert grams_co2(3.6e6) == pytest.approx(DEFAULT_CARBON_INTENSITY)
        assert grams_co2(3.6e6, intensity=50.0) == pytest.approx(50.0)
        with pytest.raises(ValueError):
            PowerModel(carbon_intensity=-1.0)


class TestRequestEnergy:
    def test_deterministic_and_positive(self):
        engine = make_engine("powerinfer", "opt-6.7b", "pc-low", "int4")
        a = request_energy(engine, 64, 128)
        b = request_energy(engine, 64, 128)
        assert a == b
        assert a.j_per_token > 0.0
        assert a.avg_watts > IDLE_TOTAL
        assert a.grams_co2() == pytest.approx(
            grams_co2(a.total_joules, DEFAULT_CARBON_INTENSITY)
        )

    def test_rejects_degenerate_shapes(self):
        engine = make_engine("powerinfer", "opt-6.7b", "pc-low", "int4")
        with pytest.raises(ValueError):
            request_energy(engine, 0, 128)
        with pytest.raises(ValueError):
            request_energy(engine, 64, 0)
        with pytest.raises(ValueError, match="decode_samples must be >= 1"):
            request_energy(engine, 16, 8, decode_samples=0)


class TestTracerEnergy:
    def test_traced_serving_reconciles_under_faults(self):
        import numpy as np

        from repro.bench.fault_tolerance import default_fault_schedule
        from repro.serving.arrival import poisson_arrivals
        from repro.serving.continuous import ContinuousServer
        from repro.workloads import CHATGPT_PROMPTS

        engine = make_engine("powerinfer", "opt-6.7b", "pc-low", "int4")
        faults = default_fault_schedule()
        tracer = Tracer()
        server = ContinuousServer(
            engine,
            policy="chunked",
            max_batch=8,
            kv_budget_bytes=0.35 * 2**30,
            faults=faults,
            deadline=12.0,
            tracer=tracer,
        )
        report = server.run(
            poisson_arrivals(
                CHATGPT_PROMPTS,
                rate=0.9,
                n_requests=8,
                rng=np.random.default_rng(1234),
                deadline=12.0,
            )
        )
        energy = tracer_energy(
            tracer, engine.machine, faults=faults, horizon=report.makespan
        )
        ledger = energy.dynamic_joules + energy.static_joules
        assert energy.metered_joules == pytest.approx(ledger, rel=1e-9)


class TestFleetEnergy:
    @pytest.fixture(scope="class")
    def chaos_run(self):
        tracer = deep_tracer()
        result = build_fleet(tracer=tracer).run(fleet_requests(12))
        sample_fleet_power(tracer, fleet_energy(result, tracer))
        return tracer, result

    def test_fleet_reconciles(self, chaos_run):
        tracer, result = chaos_run
        energy = fleet_energy(result, tracer)
        ledger = energy.dynamic_joules + energy.static_joules
        assert energy.metered_joules == pytest.approx(ledger, rel=1e-9)
        assert energy.j_per_token(fleet_generated_tokens(result)) > 0.0
        assert math.isinf(energy.j_per_token(0))

    def test_crashed_replica_draws_idle_only_in_window(self, chaos_run):
        tracer, result = chaos_run
        energy = fleet_energy(result, tracer)
        crashed = next(s for s in result.replicas if s.crash_windows)
        report = energy.replica(crashed.name)
        idle_floor = sum(report.idle.values())
        for start, end in crashed.crash_windows:
            # No ledger entry may overlap the crash window...
            for entry in report.tasks:
                assert entry.end <= start or entry.start >= end
            # ...so the metered power inside it is exactly the idle floor.
            meter = report.meter()
            mid = (start + min(end, report.horizon)) / 2.0
            assert meter.power_at(mid) == pytest.approx(idle_floor)

    def test_watt_lanes_sampled_on_tick_grid(self, chaos_run):
        tracer, result = chaos_run
        bank = tracer.timeseries
        names = set(bank.names())
        assert "fleet/watts" in names
        for summary in result.replicas:
            for lane in ("gpu_watts", "cpu_watts", "pcie_watts", "watts"):
                assert f"{summary.name}/{lane}" in names
        ticks = [t for t, _ in bank.series("fleet/up_replicas").samples()]
        watt_ticks = [t for t, _ in bank.series("fleet/watts").samples()]
        assert watt_ticks == ticks

    def test_fleet_energy_requires_machine_spec(self, chaos_run):
        tracer, result = chaos_run
        stripped = dataclasses.replace(
            result,
            replicas=tuple(
                dataclasses.replace(s, machine_spec=None) for s in result.replicas
            ),
        )
        with pytest.raises(ValueError, match="MachineSpec"):
            fleet_energy(stripped, tracer)


class TestBitIdentity:
    def test_power_fields_never_reach_the_cost_model(self):
        # Same machine with a wildly different power envelope must produce
        # the bit-identical schedule: the cost model never reads watts.
        engine = make_engine("powerinfer", "opt-6.7b", "pc-low", "int4")
        machine = engine.machine
        hot = dataclasses.replace(
            machine,
            gpu=dataclasses.replace(
                machine.gpu, idle_watts=1.0, busy_watts=900.0, peak_watts=1000.0
            ),
            cpu=dataclasses.replace(
                machine.cpu, idle_watts=2.0, busy_watts=400.0, peak_watts=500.0
            ),
            link=dataclasses.replace(machine.link, idle_watts=0.5, busy_watts=99.0),
        )
        base = engine.simulate_iteration(128, 1, 4)
        perturbed = engine.simulate_iteration(128, 1, 4, machine=hot)
        assert base.makespan == perturbed.makespan
        assert {n: (t.start, t.end) for n, t in base.tasks.items()} == {
            n: (t.start, t.end) for n, t in perturbed.tasks.items()
        }

    def test_metering_disabled_leaves_fleet_result_identical(self):
        # An untraced run (metering off) and a deep-traced run (metering
        # samples watt lanes post-hoc) must produce the same report.
        untraced = build_fleet().run(fleet_requests(12))
        tracer = deep_tracer()
        traced = build_fleet(tracer=tracer).run(fleet_requests(12))
        assert untraced.to_dict(slo=DEFAULT_SLO) == traced.to_dict(slo=DEFAULT_SLO)
