"""Tests for deterministic fault injection over the hardware specs."""

import pytest

from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.spec import MACHINE_PRESETS

MACHINE = MACHINE_PRESETS["pc-high"]


def pcie(start=1.0, duration=2.0, magnitude=4.0):
    return FaultEvent(FaultKind.PCIE_DEGRADE, start=start, duration=duration,
                      magnitude=magnitude)


class TestFaultEvent:
    def test_window_arithmetic(self):
        e = pcie(start=1.0, duration=2.0)
        assert e.end == 3.0
        assert not e.active_at(0.999)
        assert e.active_at(1.0)
        assert e.active_at(2.999)
        assert not e.active_at(3.0)  # half-open window

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("cosmic-ray", start=0.0, duration=1.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            pcie(start=-0.1)
        with pytest.raises(ValueError):
            pcie(duration=0.0)

    def test_magnitude_ranges_per_kind(self):
        with pytest.raises(ValueError, match="divisor"):
            pcie(magnitude=0.5)  # slowdowns divide, so < 1 is a speedup
        with pytest.raises(ValueError, match="remaining budget"):
            FaultEvent(FaultKind.KV_SHRINK, start=0.0, duration=1.0, magnitude=1.5)
        with pytest.raises(ValueError, match="remaining budget"):
            FaultEvent(FaultKind.KV_SHRINK, start=0.0, duration=1.0, magnitude=0.0)
        # Stalls ignore magnitude entirely.
        FaultEvent(FaultKind.DEVICE_STALL, start=0.0, duration=1.0)


class TestScheduleTimeline:
    def test_epochs_partition_at_boundaries(self):
        sched = FaultSchedule([pcie(start=1.0, duration=2.0)])
        assert sched.epoch(0.5) == sched.epoch(0.0)
        assert sched.epoch(1.0) != sched.epoch(0.5)
        assert sched.epoch(2.0) == sched.epoch(1.0)  # inside the window
        assert sched.epoch(3.0) != sched.epoch(2.0)

    def test_next_boundary_after(self):
        sched = FaultSchedule([pcie(start=1.0, duration=2.0)])
        assert sched.next_boundary_after(0.0) == 1.0
        assert sched.next_boundary_after(1.0) == 3.0
        assert sched.next_boundary_after(3.0) is None

    def test_horizon_and_active(self):
        sched = FaultSchedule([pcie(start=1.0, duration=2.0)])
        assert sched.horizon == 3.0
        assert sched.active(0.0) == ()
        assert len(sched.active(2.0)) == 1
        assert sched.is_degraded(2.0)
        assert not sched.is_degraded(0.0)

    def test_empty_schedule(self):
        sched = FaultSchedule([])
        assert len(sched) == 0
        assert sched.horizon == 0.0
        assert sched.next_boundary_after(0.0) is None
        assert sched.perturbed_machine(MACHINE, 5.0) is MACHINE
        assert sched.kv_budget_factor(5.0) == 1.0
        assert sched.stall_end_at(5.0) is None


class TestPerturbation:
    def test_pcie_degrade_hits_bandwidth_and_latency(self):
        sched = FaultSchedule([pcie(start=1.0, duration=2.0, magnitude=4.0)])
        hit = sched.perturbed_machine(MACHINE, 2.0)
        assert hit.link.bandwidth == pytest.approx(MACHINE.link.bandwidth / 4.0)
        assert hit.link.latency == pytest.approx(MACHINE.link.latency * 4.0)
        assert hit.gpu == MACHINE.gpu  # other devices untouched
        assert sched.perturbed_machine(MACHINE, 0.5) is MACHINE

    def test_throttles_hit_their_device(self):
        sched = FaultSchedule([
            FaultEvent(FaultKind.GPU_THROTTLE, start=0.0, duration=1.0, magnitude=2.0),
            FaultEvent(FaultKind.CPU_THROTTLE, start=0.0, duration=1.0, magnitude=3.0),
        ])
        hit = sched.perturbed_machine(MACHINE, 0.5)
        assert hit.gpu.compute_flops == pytest.approx(MACHINE.gpu.compute_flops / 2.0)
        assert hit.gpu.memory_bandwidth == pytest.approx(
            MACHINE.gpu.memory_bandwidth / 2.0
        )
        assert hit.cpu.compute_flops == pytest.approx(MACHINE.cpu.compute_flops / 3.0)
        assert hit.link == MACHINE.link

    def test_concurrent_events_compose_multiplicatively(self):
        sched = FaultSchedule([
            pcie(start=0.0, duration=2.0, magnitude=2.0),
            pcie(start=1.0, duration=2.0, magnitude=3.0),
        ])
        assert sched.perturbed_machine(MACHINE, 1.5).link.bandwidth == pytest.approx(
            MACHINE.link.bandwidth / 6.0
        )

    def test_perturbed_machine_cached_per_epoch(self):
        sched = FaultSchedule([pcie(start=1.0, duration=2.0)])
        assert sched.perturbed_machine(MACHINE, 1.2) is sched.perturbed_machine(
            MACHINE, 2.8
        )

    def test_kv_budget_factor_composes(self):
        sched = FaultSchedule([
            FaultEvent(FaultKind.KV_SHRINK, start=0.0, duration=2.0, magnitude=0.5),
            FaultEvent(FaultKind.KV_SHRINK, start=1.0, duration=2.0, magnitude=0.5),
        ])
        assert sched.kv_budget_factor(0.5) == pytest.approx(0.5)
        assert sched.kv_budget_factor(1.5) == pytest.approx(0.25)
        assert sched.kv_budget_factor(3.0) == 1.0


class TestStalls:
    def test_stall_end_at_merges_chained_stalls(self):
        sched = FaultSchedule([
            FaultEvent(FaultKind.DEVICE_STALL, start=1.0, duration=1.0),
            FaultEvent(FaultKind.DEVICE_STALL, start=1.5, duration=1.0),
        ])
        assert sched.stall_end_at(1.2) == 2.5  # rides the overlap
        assert sched.stall_end_at(0.5) is None
        assert sched.stall_end_at(2.5) is None

    def test_next_stall_start_strictly_inside(self):
        stall = FaultEvent(FaultKind.DEVICE_STALL, start=2.0, duration=1.0)
        sched = FaultSchedule([stall])
        assert sched.next_stall_start(1.0, 3.0) is stall
        assert sched.next_stall_start(2.0, 3.0) is None  # start is not inside
        assert sched.next_stall_start(0.0, 2.0) is None  # window ends at start


class TestConstruction:
    def test_dict_round_trip(self):
        sched = FaultSchedule([
            pcie(),
            FaultEvent(FaultKind.DEVICE_STALL, start=5.0, duration=0.5),
            # Fleet kinds: JSON fault files may name a crash/recover pair.
            FaultEvent(FaultKind.REPLICA_CRASH, start=6.0, duration=2.0),
            FaultEvent(FaultKind.REPLICA_RECOVER, start=8.0, duration=1.0,
                       magnitude=3.0),
        ])
        again = FaultSchedule.from_dicts(sched.to_dicts())
        assert again.events == sched.events

    def test_from_dicts_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown fields"):
            FaultSchedule.from_dicts([{"kind": "stall", "start": 0, "duration": 1,
                                       "oops": True}])
        with pytest.raises(ValueError, match="event 0"):
            FaultSchedule.from_dicts([{"kind": "stall"}])

    def test_from_seed_deterministic(self):
        a = FaultSchedule.from_seed(7, horizon=60.0)
        b = FaultSchedule.from_seed(7, horizon=60.0)
        c = FaultSchedule.from_seed(8, horizon=60.0)
        assert a.events == b.events
        assert a.events != c.events
        assert all(0.0 <= e.start < 60.0 for e in a.events)

    def test_from_seed_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_seed(0, horizon=0.0)
        with pytest.raises(ValueError):
            FaultSchedule.from_seed(0, horizon=1.0, n_events=-1)
        with pytest.raises(ValueError):
            FaultSchedule.from_seed(0, horizon=1.0, max_magnitude=0.5)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule.from_seed(0, horizon=1.0, kinds=("bogus",))

    def test_events_sorted_and_immutable(self):
        sched = FaultSchedule([pcie(start=5.0), pcie(start=1.0)])
        assert [e.start for e in sched.events] == [1.0, 5.0]
        with pytest.raises(AttributeError):
            sched.events[0].start = 0.0  # frozen dataclass


class TestFleetFaultKinds:
    def crash(self, start=2.0, duration=3.0):
        return FaultEvent(FaultKind.REPLICA_CRASH, start=start, duration=duration)

    def test_crash_windows_and_ground_truth(self):
        sched = FaultSchedule([
            self.crash(start=2.0, duration=3.0),
            self.crash(start=10.0, duration=1.0),
            FaultEvent(FaultKind.LINK_DEGRADE, start=0.0, duration=20.0,
                       magnitude=8.0),
        ])
        assert sched.crash_windows() == ((2.0, 5.0), (10.0, 11.0))
        assert not sched.is_crashed(1.999)
        assert sched.is_crashed(2.0)
        assert not sched.is_crashed(5.0)  # half-open window
        assert sched.is_crashed(10.5)

    def test_link_degrade_factor_composes(self):
        sched = FaultSchedule([
            FaultEvent(FaultKind.LINK_DEGRADE, start=1.0, duration=4.0,
                       magnitude=8.0),
            FaultEvent(FaultKind.LINK_DEGRADE, start=3.0, duration=4.0,
                       magnitude=2.0),
        ])
        assert sched.link_degrade_factor(0.5) == 1.0
        assert sched.link_degrade_factor(2.0) == 8.0
        assert sched.link_degrade_factor(4.0) == 16.0  # overlap multiplies
        assert sched.link_degrade_factor(6.0) == 2.0

    def test_machine_view_translates_fleet_kinds(self):
        sched = FaultSchedule([
            self.crash(start=2.0, duration=3.0),
            FaultEvent(FaultKind.REPLICA_RECOVER, start=5.0, duration=1.5,
                       magnitude=2.0),
            FaultEvent(FaultKind.LINK_DEGRADE, start=0.0, duration=9.0,
                       magnitude=8.0),
            pcie(start=7.0),
        ])
        view = sched.machine_view()
        kinds = [e.kind for e in view.events]
        # crash -> stall, recover -> gpu throttle, link-degrade dropped,
        # machine kinds pass through.
        assert kinds == [FaultKind.DEVICE_STALL, FaultKind.GPU_THROTTLE,
                         FaultKind.PCIE_DEGRADE]
        stall = view.events[0]
        assert (stall.start, stall.end) == (2.0, 5.0)
        throttle = view.events[1]
        assert throttle.magnitude == 2.0
        assert (throttle.start, throttle.end) == (5.0, 6.5)

    def test_machine_view_is_identity_for_machine_schedules(self):
        sched = FaultSchedule([pcie()])
        assert sched.machine_view() is sched
