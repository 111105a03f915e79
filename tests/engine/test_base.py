"""Tests for PerfEngine's request-assembly logic via a stub engine."""

import numpy as np
import pytest

from repro.engine.base import PerfEngine, op_task
from repro.hardware.costmodel import CostModel, OpWork
from repro.hardware.events import SimTask
from repro.hardware.faults import FaultEvent, FaultKind, FaultSchedule


class StubEngine(PerfEngine):
    """Iteration cost = base + slope * ctx_len (linear in context)."""

    name = "stub"

    def __init__(self, plan, base=0.010, slope=1e-5):
        super().__init__(plan)
        self.base = base
        self.slope = slope
        self.calls: list[tuple[int, int, int]] = []

    def iteration_tasks(self, machine, ctx_len, n_tokens, batch, rng=None):
        self.calls.append((ctx_len, n_tokens, batch))
        return [
            SimTask("op", "gpu", self.base + self.slope * ctx_len, tag="stub")
        ]


class SpyEngine(PerfEngine):
    """Prices one GPU op on the machine it is handed, checking re-entrancy."""

    name = "spy"

    def __init__(self, plan):
        super().__init__(plan)
        self.seen: list = []

    def iteration_tasks(self, machine, ctx_len, n_tokens, batch, rng=None):
        # Pricing never swaps the engine's own machine.
        assert self.machine is self.plan.machine
        self.seen.append(machine)
        return [op_task("op", "gpu", machine.gpu, OpWork(bytes_read=1e6))]


@pytest.fixture
def stub(mini_plan_none):
    return StubEngine(mini_plan_none)


class TestRequestAssembly:
    def test_decode_time_integrates_linear_context(self, stub):
        # With cost linear in ctx, sampled integration is exact: mean cost
        # at evenly spaced context points x output length.
        result = stub.simulate_request(input_len=10, output_len=100, decode_samples=4)
        expected_mean = stub.base + stub.slope * np.mean(
            np.linspace(10, 109, 4).astype(int)
        )
        assert result.decode_time == pytest.approx(expected_mean * 100, rel=1e-6)

    def test_prompt_phase_runs_once_at_ctx_zero(self, stub):
        stub.simulate_request(input_len=7, output_len=3)
        prompt_calls = [c for c in stub.calls if c[1] == 7]
        assert prompt_calls == [(0, 7, 1)]

    def test_decode_samples_bounded_by_output(self, stub):
        stub.simulate_request(input_len=4, output_len=2, decode_samples=10)
        decode_calls = [c for c in stub.calls if c[1] == 1]
        assert len(decode_calls) == 2

    def test_breakdown_scales_with_output(self, stub):
        short = stub.simulate_request(4, 10)
        stub.calls.clear()
        long = stub.simulate_request(4, 100)
        assert long.breakdown["stub"] > short.breakdown["stub"] * 5

    def test_invalid_args(self, stub):
        for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                stub.simulate_request(*bad)

    @pytest.mark.parametrize("samples", [0, -2])
    def test_decode_samples_below_one_rejected(self, stub, samples):
        with pytest.raises(ValueError, match="decode_samples must be >= 1"):
            stub.simulate_request(16, 8, decode_samples=samples)


class TestMachineArgument:
    def test_pricing_leaves_the_engine_machine_alone(self, mini_plan_none):
        spy = SpyEngine(mini_plan_none)
        faults = FaultSchedule(
            [FaultEvent(FaultKind.GPU_THROTTLE, start=0.0, duration=10.0, magnitude=2.0)]
        )
        perturbed = faults.perturbed_machine(spy.machine, 1.0)
        assert perturbed is not spy.machine
        slow = spy.simulate_iteration(64, 1, machine=perturbed)
        fast = spy.simulate_iteration(64, 1)
        assert spy.seen == [perturbed, spy.plan.machine]
        assert spy.machine is spy.plan.machine
        assert slow.makespan > fast.makespan


class TestSharedCostHelpers:
    def test_activation_bytes(self, stub, mini_plan_none):
        d = mini_plan_none.model.d_model
        assert stub._activation_bytes(3) == 3 * d * 4.0

    def test_kv_read_bytes_linear_in_context(self, stub):
        assert stub._kv_read_bytes(200, 1, 1) > stub._kv_read_bytes(100, 1, 1)

    def test_kv_prompt_averaging(self, stub):
        # A prompt of n tokens at ctx 0 reads ~n/2 positions per token.
        per_token = stub._kv_read_bytes(0, 100, 1) / 100
        mid_ctx = stub._kv_read_bytes(50, 1, 1)
        assert per_token == pytest.approx(mid_ctx, rel=0.02)

    def test_kv_flops_match_bytes_shape(self, stub):
        assert stub._kv_flops(10, 2, 3) > 0


class TestCostModelTransferParity:
    def test_transfer_time_uses_link_effective_bandwidth(self, mini_plan_none):
        link = mini_plan_none.machine.link
        t = CostModel.transfer_time(1e9, link)
        assert t == pytest.approx(link.latency + 1e9 / link.effective_bandwidth)

    def test_opwork_zero_guard(self, mini_plan_none):
        assert CostModel.op_time(OpWork(), mini_plan_none.machine.gpu) >= 0
