"""Tests for PowerInferEngine configuration flags."""

import copy

import numpy as np
import pytest

from repro.engine.powerinfer import PowerInferEngine


class TestSelectiveSyncFlag:
    @pytest.fixture(scope="class")
    def all_gpu_plan(self, mini_plan):
        plan = copy.copy(mini_plan)
        plan.mlp_gpu_masks = [np.ones_like(m) for m in mini_plan.mlp_gpu_masks]
        plan.attn_gpu_masks = [np.ones_like(m) for m in mini_plan.attn_gpu_masks]
        return plan

    def test_selective_sync_elides_transfers_when_gpu_resident(self, all_gpu_plan):
        on = PowerInferEngine(all_gpu_plan, selective_sync=True)
        names_on = {t.name for t in on.iteration_tasks(on.machine, 0, 1, 1)}
        assert not any(".mlp_xfer" in n for n in names_on)

    def test_disabled_selective_sync_always_pays(self, all_gpu_plan):
        off = PowerInferEngine(all_gpu_plan, selective_sync=False)
        names_off = {t.name for t in off.iteration_tasks(off.machine, 0, 1, 1)}
        assert any(".mlp_xfer" in n for n in names_off)
        assert any(".mlp_cpu" in n for n in names_off)

    def test_selective_sync_is_never_slower(self, all_gpu_plan):
        on = PowerInferEngine(all_gpu_plan, selective_sync=True)
        off = PowerInferEngine(all_gpu_plan, selective_sync=False)
        assert (
            on.simulate_iteration(8, 1).makespan
            <= off.simulate_iteration(8, 1).makespan
        )

    def test_flag_has_no_effect_when_cpu_always_busy(self, mini_plan):
        # The split mini plan has activated CPU neurons in (virtually)
        # every layer under expectation mode: both variants sync anyway.
        on = PowerInferEngine(mini_plan, selective_sync=True)
        off = PowerInferEngine(mini_plan, selective_sync=False)
        assert on.simulate_iteration(8, 1).makespan == pytest.approx(
            off.simulate_iteration(8, 1).makespan, rel=1e-9
        )
