"""Tests for the PowerInfer performance engine (DAG structure & timing)."""

import numpy as np
import pytest

from repro.engine.powerinfer import PowerInferEngine


@pytest.fixture(scope="module")
def engine(mini_plan):
    return PowerInferEngine(mini_plan)


class TestDagStructure:
    def test_tasks_cover_all_layers(self, engine, mini_plan):
        tasks = engine.iteration_tasks(engine.machine, ctx_len=16, n_tokens=1, batch=1)
        names = {t.name for t in tasks}
        for li in range(mini_plan.model.n_layers):
            assert f"L{li}.pred_mlp" in names
            assert f"L{li}.mlp_gpu" in names
            assert f"L{li}.attn_merge" in names
        assert "lm_head" in names

    def test_dag_is_acyclic_and_complete(self, engine):
        # The simulator itself validates the DAG; it must not raise.
        result = engine.simulate_iteration(ctx_len=16, n_tokens=1)
        assert result.makespan > 0

    def test_selective_sync_elides_cpu_path(self, mini_plan):
        # Force all neurons onto the GPU: no mlp_cpu/mlp_xfer tasks.
        import copy

        plan = copy.copy(mini_plan)
        plan.mlp_gpu_masks = [np.ones_like(m) for m in mini_plan.mlp_gpu_masks]
        plan.attn_gpu_masks = [np.ones_like(m) for m in mini_plan.attn_gpu_masks]
        engine = PowerInferEngine(plan)
        names = {t.name for t in engine.iteration_tasks(engine.machine, 0, 1, 1)}
        assert not any(".mlp_cpu" in n or ".mlp_xfer" in n for n in names)

    def test_cpu_tasks_present_with_split(self, engine):
        names = {t.name for t in engine.iteration_tasks(engine.machine, 0, 1, 1)}
        assert any(".mlp_cpu" in n for n in names)

    def test_predictors_run_on_gpu(self, engine):
        tasks = engine.iteration_tasks(engine.machine, 0, 1, 1)
        for task in tasks:
            if "pred" in task.name:
                assert task.resource == "gpu"

    def test_transfers_on_pcie(self, engine):
        tasks = engine.iteration_tasks(engine.machine, 0, 1, 1)
        for task in tasks:
            if task.tag == "transfer":
                assert task.resource == "pcie"


class TestTiming:
    def test_more_tokens_cost_more(self, engine):
        one = engine.simulate_iteration(0, n_tokens=1).makespan
        many = engine.simulate_iteration(0, n_tokens=32).makespan
        assert many > one

    def test_longer_context_costs_more(self, engine):
        short = engine.simulate_iteration(ctx_len=8, n_tokens=1).makespan
        long = engine.simulate_iteration(ctx_len=512, n_tokens=1).makespan
        assert long > short

    def test_batching_denser_than_linear_scaling(self, engine):
        # Union activation: batch-8 iteration costs less than 8x batch-1
        # (weights for shared neurons read once).
        single = engine.simulate_iteration(0, 1, batch=1).makespan
        batched = engine.simulate_iteration(0, 1, batch=8).makespan
        assert batched < 8 * single

    def test_sampled_mode_is_deterministic_per_seed(self, engine):
        a = engine.simulate_iteration(0, 1, rng=np.random.default_rng(5)).makespan
        b = engine.simulate_iteration(0, 1, rng=np.random.default_rng(5)).makespan
        assert a == b

    def test_expected_mode_is_deterministic(self, engine):
        assert (
            engine.simulate_iteration(0, 1).makespan
            == engine.simulate_iteration(0, 1).makespan
        )


class TestRequestSimulation:
    def test_request_result_fields(self, engine):
        result = engine.simulate_request(input_len=8, output_len=16)
        assert result.prompt_time > 0
        assert result.decode_time > 0
        assert result.tokens_per_second > 0
        assert result.engine == "powerinfer"
        assert 0 <= result.gpu_load_share <= 1
        assert result.breakdown

    def test_longer_outputs_take_longer(self, engine):
        short = engine.simulate_request(8, 8)
        long = engine.simulate_request(8, 64)
        assert long.total_time > short.total_time

    def test_tokens_per_second_is_end_to_end(self, engine):
        result = engine.simulate_request(8, 16, batch=2)
        assert result.tokens_per_second == pytest.approx(
            16 * 2 / result.total_time
        )

    def test_invalid_request_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.simulate_request(0, 8)
        with pytest.raises(ValueError):
            engine.simulate_request(8, 0)

    def test_breakdown_contains_expected_tags(self, engine):
        result = engine.simulate_request(8, 8)
        for tag in ("predictor", "gpu-neuron", "merge", "lmhead"):
            assert tag in result.breakdown, result.breakdown
