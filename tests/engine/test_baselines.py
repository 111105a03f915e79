"""Tests for the baseline engines (llama.cpp / FlexGen / DejaVu-UM / vLLM / +PO)."""

import dataclasses

import pytest

from repro.engine.baselines import (
    DejaVuUmEngine,
    FlexGenEngine,
    LayerwiseSparseEngine,
    LlamaCppEngine,
    VllmEngine,
)
from repro.engine.powerinfer import PowerInferEngine
from repro.hardware.memory import OutOfMemoryError
from repro.hardware.spec import GIB


class TestLayerSplit:
    def test_gpu_layer_count_bounded(self, mini_plan_none):
        engine = LlamaCppEngine(mini_plan_none)
        n = engine.gpu_layer_count()
        assert 0 <= n <= mini_plan_none.model.n_layers

    def test_bigger_gpu_hosts_more_layers(self, mini_model, mini_machine):
        from repro.core.pipeline import build_plan
        from repro.quant.formats import FP16

        small = LlamaCppEngine(
            build_plan(mini_model, mini_machine, FP16, policy="none")
        )
        big_machine = dataclasses.replace(
            mini_machine,
            gpu=mini_machine.gpu.with_memory_capacity(0.75 * GIB),
        )
        big = LlamaCppEngine(build_plan(mini_model, big_machine, FP16, policy="none"))
        assert big.gpu_layer_count() >= small.gpu_layer_count()

    def test_gpu_load_share_equals_layer_fraction(self, mini_plan_none):
        engine = LlamaCppEngine(mini_plan_none)
        assert engine.gpu_load_share() == pytest.approx(
            engine.gpu_layer_count() / mini_plan_none.model.n_layers
        )


class TestLlamaCpp:
    def test_dense_dag_has_one_op_per_layer(self, mini_plan_none):
        engine = LlamaCppEngine(mini_plan_none)
        tasks = engine.iteration_tasks(engine.machine, 0, 1, 1)
        layer_ops = [t for t in tasks if t.name.startswith("L")]
        assert len(layer_ops) == mini_plan_none.model.n_layers

    def test_single_hidden_transfer(self, mini_plan_none):
        engine = LlamaCppEngine(mini_plan_none)
        if 0 < engine.gpu_layer_count() < mini_plan_none.model.n_layers:
            tasks = engine.iteration_tasks(engine.machine, 0, 1, 1)
            transfers = [t for t in tasks if t.tag == "transfer"]
            assert len(transfers) == 1

    def test_request_runs(self, mini_plan_none):
        result = LlamaCppEngine(mini_plan_none).simulate_request(8, 16)
        assert result.tokens_per_second > 0


class TestFlexGen:
    def test_streams_nonresident_layers(self, mini_plan_none):
        engine = FlexGenEngine(mini_plan_none)
        tasks = engine.iteration_tasks(engine.machine, 0, 1, 1)
        streams = [t for t in tasks if t.tag == "transfer"]
        expected = mini_plan_none.model.n_layers - engine.gpu_layer_count()
        assert len(streams) == expected

    def test_transfer_dominated_at_batch_1(self, mini_plan_none):
        result = FlexGenEngine(mini_plan_none).simulate_iteration(0, 1, 1)
        tags = result.time_by_tag()
        assert tags.get("transfer", 0) > 0.5 * sum(tags.values())

    def test_all_compute_on_gpu(self, mini_plan_none):
        assert FlexGenEngine(mini_plan_none).gpu_load_share() == 1.0


class TestDejaVuUm:
    def test_um_fetches_only_active_bytes(self, mini_plan_none):
        engine = DejaVuUmEngine(mini_plan_none)
        tasks = engine.iteration_tasks(engine.machine, 0, 1, 1)
        fetches = [t for t in tasks if "um_fetch" in t.name]
        assert fetches, "non-resident layers must fetch via UM"
        # A UM fetch of active neurons must be far cheaper in bytes than a
        # FlexGen full-layer stream, yet slower per byte: compare durations
        # indirectly by checking it is nonzero but less than streaming the
        # full layer over DMA at UM's penalty would be.
        assert all(t.duration > 0 for t in fetches)

    def test_slower_than_llamacpp_at_batch1(self, mini_plan_none):
        # Figure 4: DejaVu-UM suffers UM transfer latency.
        dv = DejaVuUmEngine(mini_plan_none).simulate_request(8, 16)
        lc = LlamaCppEngine(mini_plan_none).simulate_request(8, 16)
        assert dv.tokens_per_second < lc.tokens_per_second


class TestVllm:
    def test_requires_model_to_fit(self, mini_plan_none, mini_machine, mini_model):
        # The mini machine GPU (0.25 GiB) cannot hold the ~800 MB mini model.
        with pytest.raises(OutOfMemoryError):
            VllmEngine(mini_plan_none)

    def test_runs_on_big_gpu(self, mini_model):
        from repro.core.pipeline import build_plan
        from repro.hardware.spec import A100_SERVER
        from repro.quant.formats import FP16

        plan = build_plan(mini_model, A100_SERVER, FP16, policy="none")
        result = VllmEngine(plan).simulate_request(8, 16)
        assert result.tokens_per_second > 0
        assert VllmEngine(plan).gpu_load_share() == 1.0


class TestLayerwiseSparse:
    def test_po_faster_than_llamacpp(self, mini_plan_none):
        # "+PO" skips inactive neurons: must beat dense llama.cpp.
        po = LayerwiseSparseEngine(mini_plan_none).simulate_request(8, 16)
        lc = LlamaCppEngine(mini_plan_none).simulate_request(8, 16)
        assert po.tokens_per_second > lc.tokens_per_second

    def test_po_slower_than_full_powerinfer(self, mini_plan, mini_plan_none):
        po = LayerwiseSparseEngine(mini_plan_none).simulate_request(8, 16)
        pi = PowerInferEngine(mini_plan).simulate_request(8, 16)
        assert pi.tokens_per_second > po.tokens_per_second

    def test_predictors_run_on_each_layers_device(self, mini_plan_none):
        engine = LayerwiseSparseEngine(mini_plan_none)
        tasks = {t.name: t for t in engine.iteration_tasks(engine.machine, 0, 1, 1)}
        n_gpu = engine.gpu_layer_count()
        n_cpu = mini_plan_none.model.n_layers - n_gpu
        if n_cpu:
            assert tasks["L0.pred"].resource == "cpu"
        if n_gpu:
            last = mini_plan_none.model.n_layers - 1
            assert tasks[f"L{last}.pred"].resource == "gpu"
