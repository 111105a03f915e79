"""Tests for deployment plans: accounting and expected activation splits."""

import numpy as np
import pytest

from repro.engine.plan import DeploymentPlan
from repro.hardware.memory import OutOfMemoryError
from repro.hardware.spec import PC_HIGH
from repro.models.config import ModelConfig
from repro.quant.formats import FP16


@pytest.fixture(scope="module")
def model():
    return ModelConfig(
        name="plan-test", n_layers=2, d_model=128, d_ffn=512, n_heads=4, vocab_size=512
    )


def make_plan(model, gpu_frac=0.5, predictor_bytes=None, machine=PC_HIGH):
    n = model.n_layers
    rng = np.random.default_rng(0)
    mlp_probs = [rng.random(model.d_ffn) * 0.3 for _ in range(n)]
    attn_probs = [rng.random(model.n_heads) for _ in range(n)]
    mlp_masks = []
    attn_masks = []
    for li in range(n):
        m = np.zeros(model.d_ffn, dtype=bool)
        m[: int(gpu_frac * model.d_ffn)] = True
        mlp_masks.append(m)
        a = np.zeros(model.n_heads, dtype=bool)
        a[: int(gpu_frac * model.n_heads)] = True
        attn_masks.append(a)
    return DeploymentPlan(
        model=model,
        machine=machine,
        dtype=FP16,
        mlp_probs=mlp_probs,
        attn_probs=attn_probs,
        mlp_gpu_masks=mlp_masks,
        attn_gpu_masks=attn_masks,
        predictor_bytes=predictor_bytes or [1000.0] * n,
    )


class TestValidation:
    def test_shape_checks(self, model):
        plan_kwargs = dict(
            model=model,
            machine=PC_HIGH,
            dtype=FP16,
            mlp_probs=[np.zeros(model.d_ffn)] * 2,
            attn_probs=[np.zeros(model.n_heads)] * 2,
            mlp_gpu_masks=[np.zeros(model.d_ffn, dtype=bool)] * 2,
            attn_gpu_masks=[np.zeros(model.n_heads, dtype=bool)] * 2,
        )
        DeploymentPlan(**plan_kwargs)  # baseline ok
        bad = dict(plan_kwargs)
        bad["mlp_probs"] = [np.zeros(model.d_ffn)]
        with pytest.raises(ValueError, match="per layer"):
            DeploymentPlan(**bad)
        bad = dict(plan_kwargs)
        bad["attn_probs"] = [np.zeros(3)] * 2
        with pytest.raises(ValueError, match="n_heads"):
            DeploymentPlan(**bad)

    def test_default_predictor_bytes(self, model):
        plan = make_plan(model)
        plan_no_pred = DeploymentPlan(
            model=model,
            machine=PC_HIGH,
            dtype=FP16,
            mlp_probs=plan.mlp_probs,
            attn_probs=plan.attn_probs,
            mlp_gpu_masks=plan.mlp_gpu_masks,
            attn_gpu_masks=plan.attn_gpu_masks,
        )
        assert plan_no_pred.predictor_bytes == [0.0, 0.0]


class TestMemoryAccounting:
    def test_gpu_cpu_weight_split(self, model):
        plan = make_plan(model, gpu_frac=0.5)
        total = FP16.nbytes(model.n_layers * model.params_per_layer)
        assert plan.gpu_weight_bytes + plan.cpu_weight_bytes == pytest.approx(total)
        assert plan.gpu_weight_bytes == pytest.approx(total / 2, rel=0.01)

    def test_memory_report_fits_pc_high(self, model):
        report = make_plan(model).memory_report()
        assert 0 < report.gpu_fraction < 1
        assert 0 < report.cpu_fraction < 1

    def test_report_raises_when_gpu_overflows(self, model):
        import dataclasses

        from repro.hardware.spec import PC_HIGH as base

        tiny_gpu = dataclasses.replace(
            base, gpu=base.gpu.with_memory_capacity(1000.0)
        )
        plan = make_plan(model, machine=tiny_gpu)
        with pytest.raises(OutOfMemoryError):
            plan.memory_report()


class TestActivationSplits:
    def test_expected_split_sums_to_total_expectation(self, model):
        plan = make_plan(model)
        g, c = plan.mlp_active_split(0, batch=1)
        assert g + c == pytest.approx(plan.mlp_probs[0].sum())

    def test_union_split_grows_with_batch(self, model):
        plan = make_plan(model)
        g1, c1 = plan.mlp_active_split(0, batch=1)
        g8, c8 = plan.mlp_active_split(0, batch=8)
        assert g8 > g1 and c8 > c1

    def test_sampled_split_near_expectation(self, model, rng):
        plan = make_plan(model)
        samples = [plan.sampled_mlp_split(0, rng) for _ in range(200)]
        mean_gpu = np.mean([s[0] for s in samples])
        expected_gpu, _ = plan.mlp_active_split(0)
        assert mean_gpu == pytest.approx(expected_gpu, rel=0.1)

    def test_attn_split(self, model, rng):
        plan = make_plan(model)
        g, c = plan.attn_active_split(0)
        assert g + c == pytest.approx(plan.attn_probs[0].sum())
        sg, sc = plan.sampled_attn_split(0, rng)
        assert 0 <= sg <= model.n_heads and 0 <= sc <= model.n_heads


class TestGpuLoadShare:
    def test_all_gpu_gives_one(self, model):
        plan = make_plan(model, gpu_frac=1.0)
        assert plan.gpu_neuron_load_share() == pytest.approx(1.0)

    def test_no_gpu_gives_zero(self, model):
        plan = make_plan(model, gpu_frac=0.0)
        assert plan.gpu_neuron_load_share() == 0.0

    def test_share_bounded(self, model):
        plan = make_plan(model, gpu_frac=0.5)
        assert 0.0 < plan.gpu_neuron_load_share() < 1.0


def reference_freed_masks(plan, nbytes):
    """The per-neuron loop ``with_gpu_bytes_freed`` used before it was
    vectorized: demote in (prob, layer, neuron) order."""
    neuron_bytes = plan.model.mlp_neuron_bytes(plan.dtype)
    candidates = []
    for li in range(plan.model.n_layers):
        for ni in np.flatnonzero(plan.mlp_gpu_masks[li]):
            candidates.append((float(plan.mlp_probs[li][ni]), li, int(ni)))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    n_demote = min(len(candidates), int(np.ceil(nbytes / neuron_bytes)))
    masks = [mask.copy() for mask in plan.mlp_gpu_masks]
    for _, li, ni in candidates[:n_demote]:
        masks[li][ni] = False
    return masks


class TestGpuBytesFreed:
    @pytest.fixture
    def tied_plan(self, model):
        # Coarse probabilities tie within and across layers, so the
        # (layer, neuron) tie-break decides which neurons go first.
        plan = make_plan(model, gpu_frac=0.75)
        plan.mlp_probs = [np.round(p, 2) for p in plan.mlp_probs]
        return plan

    def test_zero_bytes_returns_self(self, tied_plan):
        assert tied_plan.with_gpu_bytes_freed(0) is tied_plan

    @pytest.mark.parametrize("neurons", [1, 1.5, 157.3, 10_000])
    def test_masks_match_reference_loop(self, tied_plan, neurons):
        nbytes = neurons * tied_plan.model.mlp_neuron_bytes(tied_plan.dtype)
        freed = tied_plan.with_gpu_bytes_freed(nbytes)
        expected = reference_freed_masks(tied_plan, nbytes)
        assert len(freed.mlp_gpu_masks) == len(expected)
        for got, want in zip(freed.mlp_gpu_masks, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert freed.attn_gpu_masks is tied_plan.attn_gpu_masks

    def test_more_than_all_gpu_bytes_demotes_every_mlp_neuron(self, tied_plan):
        freed = tied_plan.with_gpu_bytes_freed(2 * tied_plan.gpu_weight_bytes)
        assert not any(mask.any() for mask in freed.mlp_gpu_masks)
        assert all(mask.any() for mask in tied_plan.mlp_gpu_masks)
