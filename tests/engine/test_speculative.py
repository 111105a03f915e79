"""Tests for the speculative-decoding extension."""

import pytest

from repro.engine.powerinfer import PowerInferEngine
from repro.engine.speculative import SpeculativeEngine, expected_accepted_tokens


@pytest.fixture(scope="module")
def draft_engine(mini_machine):
    """A small dense draft model fully GPU-resident on the mini machine."""
    from repro.core.pipeline import build_plan
    from repro.engine.baselines import LlamaCppEngine
    from repro.models.config import ModelConfig
    from repro.quant.formats import FP16

    draft_model = ModelConfig(
        name="mini-draft", n_layers=4, d_model=512, d_ffn=2048, n_heads=8,
        vocab_size=4096,
    )
    plan = build_plan(draft_model, mini_machine, FP16, policy="none")
    return LlamaCppEngine(plan)


@pytest.fixture(scope="module")
def spec_engine(mini_plan, draft_engine):
    return SpeculativeEngine(
        PowerInferEngine(mini_plan), draft_engine, draft_len=4, acceptance_rate=0.8
    )


class TestAcceptanceMath:
    def test_zero_acceptance_yields_one_token(self):
        assert expected_accepted_tokens(4, 0.0) == 1.0

    def test_geometric_series(self):
        # k=2, a=0.5 -> 1 + 0.5 + 0.25 = 1.75.
        assert expected_accepted_tokens(2, 0.5) == pytest.approx(1.75)

    def test_monotone_in_draft_len(self):
        vals = [expected_accepted_tokens(k, 0.8) for k in (1, 2, 4, 8)]
        assert vals == sorted(vals)

    def test_bounded_by_draft_len_plus_one(self):
        assert expected_accepted_tokens(4, 0.99) < 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_accepted_tokens(0, 0.5)
        with pytest.raises(ValueError):
            expected_accepted_tokens(4, 1.0)


class TestSpeculativeEngine:
    def test_speedup_over_plain_decoding(self, mini_plan, spec_engine):
        plain = PowerInferEngine(mini_plan).simulate_request(16, 64)
        spec = spec_engine.simulate_request(16, 64)
        # Section 9: speculative inference should further boost PowerInfer.
        assert spec.tokens_per_second > plain.tokens_per_second

    def test_verify_block_cheaper_than_sequential(self, mini_plan):
        # The economics behind speculation: verifying k+1 tokens at once
        # costs much less than k+1 sequential decodes (weights read once).
        engine = PowerInferEngine(mini_plan)
        block = engine.simulate_iteration(16, n_tokens=5).makespan
        sequential = 5 * engine.simulate_iteration(16, n_tokens=1).makespan
        assert block < 0.7 * sequential

    def test_result_fields(self, spec_engine):
        result = spec_engine.simulate_request(8, 32)
        assert result.engine == "speculative"
        assert result.prompt_time > 0
        assert result.decode_time > 0

    def test_low_acceptance_hurts(self, mini_plan, draft_engine):
        good = SpeculativeEngine(
            PowerInferEngine(mini_plan), draft_engine, draft_len=4, acceptance_rate=0.9
        ).simulate_request(16, 64)
        bad = SpeculativeEngine(
            PowerInferEngine(mini_plan), draft_engine, draft_len=4, acceptance_rate=0.1
        ).simulate_request(16, 64)
        assert good.tokens_per_second > bad.tokens_per_second

    def test_invalid_request(self, spec_engine):
        with pytest.raises(ValueError):
            spec_engine.simulate_request(0, 8)

    def test_decode_samples_below_one_rejected(self, spec_engine):
        with pytest.raises(ValueError, match="decode_samples must be >= 1"):
            spec_engine.simulate_request(16, 8, decode_samples=0)
