"""Tests for power-law activation synthesis and CDF utilities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import profiles
from repro.core.profiles import synthesize_model_probs
from repro.models.config import Activation, tiny_config
from repro.sparsity.powerlaw import (
    _scale_for_mean,
    activation_cdf,
    fit_zipf_alpha,
    neuron_fraction_for_mass,
    synthesize_activation_probs,
    top_share,
    zipf_weights,
)


def reference_scale_to_mean(weights, rate):
    """The doubling plus 80-step bisection the closed-form scale replaced."""
    lo, hi = 0.0, rate / max(float(weights.mean()), 1e-300)
    while float(np.minimum(hi * weights, 1.0).mean()) < rate:
        hi *= 2.0
        if hi > 1e30:
            raise ValueError("cannot reach the requested activation rate")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(np.minimum(mid * weights, 1.0).mean()) < rate:
            lo = mid
        else:
            hi = mid
    return np.minimum(hi * weights, 1.0)


def reference_synthesize(
    n_neurons,
    rng,
    hot_fraction=0.26,
    hot_mass=0.80,
    mean_activation_rate=0.10,
    shuffle=True,
    jitter=0.05,
):
    """``synthesize_activation_probs`` as it was before the closed-form scale
    (argument validation left out)."""
    noise = np.exp(rng.normal(0.0, jitter, size=n_neurons)) if jitter > 0 else 1.0

    def share_for_alpha(alpha):
        probs = reference_scale_to_mean(
            zipf_weights(n_neurons, alpha) * noise, mean_activation_rate
        )
        return top_share(probs, hot_fraction), probs

    lo, hi = 0.0, 12.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        share, probs = share_for_alpha(mid)
        if abs(share - hot_mass) < 1e-4:
            break
        if share < hot_mass:
            lo = mid
        else:
            hi = mid
    probs = np.clip(probs, 1e-6, 1.0)
    if shuffle:
        rng.shuffle(probs)
    return probs


def scaled(weights, rate):
    return np.minimum(_scale_for_mean(weights, np.sort(weights), rate) * weights, 1.0)


class TestZipf:
    def test_alpha_zero_is_uniform(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 1.0)

    def test_weights_decrease(self):
        w = zipf_weights(100, 1.0)
        assert (np.diff(w) < 0).all()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -0.5)


class TestTopShare:
    def test_uniform_share_equals_fraction(self):
        assert top_share(np.ones(100), 0.3) == pytest.approx(0.3)

    def test_point_mass(self):
        w = np.zeros(100)
        w[0] = 1.0
        assert top_share(w, 0.01) == pytest.approx(1.0)

    def test_monotone_in_alpha(self):
        shares = [top_share(zipf_weights(1000, a), 0.2) for a in (0.0, 0.5, 1.0, 2.0)]
        assert shares == sorted(shares)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            top_share(np.ones(10), 0.0)


class TestFitAlpha:
    def test_recovers_target_share(self):
        alpha = fit_zipf_alpha(2000, hot_fraction=0.26, hot_mass=0.80)
        assert top_share(zipf_weights(2000, alpha), 0.26) == pytest.approx(0.80, abs=0.01)

    def test_rejects_impossible_target(self):
        with pytest.raises(ValueError, match="proportional"):
            fit_zipf_alpha(100, hot_fraction=0.5, hot_mass=0.3)

    @given(
        hot_fraction=st.floats(0.05, 0.6),
        extra=st.floats(0.05, 0.35),
    )
    @settings(max_examples=25, deadline=None)
    def test_fit_is_accurate_across_targets(self, hot_fraction, extra):
        hot_mass = min(hot_fraction + extra, 0.95)
        alpha = fit_zipf_alpha(1000, hot_fraction, hot_mass)
        share = top_share(zipf_weights(1000, alpha), hot_fraction)
        assert share == pytest.approx(hot_mass, abs=0.03)


class TestClosedFormScale:
    """The closed-form scale returns exactly what the bisection returned."""

    @given(
        n=st.integers(1, 4096),
        alpha=st.floats(0.0, 4.0),
        jitter=st.sampled_from([0.0, 0.05, 0.3]),
        rate=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1000, alpha=0.0, jitter=0.0, rate=0.1, seed=0)  # all weights equal
    @example(n=1, alpha=1.0, jitter=0.05, rate=0.3, seed=0)
    @example(n=1, alpha=0.0, jitter=0.0, rate=0.5, seed=0)
    @example(n=512, alpha=0.3, jitter=0.0, rate=0.99, seed=0)  # 76% of entries clip
    @example(n=4096, alpha=1.0, jitter=0.3, rate=0.9, seed=1)  # 64% of entries clip
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_bisection(self, n, alpha, jitter, rate, seed):
        noise = (
            np.exp(np.random.default_rng(seed).normal(0.0, jitter, size=n))
            if jitter > 0
            else 1.0
        )
        weights = zipf_weights(n, alpha) * noise
        assert np.array_equal(scaled(weights, rate), reference_scale_to_mean(weights, rate))

    def test_model_profiles_match_reference_synthesis(self, monkeypatch):
        for activation in (Activation.RELU, Activation.REGLU):
            cfg = tiny_config(n_layers=3, d_ffn=512, n_heads=8, activation=activation)
            mlp, attn = synthesize_model_probs(cfg, np.random.default_rng(5))
            with monkeypatch.context() as patch:
                patch.setattr(profiles, "synthesize_activation_probs", reference_synthesize)
                ref_mlp, ref_attn = synthesize_model_probs(cfg, np.random.default_rng(5))
            assert len(mlp) == len(ref_mlp) == len(attn) == len(ref_attn) == 3
            for new, ref in zip(mlp + attn, ref_mlp + ref_attn):
                assert np.array_equal(new, ref)

    @pytest.mark.parametrize("rate", [1.0 + 1e-9, 1.5, 10.0])
    def test_rate_above_one_raises(self, rate):
        weights = zipf_weights(100, 1.0)
        with pytest.raises(ValueError, match="cannot reach"):
            _scale_for_mean(weights, np.sort(weights), rate)

    def test_upward_search_stops_at_the_largest_float(self):
        # One ulp above 1 slips past the closed-form check on these weights,
        # so the search itself has to give up before +inf and the NaN
        # bit patterns beyond it.
        weights = zipf_weights(2, 0.5)
        with pytest.raises(ValueError, match="cannot reach"):
            _scale_for_mean(weights, np.sort(weights), np.nextafter(1.0, 2.0))

    def test_zero_weights_cannot_reach_rate(self):
        weights = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="cannot reach"):
            _scale_for_mean(weights, np.sort(weights), 0.5)


class TestSynthesize:
    def test_paper_calibration_points(self, rng):
        # Figure 5a anchors: (26%, 80%) for OPT and (43%, 80%) for LLaMA.
        for hf, rate in ((0.26, 0.10), (0.43, 0.25)):
            probs = synthesize_activation_probs(
                4096, rng, hot_fraction=hf, hot_mass=0.80, mean_activation_rate=rate
            )
            assert probs.mean() == pytest.approx(rate, abs=0.005)
            assert neuron_fraction_for_mass(probs, 0.80) == pytest.approx(hf, abs=0.02)

    def test_probs_are_valid_probabilities(self, rng):
        probs = synthesize_activation_probs(1000, rng)
        assert (probs > 0).all() and (probs <= 1).all()

    def test_shuffle_randomizes_order(self, rng):
        probs = synthesize_activation_probs(1000, rng, shuffle=True)
        # A sorted array would have monotone diffs; shuffled must not.
        assert not (np.diff(probs) <= 0).all()

    def test_no_shuffle_sorted_descending(self, rng):
        probs = synthesize_activation_probs(1000, rng, shuffle=False, jitter=0.0)
        assert (np.diff(probs) <= 1e-12).all()

    def test_infeasible_rate_rejected(self, rng):
        with pytest.raises(ValueError, match="infeasible"):
            synthesize_activation_probs(
                1000, rng, hot_fraction=0.26, hot_mass=0.80, mean_activation_rate=0.5
            )

    def test_deterministic_given_seed(self):
        a = synthesize_activation_probs(500, np.random.default_rng(3))
        b = synthesize_activation_probs(500, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestCdf:
    def test_cdf_monotone_and_bounded(self, rng):
        freqs = rng.random(500)
        proportion, cum = activation_cdf(freqs)
        assert (np.diff(cum) >= -1e-12).all()
        assert cum[-1] == pytest.approx(1.0)
        assert proportion[-1] == pytest.approx(1.0)

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            activation_cdf(np.zeros(10))

    def test_neuron_fraction_for_full_mass(self, rng):
        freqs = rng.random(100)
        assert neuron_fraction_for_mass(freqs, 1.0) == pytest.approx(1.0)

    def test_neuron_fraction_point_mass(self):
        freqs = np.zeros(100)
        freqs[42] = 1.0
        assert neuron_fraction_for_mass(freqs, 0.9) == pytest.approx(0.01)

    @given(mass=st.floats(0.1, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_fraction_never_exceeds_mass_requirement_inverse(self, mass):
        rng = np.random.default_rng(0)
        freqs = rng.random(200)
        frac = neuron_fraction_for_mass(freqs, mass)
        # Verify the smallest-set property: the chosen fraction does cover
        # the requested mass.
        _, cum = activation_cdf(freqs)
        k = int(round(frac * 200))
        assert cum[k - 1] >= mass - 1e-9
