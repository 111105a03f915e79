"""Tests for neuron batching."""

import numpy as np
import pytest

from repro.solver.batching import batch_neurons


class TestBatching:
    def test_every_neuron_in_exactly_one_batch(self, rng):
        impacts = rng.random(300)
        batches = batch_neurons(impacts, neuron_bytes=10.0, batch_size=64)
        all_idx = np.concatenate([b.neuron_indices for b in batches])
        assert sorted(all_idx.tolist()) == list(range(300))

    def test_batches_group_similar_impacts(self, rng):
        impacts = rng.random(256)
        batches = batch_neurons(impacts, 10.0, batch_size=64)
        # Batches ordered by descending impact: every member of batch k has
        # impact >= every member of batch k+1.
        for a, b in zip(batches, batches[1:]):
            assert impacts[a.neuron_indices].min() >= impacts[b.neuron_indices].max() - 1e-12

    def test_batch_sizes(self, rng):
        batches = batch_neurons(rng.random(130), 10.0, batch_size=64)
        assert [b.size for b in batches] == [64, 64, 2]

    def test_impact_and_bytes_sums(self, rng):
        impacts = rng.random(100)
        batches = batch_neurons(impacts, neuron_bytes=7.0, batch_size=32)
        assert sum(b.impact for b in batches) == pytest.approx(impacts.sum())
        assert sum(b.nbytes for b in batches) == pytest.approx(100 * 7.0)

    def test_paper_batch_size_default(self, rng):
        # Section 6.3.3: 64 neurons per batch shrinks millions to tens of
        # thousands of variables.
        impacts = rng.random(28672)
        batches = batch_neurons(impacts, 10.0)
        assert len(batches) == 28672 // 64

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            batch_neurons(rng.random(10), 10.0, batch_size=0)
        with pytest.raises(ValueError):
            batch_neurons(rng.random(10), 0.0)
        with pytest.raises(ValueError):
            batch_neurons(np.array([]), 1.0)
