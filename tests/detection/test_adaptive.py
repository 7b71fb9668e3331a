"""Tests for the scalar oracle's adaptive baseline (eqs. 4-5)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalLengthError

from tests.detection.oracles import AdaptiveBaseline, window_stats


class TestWindowStats:
    def test_constant_window(self):
        m, d = window_stats(np.full(100, 3.0))
        assert m == 3.0
        assert d == 0.0

    def test_known_values(self):
        m, d = window_stats(np.array([1.0, 3.0]))
        assert m == 2.0
        assert d == 1.0  # population std

    def test_population_not_sample_std(self):
        x = np.array([0.0, 2.0, 4.0])
        _, d = window_stats(x)
        assert d == pytest.approx(np.sqrt(8.0 / 3.0))

    def test_empty_rejected(self):
        with pytest.raises(SignalLengthError):
            window_stats(np.array([]))


class TestAdaptiveBaseline:
    def test_unseeded_access_rejected(self):
        b = AdaptiveBaseline()
        assert not b.seeded
        with pytest.raises(ConfigurationError):
            _ = b.mean
        with pytest.raises(ConfigurationError):
            b.update(np.ones(10))

    def test_seed_sets_statistics(self):
        b = AdaptiveBaseline()
        b.seed(np.array([1.0, 3.0]))
        assert b.mean == 2.0
        assert b.std == 1.0

    def test_update_follows_eq5(self):
        b = AdaptiveBaseline(beta1=0.9, beta2=0.8)
        b.seed(np.full(10, 2.0))
        m, d = b.update(np.array([4.0, 4.0]))
        assert m == pytest.approx(0.9 * 2.0 + 0.1 * 4.0)
        assert d == pytest.approx(0.8 * 0.0 + 0.2 * 0.0)

    def test_update_counts(self):
        b = AdaptiveBaseline()
        b.seed(np.ones(5))
        b.update(np.ones(5))
        b.update(np.ones(5))
        assert b.n_updates == 2

    def test_reseed_resets_count(self):
        b = AdaptiveBaseline()
        b.seed(np.ones(5))
        b.update(np.ones(5))
        b.seed(np.ones(5))
        assert b.n_updates == 0

    def test_converges_to_new_level(self):
        b = AdaptiveBaseline(beta1=0.9, beta2=0.9)
        b.seed(np.full(10, 1.0))
        for _ in range(200):
            b.update(np.full(10, 5.0))
        assert b.mean == pytest.approx(5.0, rel=1e-6)

    def test_paper_beta_time_constant(self):
        # With beta = 0.99, ~69 updates halve the distance to a new level.
        b = AdaptiveBaseline()
        b.seed(np.full(10, 0.0))
        n = 0
        while b.mean < 0.5 and n < 1000:
            b.update(np.full(10, 1.0))
            n += 1
        assert n == pytest.approx(math.log(0.5) / math.log(0.99), abs=2)

    def test_frozen_baseline_beta_one(self):
        b = AdaptiveBaseline(beta1=1.0, beta2=1.0)
        b.seed(np.full(10, 2.0))
        b.update(np.full(10, 100.0))
        assert b.mean == 2.0

    def test_threshold_is_m_times_mean(self):
        b = AdaptiveBaseline()
        b.seed(np.full(10, 3.0))
        assert b.threshold(2.0) == 6.0

    def test_threshold_rejects_bad_m(self):
        b = AdaptiveBaseline()
        b.seed(np.ones(5))
        with pytest.raises(ConfigurationError):
            b.threshold(0.0)

    def test_invalid_betas(self):
        with pytest.raises(ConfigurationError):
            AdaptiveBaseline(beta1=-0.1)
        with pytest.raises(ConfigurationError):
            AdaptiveBaseline(beta2=1.1)

    def test_constructor_seeding(self):
        b = AdaptiveBaseline(initial_mean=2.0, initial_std=0.5)
        assert b.seeded
        assert b.mean == 2.0
        assert b.std == 0.5
