"""Tests for the scalar oracle's deviations / crossings / anomaly
frequency (eqs. 6-8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalLengthError

from tests.detection.oracles import (
    anomaly_frequency,
    crossing_energy,
    crossing_mask,
    deviations,
    onset_index,
)


def test_deviations_eq6():
    a = np.array([0.0, 1.0, 5.0])
    d = deviations(a, 2.0)
    assert np.allclose(d, [2.0, 1.0, 3.0])


def test_deviations_rejects_negative_dt():
    with pytest.raises(ConfigurationError):
        deviations(np.ones(3), -1.0)


def test_crossing_mask_strict():
    d = np.array([1.0, 2.0, 3.0])
    mask = crossing_mask(d, 2.0)
    assert mask.tolist() == [False, False, True]


def test_crossing_mask_rejects_negative_dmax():
    with pytest.raises(ConfigurationError):
        crossing_mask(np.ones(3), -0.5)


def test_anomaly_frequency_eq7():
    mask = np.array([True, False, True, True])
    assert anomaly_frequency(mask) == 0.75


def test_anomaly_frequency_empty_rejected():
    with pytest.raises(SignalLengthError):
        anomaly_frequency(np.array([], dtype=bool))


def test_crossing_energy_eq8():
    d = np.array([1.0, 5.0, 7.0])
    mask = np.array([False, True, True])
    assert crossing_energy(d, mask) == 6.0


def test_crossing_energy_no_crossings():
    assert crossing_energy(np.ones(4), np.zeros(4, dtype=bool)) == 0.0


def test_crossing_energy_shape_mismatch():
    with pytest.raises(ConfigurationError):
        crossing_energy(np.ones(3), np.ones(4, dtype=bool))


def test_onset_index_first_crossing():
    mask = np.array([False, False, True, False, True])
    assert onset_index(mask) == 2


def test_onset_index_none_when_quiet():
    assert onset_index(np.zeros(5, dtype=bool)) is None


def test_pipeline_on_synthetic_burst():
    """eqs. 6-8 end to end: a burst produces high af and energy."""
    rng = np.random.default_rng(0)
    ambient = np.abs(rng.normal(0, 1.0, 100))
    burst = ambient.copy()
    burst[40:80] += 8.0
    d_t, m_t = 0.8, 0.8  # plausible half-normal stats
    for window, expect_high in ((ambient, False), (burst, True)):
        d = deviations(window, d_t)
        mask = crossing_mask(d, 3.0 * m_t)
        af = anomaly_frequency(mask)
        if expect_high:
            assert af > 0.3
            assert crossing_energy(d, mask) > 5.0
        else:
            assert af < 0.2
