"""Property-based tests for the scalar oracle's detection primitives
(eqs. 4-8)."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tests.detection.oracles import (
    AdaptiveBaseline,
    anomaly_frequency,
    crossing_energy,
    crossing_mask,
    deviations,
    onset_index,
    window_stats,
)

_windows = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 300),
    elements=st.floats(0.0, 1e5, allow_nan=False, width=64),
)


@given(_windows)
def test_window_stats_std_non_negative(a):
    mean, std = window_stats(a)
    assert std >= 0.0
    assert a.min() - 1e-9 <= mean <= a.max() + 1e-9


@given(_windows, st.floats(0.0, 1e4, allow_nan=False))
def test_deviations_non_negative(a, d_t):
    assert np.all(deviations(a, d_t) >= 0.0)


@given(_windows, st.floats(0.0, 1e4), st.floats(0.0, 1e5))
def test_anomaly_frequency_in_unit_interval(a, d_t, d_max):
    mask = crossing_mask(deviations(a, d_t), d_max)
    af = anomaly_frequency(mask)
    assert 0.0 <= af <= 1.0


@given(_windows, st.floats(0.0, 1e4), st.floats(0.0, 1e5))
def test_crossing_energy_exceeds_threshold(a, d_t, d_max):
    d = deviations(a, d_t)
    mask = crossing_mask(d, d_max)
    e = crossing_energy(d, mask)
    if mask.any():
        assert e > d_max
    else:
        assert e == 0.0


@given(_windows, st.floats(0.0, 1e4), st.floats(0.0, 1e5))
def test_onset_is_first_true(a, d_t, d_max):
    mask = crossing_mask(deviations(a, d_t), d_max)
    idx = onset_index(mask)
    if idx is None:
        assert not mask.any()
    else:
        assert mask[idx]
        assert not mask[:idx].any()


@given(
    st.floats(0.0, 1.0, exclude_max=False),
    st.lists(_windows, min_size=1, max_size=10),
)
def test_baseline_stays_in_data_hull(beta, windows):
    baseline = AdaptiveBaseline(beta1=beta, beta2=beta)
    baseline.seed(windows[0])
    lo = min(float(w.min()) for w in windows)
    hi = max(float(w.max()) for w in windows)
    for w in windows[1:]:
        baseline.update(w)
    assert lo - 1e-6 <= baseline.mean <= hi + 1e-6


@given(_windows)
def test_baseline_update_moves_toward_window(a):
    baseline = AdaptiveBaseline(beta1=0.9, beta2=0.9)
    baseline.seed(np.zeros(10))
    m_dt, _ = window_stats(a)
    before = baseline.mean
    baseline.update(a)
    after = baseline.mean
    if m_dt > before:
        assert after >= before
    else:
        assert after <= before
