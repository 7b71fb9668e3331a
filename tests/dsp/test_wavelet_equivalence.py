"""Spectral-domain CWT must match the time-domain reference.

``cwt_morlet`` evaluates the closed-form Fourier transform of the
Morlet; the time-domain oracle (``tests/dsp/oracles.py``) samples,
truncates and FFT-convolves each kernel.  On any signal the two must agree far inside the acceptance
tolerance (rtol 1e-6 of the peak power) — white noise exercises every
frequency at once, a crossing chirp exercises scale localisation, and
a Kelvin wake packet is the signal the detector actually hunts.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.wavelet import (
    _morlet_filter_bank,
    cwt_morlet,
)
from repro.physics.wake_train import WakeTrain

from tests.dsp.oracles import cwt_timedomain

RATE = 50.0
FREQS = np.geomspace(0.1, 5.0, 24)


def _assert_paths_agree(x: np.ndarray, freqs=FREQS, rtol: float = 1e-6):
    spectral = cwt_morlet(x, RATE, frequencies_hz=freqs)
    reference = cwt_timedomain(x, RATE, frequencies_hz=freqs)
    peak = reference.power.max()
    err = np.abs(spectral.power - reference.power).max()
    assert err < rtol * peak, f"max deviation {err:.3e} vs peak {peak:.3e}"
    assert np.array_equal(spectral.times_s, reference.times_s)
    assert np.array_equal(
        spectral.frequencies_hz, reference.frequencies_hz
    )


def test_equivalence_on_white_noise():
    rng = np.random.default_rng(11)
    _assert_paths_agree(rng.standard_normal(3000))


def test_equivalence_on_chirp():
    t = np.arange(0.0, 60.0, 1.0 / RATE)
    # 0.2 -> 3 Hz linear sweep crossing most analysis scales.
    x = np.sin(2.0 * np.pi * (0.2 * t + 0.5 * (2.8 / 60.0) * t**2))
    _assert_paths_agree(x)


def test_equivalence_on_wake_packet():
    t = np.arange(0.0, 120.0, 1.0 / RATE)
    train = WakeTrain(
        arrival_time=50.0,
        amplitude=0.05,
        period=1.8,
        duration=3.0,
        chirp=-0.04,
    )
    rng = np.random.default_rng(23)
    x = train.vertical_acceleration(t) + 0.01 * rng.standard_normal(t.size)
    _assert_paths_agree(x)


def test_equivalence_across_seeds_and_lengths():
    for seed, n in ((1, 500), (2, 1777), (3, 4096)):
        rng = np.random.default_rng(seed)
        _assert_paths_agree(rng.standard_normal(n), freqs=FREQS[::4])


def test_filter_bank_is_cached_across_calls():
    rng = np.random.default_rng(9)
    before = _morlet_filter_bank.cache_info()
    x1 = rng.standard_normal(2048)
    x2 = rng.standard_normal(2048)
    cwt_morlet(x1, RATE, frequencies_hz=FREQS)
    cwt_morlet(x2, RATE, frequencies_hz=FREQS)
    after = _morlet_filter_bank.cache_info()
    # Equal-length transforms at the same grid reuse the cached bank.
    assert after.hits > before.hits
