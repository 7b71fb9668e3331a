"""Reference implementations the DSP fast paths are tested against.

``cwt_timedomain`` is :func:`~repro.dsp.wavelet.cwt_morlet` with the
original per-scale kernel construction in place of the closed-form
Fourier-domain filter bank: each scaled Morlet is sampled, truncated
and FFT-convolved with the signal on its own.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.dsp.wavelet as wavelet
from repro.dsp.wavelet import MorletWavelet, Scalogram


def _cwt_power_timedomain(
    x: np.ndarray, rate_hz: float, scales: tuple[float, ...], w0: float
) -> np.ndarray:
    """Reference |CWT|^2: per-scale sampled kernels convolved via FFT.

    The kernels are truncated at 6.5 sigma (the historical 5 sigma
    floored any comparison at ~2e-6 relative) and the FFT length covers
    the longest kernel without wraparound, so this and the spectral
    path agree to ~1e-9 wherever the kernel support fits inside the
    trace.
    """
    mother = MorletWavelet(w0)
    n = x.size
    dt = 1.0 / rate_hz
    halves = [
        min(int(mother.support_radius(s, n_sigma=6.5) / dt) + 1, n)
        for s in scales
    ]
    length = max(2 * n, n + 2 * max(halves, default=n) + 1)
    nfft = 1 << int(np.ceil(np.log2(length)))
    xf = np.fft.fft(x, nfft)
    power = np.empty((len(scales), n))
    for i, s in enumerate(scales):
        half = halves[i]
        tt = np.arange(-half, half + 1) * dt
        psi = mother.evaluate(tt / s) / math.sqrt(s)
        # Convolution with conj(psi(-t)) == correlation with psi.
        kernel = np.conj(psi[::-1])
        kf = np.fft.fft(kernel, nfft)
        full = np.fft.ifft(xf * kf)[: n + 2 * half]
        coeffs = full[half : half + n] * dt
        power[i] = np.abs(coeffs) ** 2
    return power


def cwt_timedomain(*args, **kwargs) -> Scalogram:
    """``cwt_morlet(*args, **kwargs)`` through the time-domain kernels.

    Validation, detrending and the scale grid are the library's own;
    only the power computation is swapped, for this call only.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavelet, "_cwt_power_spectral", _cwt_power_timedomain)
        return wavelet.cwt_morlet(*args, **kwargs)
