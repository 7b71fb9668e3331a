"""Time-domain filtering used by node-level detection (paper Sec. IV-B).

"After deployment of the node, the node first samples for a period of
time, then filters out the frequency above 1Hz" — implemented as a
zero-phase Butterworth low-pass (the offline analysis path) and as a
causal moving average (the cheap on-mote path a real iMote2 would run).
Each filter is written once for ``(rows, samples)`` blocks; the 1-D
forms filter one row.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.constants import NODE_LOWPASS_CUTOFF_HZ, SAMPLE_RATE_HZ
from repro.errors import ConfigurationError, SignalLengthError


def butter_sos(
    cutoff_hz: float = NODE_LOWPASS_CUTOFF_HZ,
    rate_hz: float = SAMPLE_RATE_HZ,
    order: int = 4,
) -> np.ndarray:
    """Second-order-section coefficients of the node low-pass."""
    if not 0 < cutoff_hz < rate_hz / 2:
        raise ConfigurationError(
            f"cutoff {cutoff_hz} Hz outside (0, Nyquist={rate_hz / 2}) range"
        )
    return sp_signal.butter(
        order, cutoff_hz, btype="low", fs=rate_hz, output="sos"
    )


def butter_lowpass(
    x: np.ndarray,
    cutoff_hz: float = NODE_LOWPASS_CUTOFF_HZ,
    rate_hz: float = SAMPLE_RATE_HZ,
    order: int = 4,
    zero_phase: bool = True,
) -> np.ndarray:
    """Butterworth low-pass filter of one signal.

    ``zero_phase=True`` applies the filter forward and backward
    (``filtfilt``), preserving wave-train onset times — important
    because the detector reports the onset timestamp to the cluster
    head.  ``zero_phase=False`` gives the causal single-pass variant.
    """
    row = np.asarray(x, dtype=float)[None, :]
    return butter_lowpass_batch(row, cutoff_hz, rate_hz, order, zero_phase)[0]


def butter_lowpass_batch(
    x: np.ndarray,
    cutoff_hz: float = NODE_LOWPASS_CUTOFF_HZ,
    rate_hz: float = SAMPLE_RATE_HZ,
    order: int = 4,
    zero_phase: bool = True,
) -> np.ndarray:
    """The node low-pass over every row of ``(nodes, samples)``.

    One vectorised ``axis=-1`` pass (see :func:`butter_lowpass`).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError(f"expected 2-D (nodes, samples), got {x.shape}")
    if x.shape[1] < 3 * (order + 1):
        raise SignalLengthError(
            f"signal too short ({x.shape[1]}) for order-{order} filtering"
        )
    sos = butter_sos(cutoff_hz, rate_hz, order)
    if not zero_phase:
        return sp_signal.sosfilt(sos, x, axis=-1)
    # sosfiltfilt pads each edge by 3x the cascade's taps (a first-order
    # section has one tap less) and needs more samples than that.
    n_taps = 2 * len(sos) + 1 - min(
        int(np.count_nonzero(sos[:, 2] == 0)),
        int(np.count_nonzero(sos[:, 5] == 0)),
    )
    if x.shape[1] <= 3 * n_taps:
        raise SignalLengthError(
            f"signal too short ({x.shape[1]}) for order-{order} zero-phase "
            f"filtering: needs more than {3 * n_taps} samples"
        )
    return sp_signal.sosfiltfilt(sos, x, axis=-1)


def moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Causal moving-average FIR low-pass of ``width`` samples.

    The first ``width - 1`` outputs average over the shorter available
    history, so the output has no startup transient toward zero and the
    same length as the input.  A 50-sample width at 50 Hz puts the first
    null at 1 Hz — a mote-friendly stand-in for the Butterworth filter.
    """
    return moving_average_batch(np.asarray(x, dtype=float)[None, :], width)[0]


def moving_average_batch(x: np.ndarray, width: int) -> np.ndarray:
    """:func:`moving_average` over every row of ``(nodes, samples)``.

    One :class:`StreamingMovingAverage` push of the whole record.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError(f"expected 2-D (nodes, samples), got {x.shape}")
    return StreamingMovingAverage(x.shape[0], width).push(x)


class StreamingMovingAverage:
    """Chunked :func:`moving_average` with carried state, bit-exact.

    Feeding the chunks of a split signal through :meth:`push` yields
    exactly the monolithic filter output: the cumulative sum is seeded
    with the carried running total *in sequence* (prepend, accumulate,
    drop), preserving the monolithic summation order, and the last
    ``width`` running-total values are retained for the difference
    term.  State per row is O(width).
    """

    def __init__(self, n_rows: int, width: int) -> None:
        if n_rows < 1:
            raise ConfigurationError(f"need >= 1 row, got {n_rows}")
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        self.width = width
        self._tail = np.empty((n_rows, 0))
        self._seen = 0

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Filter one ``(rows, chunk)`` block; returns the same shape."""
        x = np.asarray(chunk, dtype=float)
        if x.ndim != 2 or x.shape[0] != self._tail.shape[0]:
            raise ConfigurationError(
                f"chunk must be ({self._tail.shape[0]}, samples), got {x.shape}"
            )
        if x.shape[1] == 0:
            return x.copy()
        width = self.width
        n = x.shape[1]
        if self._seen:
            carry = self._tail[:, -1:]
            csum = np.cumsum(
                np.concatenate([carry, x], axis=1), axis=1
            )[:, 1:]
        else:
            csum = np.cumsum(x, axis=1)
        # Running totals from ``width`` samples before this block's
        # first full-width output onward.
        ext = (
            np.concatenate([self._tail, csum], axis=1)
            if self._tail.shape[1]
            else csum
        )
        out = np.empty_like(x)
        ramp = min(max(width - self._seen, 0), n)
        if ramp:
            out[:, :ramp] = csum[:, :ramp] / np.arange(
                self._seen + 1, self._seen + ramp + 1
            )
        if ramp < n:
            out[:, ramp:] = (csum[:, ramp:] - ext[:, : n - ramp]) / width
        self._tail = ext[:, -min(width, ext.shape[1]) :].copy()
        self._seen += n
        return out


class StreamingCausalButter:
    """Chunked causal Butterworth low-pass with carried filter state.

    ``sosfilt`` with a carried ``zi`` is exactly the monolithic causal
    filter — the recursion state is the only memory the filter has.
    The zero-phase variant is *not* streamable (its backward pass is
    anti-causal), which is why the streaming pipeline requires a causal
    ``filter_kind``.
    """

    def __init__(
        self,
        n_rows: int,
        cutoff_hz: float = NODE_LOWPASS_CUTOFF_HZ,
        rate_hz: float = SAMPLE_RATE_HZ,
        order: int = 4,
    ) -> None:
        if n_rows < 1:
            raise ConfigurationError(f"need >= 1 row, got {n_rows}")
        self._sos = butter_sos(cutoff_hz, rate_hz, order)
        self._zi = np.zeros((self._sos.shape[0], n_rows, 2))
        self._n_rows = n_rows

    def push(self, chunk: np.ndarray) -> np.ndarray:
        """Filter one ``(rows, chunk)`` block; returns the same shape."""
        x = np.asarray(chunk, dtype=float)
        if x.ndim != 2 or x.shape[0] != self._n_rows:
            raise ConfigurationError(
                f"chunk must be ({self._n_rows}, samples), got {x.shape}"
            )
        if x.shape[1] == 0:
            return x.copy()
        y, self._zi = sp_signal.sosfilt(self._sos, x, axis=-1, zi=self._zi)
        return y


def detrend_mean(x: np.ndarray) -> np.ndarray:
    """Remove the signal mean."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return x.copy()
    return x - x.mean()


def remove_gravity(z_counts: np.ndarray, counts_per_g: float) -> np.ndarray:
    """Subtract the 1 g standing offset from z-axis counts.

    "Because the z-accelerometer signal fluctuates around 1g, we minus
    this value and let the signal fluctuate around zero" (Sec. IV-B).
    """
    if counts_per_g <= 0:
        raise ConfigurationError(
            f"counts_per_g must be positive, got {counts_per_g}"
        )
    return np.asarray(z_counts, dtype=float) - counts_per_g
