"""Node-level signal conditioning (paper Sec. IV-B).

The node "filters out the frequency above 1Hz"; then, "because the
z-accelerometer signal fluctuates around 1g, we minus this value and
let the signal fluctuate around zero.  Before computing the average and
standard deviation, we have the absolute value of those signal below
zero" — i.e. the gravity-removed signal is full-wave rectified, because
disturbances push the buoy both above and below 1 g.

Three filter kinds:

- ``"butter"`` — zero-phase Butterworth (the offline analysis path);
  needs the whole record, so it cannot feed the streaming pipeline;
- ``"butter-causal"`` — the same Butterworth run forward only, exactly
  chunkable by carrying the recursion state;
- ``"moving-average"`` — causal FIR (what a mote would run online),
  exactly chunkable by carrying the running sum.

The per-node chain is the fleet chain on one row, and the chunked
:class:`StreamingPreprocessor` shares the fleet chain's 1 g/rectify
tail, so only the low-pass differs between whole and chunked records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    ACCEL_COUNTS_PER_G,
    NODE_LOWPASS_CUTOFF_HZ,
    SAMPLE_RATE_HZ,
)
from repro.errors import ConfigurationError
from repro.dsp.filters import (
    StreamingCausalButter,
    StreamingMovingAverage,
    butter_lowpass_batch,
    moving_average_batch,
)

#: Filter kinds usable by the chunked streaming pipeline (zero-phase
#: Butterworth is global/anti-causal and therefore excluded).
STREAMABLE_FILTER_KINDS = ("butter-causal", "moving-average")


@dataclass(frozen=True)
class PreprocessConfig:
    """Parameters of the Sec. IV-B conditioning chain."""

    rate_hz: float = SAMPLE_RATE_HZ
    cutoff_hz: float = NODE_LOWPASS_CUTOFF_HZ
    counts_per_g: float = ACCEL_COUNTS_PER_G
    #: "butter" = zero-phase Butterworth (analysis path);
    #: "butter-causal" = single-pass Butterworth (streamable);
    #: "moving-average" = causal FIR (what a mote would run online).
    filter_kind: str = "butter"
    rectify: bool = True

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ConfigurationError(f"rate_hz must be positive, got {self.rate_hz}")
        if not 0 < self.cutoff_hz < self.rate_hz / 2:
            raise ConfigurationError(
                f"cutoff {self.cutoff_hz} outside (0, Nyquist) for rate {self.rate_hz}"
            )
        if self.counts_per_g <= 0:
            raise ConfigurationError(
                f"counts_per_g must be positive, got {self.counts_per_g}"
            )
        if self.filter_kind not in ("butter", "butter-causal", "moving-average"):
            raise ConfigurationError(
                "filter_kind must be 'butter', 'butter-causal' or "
                f"'moving-average', got {self.filter_kind!r}"
            )

    @property
    def moving_average_width(self) -> int:
        """FIR width putting the first null at the cutoff frequency."""
        return max(int(round(self.rate_hz / self.cutoff_hz)), 1)


def lowpass_counts(
    z_counts: np.ndarray, config: PreprocessConfig
) -> np.ndarray:
    """Apply the configured 1 Hz low-pass to raw z counts (floats out)."""
    row = np.asarray(z_counts, dtype=float)[None, :]
    return lowpass_counts_batch(row, config)[0]


def lowpass_counts_batch(
    z_counts: np.ndarray, config: PreprocessConfig
) -> np.ndarray:
    """:func:`lowpass_counts` over every row of ``(nodes, samples)``."""
    z = np.asarray(z_counts, dtype=float)
    if z.ndim != 2:
        raise ConfigurationError(
            f"expected 2-D (nodes, samples), got shape {z.shape}"
        )
    if config.filter_kind == "butter":
        return butter_lowpass_batch(z, config.cutoff_hz, config.rate_hz)
    if config.filter_kind == "butter-causal":
        return butter_lowpass_batch(
            z, config.cutoff_hz, config.rate_hz, zero_phase=False
        )
    return moving_average_batch(z, config.moving_average_width)


def _condition(filtered: np.ndarray, config: PreprocessConfig) -> np.ndarray:
    """The chain's tail after the low-pass: remove 1 g, then rectify."""
    zero_mean = filtered - config.counts_per_g
    if config.rectify:
        return np.abs(zero_mean)
    return zero_mean


def preprocess_z_counts(
    z_counts: np.ndarray, config: PreprocessConfig | None = None
) -> np.ndarray:
    """Full Sec. IV-B chain: low-pass, remove 1 g, rectify.

    Returns the non-negative sample stream ``a_i`` that eqs. 4-8
    operate on.
    """
    row = np.asarray(z_counts, dtype=float)[None, :]
    return preprocess_z_counts_batch(row, config)[0]


def preprocess_z_counts_batch(
    z_counts: np.ndarray, config: PreprocessConfig | None = None
) -> np.ndarray:
    """Whole-fleet Sec. IV-B chain over ``(nodes, samples)`` raw counts.

    One vectorised pass; bit-identical to running
    :func:`preprocess_z_counts` on every row separately.
    """
    cfg = config if config is not None else PreprocessConfig()
    return _condition(lowpass_counts_batch(z_counts, cfg), cfg)


class StreamingPreprocessor:
    """Chunked Sec. IV-B chain with carried filter state.

    Feeding a fleet's raw z counts chunk by chunk through :meth:`push`
    reproduces :func:`preprocess_z_counts_batch` on the concatenated
    stream bit for bit — the causal filters carry their exact state
    across chunks.  The zero-phase ``"butter"`` kind needs the whole
    record (its backward pass is anti-causal) and is rejected.
    """

    def __init__(
        self, n_rows: int, config: PreprocessConfig | None = None
    ) -> None:
        cfg = config if config is not None else PreprocessConfig()
        if cfg.filter_kind not in STREAMABLE_FILTER_KINDS:
            raise ConfigurationError(
                f"filter_kind {cfg.filter_kind!r} is not streamable: the "
                "zero-phase Butterworth needs the whole record; use "
                "'butter-causal' or 'moving-average' for chunked "
                "preprocessing"
            )
        self.config = cfg
        if cfg.filter_kind == "butter-causal":
            self._filter = StreamingCausalButter(
                n_rows, cfg.cutoff_hz, cfg.rate_hz
            )
        else:
            self._filter = StreamingMovingAverage(
                n_rows, cfg.moving_average_width
            )

    def push(self, z_chunk: np.ndarray) -> np.ndarray:
        """Condition one ``(rows, chunk)`` block of raw z counts."""
        filtered = self._filter.push(np.asarray(z_chunk, dtype=float))
        return _condition(filtered, self.config)
