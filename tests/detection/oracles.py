"""The scalar node-level detector: the reference for eqs. 4-8.

The library evaluates paper Sec. IV-B (Algorithm SID lines 9-22) with
one engine only, :meth:`repro.detection.fleet.FleetDetector.step`;
:class:`repro.detection.node_detector.NodeDetector` is a one-row fleet.
The literal per-node formulation lives here so the equivalence suites,
the scenario oracles and the detection bench can demand bit-identical
reports from that engine:

- :func:`window_stats` and :class:`AdaptiveBaseline` — the
  environment-adaptive baseline (eqs. 4-5);
- :func:`deviations`, :func:`crossing_mask`, :func:`anomaly_frequency`,
  :func:`crossing_energy` and :func:`onset_index` — eqs. 6-8;
- :class:`ScalarNodeDetector` — one node's window-by-window walk.

Eq. 4-5 baseline: "Because ocean waves change with wind and time, the
threshold should reflect that changing."  The node keeps exponentially
smoothed running versions of the window mean and standard deviation:

    m'_T <- beta_1 m'_T + m_dt (1 - beta_1)
    d'_T <- beta_2 d'_T + d_dt (1 - beta_2)

with beta_1 = beta_2 = 0.99 determined empirically by the authors.
Only windows that were *not* flagged anomalous feed the update (the
pseudocode's "if D_i is normal, a_i will be stored"), so a passing ship
does not poison its own detection threshold.

Eqs. 6-8, literally:

- eq. 6:  ``D_i = |a_i - d'_T|`` — the deviation of each (rectified)
  sample from the running standard deviation;
- eq. 7:  ``af = NA_dt / N_dt`` — the fraction of samples in the window
  whose deviation crossed ``D_max = M m'_T``;
- eq. 8:  ``E_dt = (1 / NA_dt) sum D_i  (D_i > D_max)`` — the average
  energy of the crossings, reported to the cluster head.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import BETA_1, BETA_2
from repro.detection.node_detector import NodeDetectorConfig, window_starts
from repro.detection.preprocess import preprocess_z_counts
from repro.detection.reports import NodeReport
from repro.errors import ConfigurationError, InternalError, SignalLengthError
from repro.types import AccelTrace, Position


# ----------------------------------------------------------------------
# Eqs. 4-5: the adaptive baseline
# ----------------------------------------------------------------------
def window_stats(a: np.ndarray) -> tuple[float, float]:
    """Eq. 4: mean and (population) standard deviation of one window."""
    x = np.asarray(a, dtype=float)
    if x.size == 0:
        raise SignalLengthError("window_stats needs at least one sample")
    mean = float(x.mean())
    var = float(np.mean((x - mean) ** 2))
    return mean, math.sqrt(var)


class AdaptiveBaseline:
    """Running m'_T / d'_T state of one node.

    The baseline must be seeded (via :meth:`seed` or the constructor
    arguments) before :attr:`mean` / :attr:`std` are read; the paper's
    Initialization procedure does this with the first ``u`` samples.
    """

    def __init__(
        self,
        beta1: float = BETA_1,
        beta2: float = BETA_2,
        initial_mean: float | None = None,
        initial_std: float | None = None,
    ) -> None:
        # beta = 1.0 freezes the baseline after seeding: the "fixed
        # threshold" strawman the adaptive design replaces (Sec. IV-B).
        if not 0.0 <= beta1 <= 1.0:
            raise ConfigurationError(f"beta1 must be in [0, 1], got {beta1}")
        if not 0.0 <= beta2 <= 1.0:
            raise ConfigurationError(f"beta2 must be in [0, 1], got {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self._mean = initial_mean
        self._std = initial_std
        self._n_updates = 0

    @property
    def seeded(self) -> bool:
        """True once initial statistics exist."""
        return self._mean is not None and self._std is not None

    @property
    def mean(self) -> float:
        """Current m'_T."""
        self._require_seeded()
        return float(self._mean)  # type: ignore[arg-type]

    @property
    def std(self) -> float:
        """Current d'_T."""
        self._require_seeded()
        return float(self._std)  # type: ignore[arg-type]

    @property
    def n_updates(self) -> int:
        """Number of eq.-5 updates applied so far."""
        return self._n_updates

    def _require_seeded(self) -> None:
        if not self.seeded:
            raise ConfigurationError(
                "baseline not seeded; run the initialization window first"
            )

    def seed(self, window: np.ndarray) -> None:
        """Initialise m'_T, d'_T from the first sampling window (eq. 4)."""
        self._mean, self._std = window_stats(window)
        self._n_updates = 0

    def update(self, window: np.ndarray) -> tuple[float, float]:
        """Fold one non-anomalous window into the baseline (eq. 5).

        Returns the new ``(m'_T, d'_T)``.
        """
        self._require_seeded()
        m_dt, d_dt = window_stats(window)
        self._mean = self.beta1 * self._mean + m_dt * (1.0 - self.beta1)
        self._std = self.beta2 * self._std + d_dt * (1.0 - self.beta2)
        self._n_updates += 1
        return self.mean, self.std

    def threshold(self, m: float) -> float:
        """The crossing threshold ``D_max = M m'_T`` (Sec. IV-B)."""
        if m <= 0:
            raise ConfigurationError(f"M must be positive, got {m}")
        return m * self.mean


# ----------------------------------------------------------------------
# Eqs. 6-8: deviations, crossings, anomaly frequency, crossing energy
# ----------------------------------------------------------------------
def deviations(a: np.ndarray, d_t: float) -> np.ndarray:
    """Eq. 6: per-sample deviation ``D_i = |a_i - d'_T|``."""
    if d_t < 0:
        raise ConfigurationError(f"d'_T must be >= 0, got {d_t}")
    return np.abs(np.asarray(a, dtype=float) - d_t)


def crossing_mask(d: np.ndarray, d_max: float) -> np.ndarray:
    """Boolean mask of samples whose deviation exceeds ``D_max``."""
    if d_max < 0:
        raise ConfigurationError(f"D_max must be >= 0, got {d_max}")
    return np.asarray(d, dtype=float) > d_max


def anomaly_frequency(mask: np.ndarray) -> float:
    """Eq. 7: fraction of window samples that crossed the threshold."""
    m = np.asarray(mask, dtype=bool)
    if m.size == 0:
        raise SignalLengthError("anomaly_frequency needs a non-empty window")
    return float(np.count_nonzero(m)) / m.size


def crossing_energy(d: np.ndarray, mask: np.ndarray) -> float:
    """Eq. 8: mean deviation over the crossing samples (0 if none)."""
    dd = np.asarray(d, dtype=float)
    m = np.asarray(mask, dtype=bool)
    if dd.shape != m.shape:
        raise ConfigurationError("deviation and mask shapes differ")
    n = int(np.count_nonzero(m))
    if n == 0:
        return 0.0
    return float(dd[m].sum()) / n


def onset_index(mask: np.ndarray) -> int | None:
    """Index of the first crossing in the window, or None.

    The node reports "the onset time when the signal first exceeds the
    threshold" (Sec. IV-B).
    """
    m = np.asarray(mask, dtype=bool)
    idx = np.flatnonzero(m)
    if idx.size == 0:
        return None
    return int(idx[0])


# ----------------------------------------------------------------------
# One node's window walk
# ----------------------------------------------------------------------
class ScalarNodeDetector:
    """The per-node detection state machine, one window at a time.

    The same interface as the library's ``NodeDetector``:
    :meth:`process_trace` for a full offline record,
    :meth:`process_window` to step one preprocessed window.
    """

    def __init__(
        self,
        node_id: int,
        position: Position,
        config: NodeDetectorConfig | None = None,
        row: int = 0,
        column: int = 0,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.config = config if config is not None else NodeDetectorConfig()
        self.row = row
        self.column = column
        self.baseline = AdaptiveBaseline(
            beta1=self.config.beta1, beta2=self.config.beta2
        )
        self._init_buffer: list[np.ndarray] = []

    @property
    def initialized(self) -> bool:
        """True once the adaptive baseline has been seeded."""
        return self.baseline.seeded

    def reset(self) -> None:
        """Forget all baseline state (fresh deployment)."""
        self.baseline = AdaptiveBaseline(
            beta1=self.baseline.beta1, beta2=self.baseline.beta2
        )
        self._init_buffer = []

    def process_window(
        self, a_window: np.ndarray, t0: float
    ) -> NodeReport | None:
        """Run one preprocessed Delta-t window starting at time ``t0``.

        Returns a :class:`NodeReport` for an anomalous window, ``None``
        otherwise.  Windows arriving before initialization completes
        only accumulate baseline statistics.
        """
        a = np.asarray(a_window, dtype=float)
        if a.size == 0:
            raise SignalLengthError("empty detection window")
        if not self.baseline.seeded:
            self._init_buffer.append(a)
            if len(self._init_buffer) >= self.config.init_windows:
                self.baseline.seed(np.concatenate(self._init_buffer))
                self._init_buffer = []
            return None
        d = deviations(a, self.baseline.std)
        d_max = self.baseline.threshold(self.config.m)
        mask = crossing_mask(d, d_max)
        af = anomaly_frequency(mask)
        if af > self.config.af_threshold:
            onset = onset_index(mask)
            if onset is None:  # af > 0 implies at least one crossing
                raise InternalError(
                    "anomalous window with no crossing onset (af "
                    f"{af} > {self.config.af_threshold} but empty mask)"
                )
            return NodeReport(
                node_id=self.node_id,
                position=self.position,
                onset_time=t0 + onset / self.config.rate_hz,
                energy=crossing_energy(d, mask),
                anomaly_frequency=af,
                row=self.row,
                column=self.column,
            )
        self.baseline.update(a)
        return None

    def process_samples(
        self, a: np.ndarray, t0: float
    ) -> list[NodeReport]:
        """Walk an already-preprocessed stream window by window."""
        a = np.asarray(a, dtype=float)
        w = self.config.window_samples
        if a.size < w:
            raise SignalLengthError(
                f"need at least one window ({w} samples), got {a.size}"
            )
        reports: list[NodeReport] = []
        for start in window_starts(self.config, a.size):
            report = self.process_window(
                a[start : start + w], t0 + start / self.config.rate_hz
            )
            if report is not None:
                reports.append(report)
        return reports

    def process_trace(self, trace: AccelTrace) -> list[NodeReport]:
        """Preprocess a raw count trace (Sec. IV-B) and detect on it."""
        a = preprocess_z_counts(trace.z, self.config.preprocess)
        return self.process_samples(a, trace.t0)
