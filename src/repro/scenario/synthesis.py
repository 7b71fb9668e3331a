"""Per-buoy accelerometer trace synthesis.

This is the stand-in for the paper's sea trials: for every deployed
node it composes

``surface acceleration = ambient field + ship wake trains + disturbances``

evaluates the buoy's specific-force response, and digitises it through
the mote's accelerometer — producing the 50 Hz raw-count
:class:`~repro.types.AccelTrace` the detection pipeline treats exactly
as the paper treats its recorded data.

:class:`FleetSynthesizer` owns that recipe for a whole deployment and
reads it either as full three-axis traces or as z-only chunks that can
feed detection without materialising a full record.

The wake train at each node is evaluated at the buoy's *drifted*
position at wake-arrival time, so the ~2 m mooring error the paper
blames for its speed-estimation spread (Sec. V-B.2) propagates into
the timestamps here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.disturbance import Disturbance, render_disturbances
from repro.physics.kelvin import KelvinWake
from repro.physics.spectrum import SeaState, sea_state_spectrum
from repro.physics.wake_train import WakeTrain
from repro.physics.wavefield import AmbientWaveField, SpectralGrid
from repro.rng import RandomState, derive_rng, make_rng
from repro.scenario.deployment import DeployedNode, GridDeployment
from repro.scenario.ship import ShipTrack
from repro.types import AccelTrace


#: Ambient synthesis engines a :class:`SynthesisConfig` can select.
#: ``"timedomain"`` is the historical reference (unsnapped frequencies,
#: trig-matrix evaluation); ``"spectral"`` snaps the realised
#: components onto an oversampled FFT grid and contracts the fleet
#: with one batched inverse real FFT.
SYNTHESIS_METHODS = ("timedomain", "spectral")


@dataclass(frozen=True)
class SynthesisConfig:
    """Scenario-wide synthesis parameters."""

    duration_s: float = 400.0
    t0: float = 0.0
    sea_state: SeaState = SeaState.CALM
    n_wave_components: int = 96
    #: Dispersive chirp of the wake packet (fraction of the carrier).
    wake_chirp_fraction: float = -0.08
    include_horizontal: bool = False
    #: Ambient evaluation engine (one of :data:`SYNTHESIS_METHODS`).
    synthesis_method: str = "timedomain"
    #: Minimum FFT-grid bins per component spacing for the spectral
    #: engine (see :class:`~repro.physics.wavefield.SpectralGrid`).
    spectral_oversample: int = 4

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration_s}"
            )
        if self.n_wave_components < 1:
            raise ConfigurationError("need at least one wave component")
        if self.synthesis_method not in SYNTHESIS_METHODS:
            raise ConfigurationError(
                "synthesis_method must be one of "
                f"{SYNTHESIS_METHODS}, got {self.synthesis_method!r}"
            )
        if self.spectral_oversample < 1:
            raise ConfigurationError(
                "spectral_oversample must be >= 1, got "
                f"{self.spectral_oversample}"
            )

    @property
    def snaps_frequencies(self) -> bool:
        """Whether this config realises the field on an FFT grid."""
        return self.synthesis_method == "spectral"


def build_ambient_field(
    config: SynthesisConfig,
    seed: RandomState = None,
    spectral_grid: SpectralGrid | None = None,
) -> AmbientWaveField:
    """The scenario's shared ambient wave-field realisation.

    ``spectral_grid`` realises the field's components on that FFT grid
    (required for ``synthesis_method="spectral"``); the RNG draw
    sequence is identical either way, so a snapped and an unsnapped
    field from one seed share phases, directions and amplitudes and
    differ only by the <= df/2 frequency snap.
    """
    spectrum = sea_state_spectrum(config.sea_state)
    return AmbientWaveField(
        spectrum,
        n_components=config.n_wave_components,
        seed=seed,
        spectral_grid=spectral_grid,
    )


def fleet_spectral_grid(
    config: SynthesisConfig, t: np.ndarray
) -> SpectralGrid | None:
    """The :class:`SpectralGrid` a config realises its field on.

    ``None`` for the pure time-domain method.  ``t`` is the fleet's
    shared sample grid; the spectral method needs at least two samples
    on it.
    """
    if not config.snaps_frequencies:
        return None
    if t.size < 2:
        raise ConfigurationError(
            f"{config.synthesis_method!r} synthesis needs >= 2 samples, "
            f"got {t.size}"
        )
    return SpectralGrid(
        n_samples=int(t.size),
        dt_s=float(t[1] - t[0]),
        oversample=config.spectral_oversample,
    )


def wake_trains_for_node(
    node: DeployedNode,
    ships: Sequence[ShipTrack],
    config: SynthesisConfig,
    wakes: Sequence[KelvinWake] | None = None,
) -> list[WakeTrain]:
    """The wake packets the ships inflict on one node.

    Each packet is evaluated at the buoy's drifted position at the
    (anchor-based) arrival time — the position error then feeds back
    into the packet's own timing and amplitude.

    ``wakes`` optionally supplies the ships' already-built
    :class:`~repro.physics.kelvin.KelvinWake` objects (one per ship, in
    order); the fleet path builds each wake once per scenario instead of
    once per node.
    """
    if wakes is None:
        wakes = [ship.wake() for ship in ships]
    trains: list[WakeTrain] = []
    for wake in wakes:
        nominal_arrival = wake.arrival_time(node.anchor)
        drifted = node.buoy.position_at(nominal_arrival)
        trains.append(
            WakeTrain.from_wake(
                wake, drifted, chirp_fraction=config.wake_chirp_fraction
            )
        )
    return trains


def _compose_surface(
    node: DeployedNode,
    t: np.ndarray,
    az: np.ndarray,
    trains: Sequence[WakeTrain],
    disturbances: Iterable[Disturbance],
) -> np.ndarray:
    """Add wake packets and disturbances onto one node's ambient row.

    The buoy's mechanical heave response filters what the mote feels:
    ambient components are weighted per frequency (already applied to
    ``az``); wake packets and impulsive disturbances are scaled at
    their carrier frequency.
    """
    for train in trains:
        gain = float(node.buoy.heave_gain(train.carrier_frequency_hz))
        az = az + gain * train.vertical_acceleration(t)
    extra = render_disturbances(disturbances, t)
    if extra.shape == t.shape:
        az = az + extra
    return az


def _finish_node_trace(
    node: DeployedNode,
    t: np.ndarray,
    az: np.ndarray,
    trains: Sequence[WakeTrain],
    disturbances: Iterable[Disturbance],
    horizontal: tuple[np.ndarray, np.ndarray] | None,
) -> AccelTrace:
    """Compose wakes and disturbances onto an ambient row and digitise."""
    surface = _compose_surface(node, t, az, trains, disturbances)
    return node.mote.record(node.buoy.specific_force(t, surface, horizontal))


def synthesize_node_trace(
    node: DeployedNode,
    field: AmbientWaveField,
    ships: Sequence[ShipTrack] = (),
    disturbances: Iterable[Disturbance] = (),
    config: SynthesisConfig | None = None,
    wakes: Sequence[KelvinWake] | None = None,
) -> AccelTrace:
    """One node's full raw-count trace for the scenario."""
    cfg = config if config is not None else SynthesisConfig()
    t = node.mote.sample_instants(cfg.t0, cfg.duration_s)
    az = field.vertical_acceleration(
        node.anchor, t, response=node.buoy.heave_gain
    )
    horizontal = (
        field.horizontal_acceleration(node.anchor, t)
        if cfg.include_horizontal
        else None
    )
    return _finish_node_trace(
        node,
        t,
        az,
        wake_trains_for_node(node, ships, cfg, wakes=wakes),
        disturbances,
        horizontal,
    )


class FleetSynthesizer:
    """One fleet realisation, read whole or in z-only chunks.

    The constructor fixes the realisation: the seed derivation, the
    sample grids, the shared ambient field and every node's wake
    trains and disturbances.  Two reads draw from it:

    - :meth:`traces` is the monolithic three-axis read, one
      :meth:`~repro.sensors.imote2.IMote2.record` per node.  On a
      shared sample grid the ambient term is one fleet batch; motes on
      different grids fall back to the per-node time-domain path, and
      the spectral method (which has no per-node form) raises
      :class:`ConfigurationError` at construction there.
    - :meth:`next_chunk` / :meth:`chunks` yield ``(nodes, chunk)``
      blocks of raw z counts on the shared grid.  A ragged fleet or
      ``include_horizontal`` raises :class:`ConfigurationError` on the
      first chunked read, before any work is done.

    Chunked z counts equal :meth:`traces`' z verbatim, for any chunk
    size:

    - every synthesis term (ambient trig contraction, wake packets,
      disturbances, the buoy's tilt projection) is a pointwise function
      of the sample instant, so per-chunk evaluation reproduces the
      monolithic arrays up to BLAS reduction order (absorbed by the
      accelerometer's integer quantisation);
    - the spectral engine's one batched inverse FFT has no per-chunk
      form, so its ambient slab is realised once, on first use, and
      both reads slice it: float-identical by construction, at the
      cost of O(nodes x samples) ambient memory (wakes, disturbances
      and digitisation stay chunked);
    - each mote's z noise comes from a generator clone advanced to the
      z position of its three-axis read
      (:meth:`~repro.sensors.accelerometer.Accelerometer.axis_noise_rng`),
      and the generator's normal stream is split-invariant, so chunked
      draws equal the monolithic read's draws bit for bit.  After the
      last chunk the device takes the clone's state back, so its
      stream ends where a monolithic read leaves it.

    Each read bills the produced samples to every mote's battery.
    """

    def __init__(
        self,
        deployment: GridDeployment,
        ships: Sequence[ShipTrack] = (),
        config: SynthesisConfig | None = None,
        disturbances_by_node: dict[int, list[Disturbance]] | None = None,
        seed: RandomState = None,
    ) -> None:
        cfg = config if config is not None else SynthesisConfig()
        root = int(make_rng(seed).integers(2**31))
        self.config = cfg
        self.nodes = list(deployment)
        if not self.nodes:
            raise ConfigurationError("empty deployment")
        self._grids = [
            n.mote.sample_instants(cfg.t0, cfg.duration_s) for n in self.nodes
        ]
        self.t = self._grids[0]
        self.shared_grid = all(
            np.array_equal(g, self.t) for g in self._grids[1:]
        )
        if cfg.snaps_frequencies and not self.shared_grid:
            raise ConfigurationError(
                f"{cfg.synthesis_method!r} synthesis needs one shared fleet "
                "sample grid; this deployment's motes sample on different "
                "grids"
            )
        self.field = build_ambient_field(
            cfg,
            seed=derive_rng(root, "ambient"),
            spectral_grid=fleet_spectral_grid(cfg, self.t),
        )
        wakes = [ship.wake() for ship in ships]
        self._trains = [
            wake_trains_for_node(n, ships, cfg, wakes=wakes)
            for n in self.nodes
        ]
        dmap = disturbances_by_node or {}
        self._disturbances = [dmap.get(n.node_id, []) for n in self.nodes]
        self._positions = [n.anchor for n in self.nodes]
        self._responses = [n.buoy.heave_gain for n in self.nodes]
        #: The spectral ambient slab, realised on first use.
        self._ambient: np.ndarray | None = None
        #: Per-node z-noise clones, made on the first chunked read.
        self._noise: list[np.random.Generator] | None = None
        self._pos = 0

    @property
    def n_nodes(self) -> int:
        """Fleet size."""
        return len(self.nodes)

    @property
    def n_samples(self) -> int:
        """Samples per node on the shared grid."""
        return int(self.t.size)

    @property
    def samples_remaining(self) -> int:
        """Samples not yet produced by chunked reads."""
        return int(self.t.size) - self._pos

    @property
    def t0s(self) -> list[float]:
        """Each mote's local-clock stamp of the shared grid's first sample."""
        t0 = float(self.t[0])
        return [float(n.mote.clock.local_time(t0)) for n in self.nodes]

    def _ambient_rows(self, lo: int, hi: int) -> np.ndarray:
        """Every node's ambient vertical acceleration on ``t[lo:hi]``."""
        if not self.config.snaps_frequencies:
            return self.field.vertical_acceleration_batch(
                self._positions, self.t[lo:hi], responses=self._responses
            )
        if self._ambient is None:
            self._ambient = self.field.vertical_acceleration_batch(
                self._positions,
                self.t,
                responses=self._responses,
                method="spectral",
            )
        return self._ambient[:, lo:hi]

    def traces(self) -> dict[int, AccelTrace]:
        """Every node's full three-axis trace, keyed by node id."""
        cfg = self.config
        az_all: np.ndarray | None = None
        h_all: tuple[np.ndarray, np.ndarray] | None = None
        if self.shared_grid:
            az_all = self._ambient_rows(0, self.t.size)
            if cfg.include_horizontal:
                h_all = self.field.horizontal_acceleration_batch(
                    self._positions, self.t, method=cfg.synthesis_method
                )
        out: dict[int, AccelTrace] = {}
        for i, node in enumerate(self.nodes):
            t = self._grids[i]
            horizontal = None
            if az_all is None:
                az = self.field.vertical_acceleration(
                    node.anchor, t, response=node.buoy.heave_gain
                )
                if cfg.include_horizontal:
                    horizontal = self.field.horizontal_acceleration(
                        node.anchor, t
                    )
            else:
                az = az_all[i]
                if h_all is not None:
                    horizontal = (h_all[0][i], h_all[1][i])
            out[node.node_id] = _finish_node_trace(
                node, t, az, self._trains[i], self._disturbances[i], horizontal
            )
        return out

    def next_chunk(self, chunk_samples: int) -> np.ndarray | None:
        """The next ``(nodes, <=chunk_samples)`` block of raw z counts.

        Returns ``None`` once the grid is exhausted.
        """
        if chunk_samples < 1:
            raise ConfigurationError(
                f"chunk_samples must be >= 1, got {chunk_samples}"
            )
        if self.config.include_horizontal:
            raise ConfigurationError(
                "chunked reads digitise only the z axis; "
                "include_horizontal needs traces()"
            )
        if not self.shared_grid:
            raise ConfigurationError(
                "chunked reads need one shared fleet sample grid"
            )
        n = self.t.size
        if self._noise is None:
            # The monolithic read draws x-, y- then z-noise from one
            # stream; each clone starts at its device's z draws.
            self._noise = [
                node.mote.accelerometer.axis_noise_rng(2, n)
                for node in self.nodes
            ]
        lo = self._pos
        if lo >= n:
            return None
        hi = min(lo + chunk_samples, n)
        t_c = self.t[lo:hi]
        az = self._ambient_rows(lo, hi)
        out = np.empty((len(self.nodes), hi - lo), dtype=np.int64)
        for i, node in enumerate(self.nodes):
            surface = _compose_surface(
                node, t_c, az[i], self._trains[i], self._disturbances[i]
            )
            motion = node.buoy.specific_force(t_c, surface)
            accel = node.mote.accelerometer
            out[i] = accel.read_axis_chunk(motion.fz, 2, self._noise[i])
            if hi == n:
                accel.adopt_noise_rng(self._noise[i])
            node.mote.battery.draw_samples(hi - lo)
        self._pos = hi
        return out

    def chunks(self, chunk_samples: int) -> Iterator[np.ndarray]:
        """Iterate the rest of the grid in ``chunk_samples`` blocks."""
        while True:
            block = self.next_chunk(chunk_samples)
            if block is None:
                return
            yield block


def synthesize_fleet_traces(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    config: SynthesisConfig | None = None,
    disturbances_by_node: dict[int, list[Disturbance]] | None = None,
    seed: RandomState = None,
) -> dict[int, AccelTrace]:
    """Traces for every node of a deployment, sharing one ambient field.

    :meth:`FleetSynthesizer.traces`.  Under the default
    ``synthesis_method="timedomain"`` the ambient term is
    :meth:`AmbientWaveField.vertical_acceleration_batch`: the
    (components x samples) trig matrices are computed once and each
    node reduces to two BLAS contractions.  ``"spectral"`` snaps the
    realised components onto an FFT grid and contracts the fleet with
    one batched inverse real FFT instead (~10x on the 64-node / 400 s
    workload), digitising counts bit-identical to the time-domain engine
    over the same snapped field.  Each ship's Kelvin wake is built once
    per scenario rather than once per node.
    """
    return FleetSynthesizer(
        deployment, ships, config, disturbances_by_node, seed
    ).traces()


def random_disturbances(
    deployment: GridDeployment,
    config: SynthesisConfig,
    gusts_per_node_hour: float = 6.0,
    bumps_per_node_hour: float = 4.0,
    gust_rms_accel: float = 0.5,
    bump_peak_accel: float = 2.0,
    seed: RandomState = None,
) -> dict[int, list[Disturbance]]:
    """Poisson-sprinkled nuisance events, independent across nodes.

    These are the false-alarm sources of Sec. IV-C (wind flurries,
    birds, fish) — spatially uncorrelated by construction, which is
    precisely why Table I's correlation coefficient stays near zero.
    """
    from repro.physics.disturbance import FishBump, WindGust

    rng = make_rng(seed)
    hours = config.duration_s / 3600.0
    out: dict[int, list[Disturbance]] = {}
    for node in deployment:
        events: list[Disturbance] = []
        n_gusts = rng.poisson(gusts_per_node_hour * hours)
        for _ in range(n_gusts):
            start = float(rng.uniform(config.t0, config.t0 + config.duration_s))
            events.append(
                WindGust(
                    start=start,
                    duration=float(rng.uniform(3.0, 10.0)),
                    rms_accel=float(rng.uniform(0.5, 1.5)) * gust_rms_accel,
                    seed=int(rng.integers(2**31)),
                )
            )
        n_bumps = rng.poisson(bumps_per_node_hour * hours)
        for _ in range(n_bumps):
            events.append(
                FishBump(
                    time=float(
                        rng.uniform(config.t0, config.t0 + config.duration_s)
                    ),
                    peak_accel=float(rng.uniform(0.5, 1.5)) * bump_peak_accel,
                )
            )
        out[node.node_id] = events
    return out
