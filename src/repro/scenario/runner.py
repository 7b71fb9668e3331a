"""Scenario execution: offline (radio-less), fully networked, duty-cycled.

``run_offline_scenario`` is the controlled-experiment path used by the
Table I / Table II / Fig. 11 benchmarks: every node's trace is
synthesised, node-level detection runs locally, and a single temporary
cluster fuses all reports — isolating the *detection* behaviour from
radio losses.

``run_network_scenario`` replays the same detection outcomes into each
node's SID state machine on the full discrete-event stack (flooded
cluster setup, lossy member reports, multihop delivery to the sink) —
the configuration the ablation benchmarks stress.

Node-level detection is local to each buoy, so every runner evaluates
it with the lockstep :class:`FleetDetector`, one group per sample grid.
``run_dutycycled_scenario`` steps its groups in batches of equal window
start time, so sentinel alarms wake the fleet in the per-node order.
The per-node :class:`NodeDetector` walks live in the tests as oracles.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.detection.cluster import (
    ClusterEvent,
    TemporaryCluster,
    TemporaryClusterConfig,
    TravelLine,
)
from repro.detection.fleet import FleetDetector
from repro.detection.node_detector import (
    NodeDetectorConfig,
    merge_reports,
    window_starts,
)
from repro.detection.preprocess import preprocess_z_counts, preprocess_z_counts_batch
from repro.detection.reports import ClusterReport, NodeReport, SinkDecision
from repro.detection.sid import SIDNode, SIDNodeConfig
from repro.detection.sink import Sink
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import BatteryDrain, FaultPlan
from repro.network.channel import Channel, ChannelConfig
from repro.network.mac import MacConfig
from repro.network.nodeproc import RetransmitPolicy, SensorNetwork
from repro.network.selfheal import OrphanEvent, SelfHealingConfig
from repro.physics.disturbance import Disturbance
from repro.rng import RandomState, derive_rng, make_rng
from repro.sanitize import Sanitizer
import numpy as np
from repro.scenario.deployment import DeployedNode, GridDeployment
from repro.sensors.accelerometer import Accelerometer
from repro.scenario.ship import ShipTrack
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.telemetry.session import Telemetry, maybe_stage
from repro.telemetry.tracer import Tracer
from repro.types import AccelTrace, TimeWindow

if TYPE_CHECKING:
    from repro.detection.dutycycle import DutyCycleConfig, DutyCycleController

__all__ = [
    "DutyCycledScenarioResult",
    "NetworkScenarioResult",
    "OfflineScenarioResult",
    "detect_and_fuse",
    "fuse_sequential_clusters",
    # Re-exported: sidbench's tracing wraps ``runner.preprocess_z_counts``.
    "preprocess_z_counts",
    "run_dutycycled_scenario",
    "run_network_scenario",
    "run_offline_scenario",
    "truth_windows_for",
]


# ----------------------------------------------------------------------
# Offline runner
# ----------------------------------------------------------------------
@dataclass
class OfflineScenarioResult:
    """Everything the controlled experiments need to score a run.

    ``cluster_outcomes`` holds every temporary-cluster evaluation in
    onset order (the offline runner forms clusters sequentially exactly
    like the online protocol: first unassigned report initiates, later
    reports join until the collection window closes).
    ``cluster_event`` / ``cluster_report`` summarise the best outcome —
    a confirmation if any cluster confirmed, else the last evaluation.
    """

    reports_by_node: dict[int, list[NodeReport]]
    merged_by_node: dict[int, list[NodeReport]]
    cluster_event: Optional[ClusterEvent]
    cluster_report: Optional[ClusterReport]
    truth_windows_by_node: dict[int, list[TimeWindow]]
    cluster_outcomes: list[tuple[ClusterEvent, Optional[ClusterReport]]] = field(
        default_factory=list
    )
    traces: dict[int, AccelTrace] = field(default_factory=dict)

    @property
    def all_reports(self) -> list[NodeReport]:
        """All window-level reports across nodes, by onset time."""
        out: list[NodeReport] = []
        for reports in self.reports_by_node.values():
            out.extend(reports)
        return sorted(out, key=lambda r: r.onset_time)

    @property
    def all_merged(self) -> list[NodeReport]:
        """All merged (per-event) reports across nodes."""
        out: list[NodeReport] = []
        for reports in self.merged_by_node.values():
            out.extend(reports)
        return sorted(out, key=lambda r: r.onset_time)


def truth_windows_for(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack],
    pad_s: float = 1.0,
) -> dict[int, list[TimeWindow]]:
    """Ground-truth disturbance windows per node, from the wake model."""
    out: dict[int, list[TimeWindow]] = {n.node_id: [] for n in deployment}
    for ship in ships:
        wake = ship.wake()
        for node in deployment:
            arrival = wake.arrival_time(node.anchor)
            duration = wake.train_duration_at(node.anchor)
            out[node.node_id].append(
                TimeWindow(arrival - pad_s, arrival + duration + pad_s)
            )
    return out


def _grid_groups(
    deployment: GridDeployment, traces: dict[int, AccelTrace]
) -> list[tuple[list[DeployedNode], np.ndarray]]:
    """Nodes grouped by sample-grid shape, each with its stacked z counts.

    Detector rows never interact, so each group can run its own lockstep
    :class:`FleetDetector`.  Groups keep deployment order.
    """
    groups: dict[tuple[int, ...], list[DeployedNode]] = {}
    for node in deployment:
        groups.setdefault(np.shape(traces[node.node_id].z), []).append(node)
    return [
        (nodes, np.stack([np.asarray(traces[n.node_id].z) for n in nodes]))
        for nodes in groups.values()
    ]


def _fleet_offline_reports(
    deployment: GridDeployment,
    traces: dict[int, AccelTrace],
    det_cfg: NodeDetectorConfig,
    tracer: Optional[Tracer] = None,
) -> tuple[dict[int, list[NodeReport]], int]:
    """Lockstep fleet detection per grid group: (reports, group count).

    A trace shorter than one window raises ``SignalLengthError``.
    """
    reports: dict[int, list[NodeReport]] = {n.node_id: [] for n in deployment}
    groups = _grid_groups(deployment, traces)
    for nodes, z in groups:
        fleet = FleetDetector.from_deployment(nodes, det_cfg)
        fleet.tracer = tracer
        reports.update(
            fleet.process_samples(
                preprocess_z_counts_batch(z, det_cfg.preprocess),
                [traces[n.node_id].t0 for n in nodes],
            )
        )
    return reports, len(groups)


def fuse_sequential_clusters(
    merged_all: Sequence[NodeReport],
    cluster_config: TemporaryClusterConfig | None,
    track_hypothesis: TravelLine | None,
) -> tuple[
    list[tuple[ClusterEvent, Optional[ClusterReport]]],
    Optional[ClusterEvent],
    Optional[ClusterReport],
]:
    """Form and evaluate sequential temporary clusters from reports.

    The online protocol's cluster formation, replayed offline: the
    earliest unassigned report initiates; reports inside the collection
    window join; the next report after the window opens a fresh cluster.
    Returns (all outcomes in onset order, best event, best report) —
    the best outcome is the first confirmation, else the last
    evaluation.
    """
    outcomes: list[tuple[ClusterEvent, Optional[ClusterReport]]] = []
    idx = 0
    while idx < len(merged_all):
        cluster = TemporaryCluster(merged_all[idx], cluster_config)
        idx += 1
        while idx < len(merged_all) and cluster.add_report(merged_all[idx]):
            idx += 1
        outcomes.append(cluster.evaluate(track_hypothesis))
    cluster_event: Optional[ClusterEvent] = None
    cluster_report: Optional[ClusterReport] = None
    for event, report in outcomes:
        cluster_event, cluster_report = event, report
        if event == ClusterEvent.CONFIRMED:
            break
    return outcomes, cluster_event, cluster_report


def _fuse_offline(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack],
    reports_by_node: dict[int, list[NodeReport]],
    cluster_config: TemporaryClusterConfig | None,
    track_hypothesis: TravelLine | None,
    telemetry: Optional[Telemetry],
    traces: dict[int, AccelTrace],
) -> OfflineScenarioResult:
    """Merge, fuse and score node reports (the offline runners' tail)."""
    merged_by_node = {
        nid: merge_reports(reports)
        for nid, reports in reports_by_node.items()
    }
    merged_all = sorted(
        (r for rs in merged_by_node.values() for r in rs),
        key=lambda r: r.onset_time,
    )
    if track_hypothesis is None and ships:
        track_hypothesis = ships[0].travel_line()
    with maybe_stage(telemetry, "fusion"):
        outcomes, cluster_event, cluster_report = fuse_sequential_clusters(
            merged_all, cluster_config, track_hypothesis
        )
    return OfflineScenarioResult(
        cluster_outcomes=outcomes,
        reports_by_node=reports_by_node,
        merged_by_node=merged_by_node,
        cluster_event=cluster_event,
        cluster_report=cluster_report,
        truth_windows_by_node=truth_windows_for(deployment, ships),
        traces=traces,
    )


def detect_and_fuse(
    deployment: GridDeployment,
    traces: dict[int, AccelTrace],
    ships: Sequence[ShipTrack] = (),
    detector_config: NodeDetectorConfig | None = None,
    cluster_config: TemporaryClusterConfig | None = None,
    track_hypothesis: TravelLine | None = None,
    keep_traces: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> OfflineScenarioResult:
    """Detect and fuse over already-synthesised traces, without a radio.

    The second half of :func:`run_offline_scenario`: node-level
    detection over ``traces`` (one per deployed node), then sequential
    temporary-cluster fusion.  ``traces`` and ``deployment`` are only
    read, so a sweep can synthesise once and score many detector
    configurations over the same traces.

    ``ships`` supply the ground-truth windows and, when
    ``track_hypothesis`` is ``None``, the default hypothesis: the first
    ship's line (the controlled setting of Tables I/II); pass an
    explicit hypothesis for no-ship runs.

    Detection is the lockstep fleet walk, one :class:`FleetDetector`
    per group of nodes sharing a sample grid (a ragged fleet simply
    runs several groups).

    ``telemetry`` (optional) traces detection events and profiles the
    detection/fusion stages (the ``detection`` span records
    ``fleet_groups``); ``None`` — the default — keeps the run free of
    any instrumentation overhead and bit-identical to a run before
    telemetry existed.
    """
    det_cfg = detector_config if detector_config is not None else NodeDetectorConfig()
    with maybe_stage(telemetry, "detection") as span:
        reports_by_node, n_groups = _fleet_offline_reports(
            deployment,
            traces,
            det_cfg,
            tracer=telemetry.tracer if telemetry is not None else None,
        )
        if span is not None:
            span.set(fleet_groups=n_groups)
    return _fuse_offline(
        deployment,
        ships,
        reports_by_node,
        cluster_config,
        track_hypothesis,
        telemetry,
        traces=traces if keep_traces else {},
    )


def run_offline_scenario(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    detector_config: NodeDetectorConfig | None = None,
    cluster_config: TemporaryClusterConfig | None = None,
    synthesis_config: SynthesisConfig | None = None,
    disturbances_by_node: dict[int, list[Disturbance]] | None = None,
    track_hypothesis: TravelLine | None = None,
    keep_traces: bool = False,
    seed: RandomState = None,
    telemetry: Optional[Telemetry] = None,
) -> OfflineScenarioResult:
    """Synthesise, detect, and fuse one scenario without a radio.

    :func:`synthesize_fleet_traces` (``seed`` feeds it alone) followed
    by :func:`detect_and_fuse`, which documents the other parameters;
    ``telemetry`` also profiles the synthesis stage.  Sweeps over
    detection parameters call the two halves themselves, synthesising
    once per trace-determining input rather than once per setting.
    """
    synth = synthesis_config if synthesis_config is not None else SynthesisConfig()
    with maybe_stage(telemetry, "synthesis", method=synth.synthesis_method):
        traces = synthesize_fleet_traces(
            deployment,
            ships,
            synth,
            disturbances_by_node=disturbances_by_node,
            seed=seed,
        )
    return detect_and_fuse(
        deployment,
        traces,
        ships,
        detector_config=detector_config,
        cluster_config=cluster_config,
        track_hypothesis=track_hypothesis,
        keep_traces=keep_traces,
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# Networked runner
# ----------------------------------------------------------------------
@dataclass
class NetworkScenarioResult:
    """Outcome of a full discrete-event run.

    ``fault_stats`` merges the injection counters (what the
    :class:`~repro.faults.plan.FaultPlan` actually did) with the
    resilience counters (what the degradation machinery absorbed);
    it is empty for unfaulted runs.
    """

    decisions: tuple[SinkDecision, ...]
    mac_stats: dict[str, int]
    lost_to_partition: int
    sink_frames: int
    fault_stats: dict[str, float] = field(default_factory=dict)
    degraded_decisions: int = 0
    degraded_cluster_reports: int = 0
    resyncs_performed: int = 0
    clock_rms_error_s: float = 0.0
    #: Orphaned-subtree episodes (node ids + duration), recorded
    #: whether or not healing was armed.
    degradation_events: tuple[OrphanEvent, ...] = ()

    @property
    def intrusion_detected(self) -> bool:
        """True when any sink decision confirmed an intrusion."""
        return any(d.intrusion for d in self.decisions)

    #: Keys in ``fault_stats`` that count degradation work absorbed,
    #: not faults injected.
    RESILIENCE_KEYS = frozenset(
        {
            "report_retransmits",
            "stale_reports_dropped",
            "frames_dropped_dead_node",
            "subtrees_orphaned",
            "reroutes",
            "parents_declared_dead",
            "frames_healed",
            "hop_retransmits",
            "relay_frames_abandoned",
            "relay_queue_drops",
            "relay_dups_dropped",
            "sentinel_demotions",
            "cold_restarts",
            "baseline_blind_window_s",
        }
    )
    #: Volume metrics (per-sample tallies), not discrete fault events.
    VOLUME_KEYS = frozenset({"sensor_samples_faulted"})

    @property
    def faults_injected(self) -> int:
        """Total discrete fault events injected across all layers."""
        skip = self.RESILIENCE_KEYS | self.VOLUME_KEYS
        return sum(
            v for k, v in self.fault_stats.items() if k not in skip
        )


def _effective_crashes(
    faults: FaultPlan | None, node_ids: Sequence[int], now: float
) -> dict[int, list[tuple[float, float]]]:
    """Each node's ``(crash, reboot)`` outages as the event loop applies them.

    Crash events are scheduled at install time, so they pop in
    ``(max(at_s, now), plan index)`` order — and before any run-time
    reboot at the same instant.  ``FaultInjector._crash`` ignores a
    crash on a node that is still down, so such a crash (and the reboot
    it would have scheduled) has no effect; it is dropped here.  A crash
    without reboot keeps its node down for good (``reboot = inf``).
    """
    out: dict[int, list[tuple[float, float]]] = {nid: [] for nid in node_ids}
    if faults is None:
        return out
    order = sorted(
        range(len(faults.node_crashes)),
        key=lambda k: (max(faults.node_crashes[k].at_s, now), k),
    )
    for k in order:
        crash = faults.node_crashes[k]
        outages = out.get(crash.node_id)
        if outages is None:
            continue
        lo = max(crash.at_s, now)
        if outages and lo <= outages[-1][1]:
            continue
        hi = (
            lo + crash.reboot_after_s
            if crash.reboot_after_s is not None
            else math.inf
        )
        outages.append((lo, hi))
    return out


def _fleet_network_outcomes(
    deployment: GridDeployment,
    traces: dict[int, AccelTrace],
    det_cfg: NodeDetectorConfig,
    faults: FaultPlan | None,
    now: float,
    cold_restarts: bool,
) -> tuple[dict[int, list[tuple[int, Optional[NodeReport], bool]]], int]:
    """Precompute every node's window outcomes for the event loop.

    Detection is purely local (no radio feedback reaches eqs. 4-8), so
    the whole fleet's Delta-t walk can run vectorized before the
    discrete-event simulation starts, one lockstep group per sample
    grid.  The run-time influences on a node's detector state are all
    fixed by the fault plan up front:

    * a *skipped* window — a crashed node's ``feed_outcome`` returns
      before the window reaches the node — so the walk masks out
      exactly the windows whose end times land inside an effective
      crash interval;
    * with ``cold_restarts`` (healing armed without a persisted
      baseline) a reboot resets the node's baseline, so the walk resets
      that row just before the first window ending after the reboot.

    (Battery depletion also skips windows, but a depleted node never
    comes back, so discarding its precomputed outcomes at feed time is
    observably identical.)

    Returns ``{node_id: [(start, report-or-None, seeded_after)]}`` with
    one entry per *evaluated* window, and the number of grid groups.
    """
    out: dict[int, list[tuple[int, Optional[NodeReport], bool]]] = {
        n.node_id: [] for n in deployment
    }
    outages = _effective_crashes(faults, list(out), now)
    rate = det_cfg.rate_hz
    w = det_cfg.window_samples
    groups = _grid_groups(deployment, traces)
    for nodes, z in groups:
        starts = window_starts(det_cfg, z.shape[1])
        if not starts:
            continue
        # Window start/end times, (nodes, windows), with the event
        # loop's own float arithmetic: t_start = t0 + start / rate,
        # t_end = t_start + w / rate.
        t_starts = (
            np.array([float(traces[n.node_id].t0) for n in nodes])[:, None]
            + (np.asarray(starts) / rate)[None, :]
        )
        t_ends = t_starts + w / rate
        # A window is skipped iff its end time falls inside [crash,
        # reboot] (both ends inclusive): the crash event is scheduled at
        # install time, before the feed events, so it pops first on a
        # time tie; the reboot event is scheduled during the run, after
        # the feeds, so the feed at the reboot instant still sees a dead
        # node.
        active = np.ones(t_ends.shape, dtype=bool)
        resets: dict[int, list[int]] = {}
        for i, node in enumerate(nodes):
            for lo, hi in outages[node.node_id]:
                active[i] &= (t_ends[i] < lo) | (t_ends[i] > hi)
                if cold_restarts and hi < math.inf:
                    k = int(np.searchsorted(t_ends[i], hi, side="right"))
                    resets.setdefault(k, []).append(i)
        a = preprocess_z_counts_batch(z, det_cfg.preprocess)
        fleet = FleetDetector.from_deployment(nodes, det_cfg)
        rows = [out[n.node_id] for n in nodes]
        for k, start in enumerate(starts):
            if k in resets:
                fleet.reset(resets[k])
            act = active[:, k]
            reports = fleet.step(
                a[:, start : start + w], t_starts[:, k].tolist(), active=act
            )
            seeded = fleet.seeded.tolist()
            for i in np.flatnonzero(act).tolist():
                rows[i].append((start, reports[i], seeded[i]))
    return out, len(groups)


def _head_active_intervals(
    outcomes: dict[int, list[tuple[int, Optional[NodeReport], bool]]],
    traces: dict[int, AccelTrace],
    det_cfg: NodeDetectorConfig,
    guard_s: float,
) -> dict[int, list[tuple[float, float]]]:
    """Per-node time intervals in which its SID state can do real work.

    A node's report-less window feeds and timer ticks have observable
    effects beyond battery billing only while that node *heads an open
    temporary cluster* — and a cluster opens exclusively at one of the
    node's own report-dispatch feeds (``_actions_for_report`` with a
    non-None report) and closes no later than its collection deadline
    plus one tick of slack.  So each node's intervals start at its own
    report window end times and extend ``guard_s`` past them; outside
    the merged union the node is provably not an active head, its
    ``on_timer`` returns without touching anything, and membership /
    baseline-init bookkeeping defers benignly to the next retained
    event (every SID entry point re-runs ``_expire_membership`` with
    the same clock comparison, and ``on_cluster_setup`` overwrites
    membership unconditionally for non-heads).
    """
    rate = det_cfg.rate_hz
    w = det_cfg.window_samples
    per_node: dict[int, list[tuple[float, float]]] = {}
    for node_id, rows in outcomes.items():
        t0 = traces[node_id].t0
        merged: list[tuple[float, float]] = []
        for start, report, _seeded in rows:
            if report is None:
                continue
            t = t0 + (start + w) / rate
            hi = t + guard_s
            if merged and t <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((t, hi))
        per_node[node_id] = merged
    return per_node


def _elision_guard_s(
    cfg: SIDNodeConfig, retransmit: Optional[RetransmitPolicy]
) -> float:
    """Upper bound on a node's open-cluster lifetime after a dispatch.

    A cluster opened at dispatch time has its deadline at most
    ``collection_timeout_s`` later (deadlines anchor on the initiating
    report's onset, which precedes the dispatch) and is evaluated by
    the first head entry point after it — within one window of ticks.
    A retransmit policy can keep the head's own report traffic alive up
    to its staleness cutoff.  Overestimating only shrinks the elided
    region — it never costs correctness.
    """
    staleness = retransmit.staleness_s if retransmit is not None else 0.0
    return (
        cfg.cluster.collection_timeout_s
        + 2.0 * cfg.detector.window_s
        + staleness
        + 1.0
    )


def _billing_order_free(
    deployment: GridDeployment,
    outcomes: dict[int, list[tuple[int, Optional[NodeReport], bool]]],
    det_cfg: NodeDetectorConfig,
    retransmit: Optional[RetransmitPolicy],
) -> bool:
    """True when no battery can possibly deplete during the event loop.

    Deferring a quiet window's ``draw_cpu`` to a batched catch-up event
    reorders it against interleaved radio draws; energy sums commute,
    so the reorder is observable only through the depletion gate (and
    the low-charge watch, whose runs the caller keeps off elision).
    This check proves depletion unreachable: each battery's remaining
    charge must exceed its full-run CPU billing plus a crude upper bound
    on fleet-wide radio traffic — every report dispatch can fan out
    floods and relays to every node, retried in full and generously
    oversized per frame.  A deployment running batteries tight enough
    to fail this simply keeps the one-event-per-window schedule.
    """
    n_nodes = sum(1 for _ in deployment)
    n_dispatches = sum(
        1 for rows in outcomes.values() for _, r, _ in rows if r is not None
    )
    retries = 1 + (retransmit.max_attempts if retransmit is not None else 0)
    frame_bytes_bound = n_dispatches * 4 * (n_nodes + 1) * retries * 512
    cpu_s_per_window = 0.001 * det_cfg.window_samples
    for node in deployment:
        battery = node.mote.battery
        if battery is None:
            continue
        costs = battery.costs
        cpu_j = (
            len(outcomes[node.node_id]) * cpu_s_per_window * costs.cpu_j_per_s
        )
        radio_j = frame_bytes_bound * max(
            costs.tx_j_per_byte, costs.rx_j_per_byte
        )
        if battery.remaining_j <= 2.0 * (cpu_j + radio_j):
            return False
    return True


def run_network_scenario(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    sid_config: SIDNodeConfig | None = None,
    synthesis_config: SynthesisConfig | None = None,
    disturbances_by_node: dict[int, list[Disturbance]] | None = None,
    channel_config: ChannelConfig | None = None,
    mac_config: MacConfig | None = None,
    track_hypothesis: TravelLine | None = None,
    faults: FaultPlan | None = None,
    retransmit: RetransmitPolicy | None = None,
    healing: SelfHealingConfig | None = None,
    resync_interval_s: float | None = 120.0,
    seed: RandomState = None,
    telemetry: Optional[Telemetry] = None,
    sanitizer: Optional[Sanitizer] = None,
) -> NetworkScenarioResult:
    """Run one scenario through the full network stack.

    Every node's synthesised trace is preprocessed and its Delta-t
    windows are evaluated up front by the lockstep fleet engine (one
    group per sample grid; detection is local, so this is exact); the
    outcomes replay into each node's SID state machine at the window
    end times, and protocol traffic rides the lossy simulated radio.

    ``faults`` injects the plan's sensor / node / network pathologies
    into the run; an absent or empty plan leaves every code path — and
    every random stream — exactly as the unfaulted runner draws them.
    An active plan also arms the degradation machinery: degraded-quorum
    cluster evaluation and report retransmission (the latter can be
    tuned or forced on independently via ``retransmit``).

    ``healing`` arms the self-healing runtime (route repair around
    dead parents, hop-by-hop relay retries, cold-restart recovery,
    battery-triggered sentinel demotion).  ``None`` — the default —
    installs nothing and keeps every path bit-identical to the
    pre-healing transport.  A cold restart resets a node's eq. 5
    baseline at its reboot, and the plan fixes every reboot time before
    the run starts, so the fleet precompute resets the node's detector
    row at the same point.

    ``resync_interval_s`` schedules a periodic fleet-wide time-sync
    beacon (None disables it); crashed nodes miss their beacons and a
    plan's :class:`~repro.faults.plan.ClockSyncFailure` suppresses
    them per node, letting drift accumulate unbounded.

    ``telemetry`` (optional) traces the run end to end — frame
    tx/rx/drop, heal/fault/detection events, profiling spans — and
    mirrors the terminal counters into its metrics registry (the
    ``detection_precompute`` span records ``fleet_groups``).  ``None``
    (the default) installs nothing: every emission site reduces to one
    attribute check and the run stays bit-identical to seed.

    Quiet-tick elision skips scheduling provably-no-op window feeds and
    timer ticks during radio-quiet stretches, coalescing their battery
    billing into batched catch-up events with arithmetically identical
    draws.  The inputs alone decide it: it engages only when no fault
    plan is active, no low-charge watch is armed and no battery can
    deplete (``_billing_order_free``); otherwise every window gets its
    own feed event.  The result is bit-identical either way.

    ``sanitizer`` (optional) attaches a :class:`repro.sanitize.
    Sanitizer` recording probe: per-event shadow access sets, order-
    race detection at shared timestamps, RNG stream provenance, and a
    battery-billing audit reconciled against the schedule this runner
    declares (DESIGN.md §15).  Recording never perturbs the run — the
    tracked RNG streams share their originals' bit generators — so a
    sanitized run is digest-identical to an unsanitized one; call
    ``sanitizer.report()`` after the run for the findings.
    """
    if resync_interval_s is not None and resync_interval_s <= 0:
        raise ConfigurationError(
            f"resync_interval_s must be positive, got {resync_interval_s}"
        )
    tracer = telemetry.tracer if telemetry is not None else None
    base = make_rng(seed)
    root = int(base.integers(2**31))
    cfg = sid_config if sid_config is not None else SIDNodeConfig()
    synth = synthesis_config if synthesis_config is not None else SynthesisConfig()
    injector = FaultInjector(faults, tracer=tracer)
    if injector.active:
        # Degraded-quorum evaluation rides along with fault injection
        # unless the caller already configured it explicitly.
        if not cfg.cluster.allow_degraded:
            cfg = replace(
                cfg, cluster=replace(cfg.cluster, allow_degraded=True)
            )
        if retransmit is None:
            retransmit = RetransmitPolicy()
    # Sensor faults intercept the digitisation step: each afflicted
    # mote's accelerometer is decorated for the duration of synthesis.
    wrapped: list[tuple[object, Accelerometer]] = []
    for node in deployment:
        wrapper = injector.sensor_wrapper(
            node.node_id,
            node.mote.accelerometer,
            t0=synth.t0,
            rate_hz=node.mote.config.sample_rate_hz,
        )
        if wrapper is not None:
            wrapped.append((node.mote, node.mote.accelerometer))
            node.mote.accelerometer = wrapper
    try:
        with maybe_stage(telemetry, "synthesis", method=synth.synthesis_method):
            traces = synthesize_fleet_traces(
                deployment,
                ships,
                synth,
                disturbances_by_node=disturbances_by_node,
                seed=derive_rng(root, "synthesis"),
            )
    finally:
        for mote, healthy in wrapped:
            mote.accelerometer = healthy
    sink = Sink(tracer=tracer)
    channel = Channel(channel_config, seed=derive_rng(root, "channel"))
    network = SensorNetwork(
        positions=deployment.positions(),
        sink_id=deployment.sink_id,
        sink_position=deployment.sink_position,
        sink=sink,
        channel=injector.wrap_channel(channel),
        mac_config=mac_config,
        retransmit=retransmit,
        healing=healing,
        seed=derive_rng(root, "network"),
        telemetry=telemetry,
    )
    injector.install(network)
    if sanitizer is not None:
        # Recording mode (DESIGN.md §15): probe the event loop, track
        # the MAC/channel RNG streams, and audit the sink.  Per-node
        # instrumentation follows in the deployment loop, before any
        # node callbacks are scheduled.
        sanitizer.attach_network(network)
    watch_low = (
        healing is not None and healing.demote_battery_fraction is not None
    )
    if watch_low:
        # Fault-aware duty cycling: a drained battery demotes its node
        # to sentinel (non-relaying) duty through the healing runtime.
        for node in deployment:
            node.mote.battery.watch_low(
                healing.demote_battery_fraction,
                lambda nid=node.node_id: network.heal.demote(nid),
            )
    # Unlike the controlled offline experiments, the online system has
    # no ground-truth sailing line: unless the caller supplies a
    # hypothesis explicitly, each temporary-cluster head fits the line
    # from its own reports (TravelLine.fit_from_reports).

    window = cfg.detector.window_samples
    # Healing cold-restarts a rebooted node's baseline unless it is
    # persisted; the precompute replays those resets at the planned
    # reboot times.  Its FleetDetector stays untraced: its alarms replay
    # through each SIDNode at event time, which is where they are
    # emitted (tracing both would double-count every alarm).
    with maybe_stage(telemetry, "detection_precompute") as span:
        outcomes, n_groups = _fleet_network_outcomes(
            deployment,
            traces,
            cfg.detector,
            faults,
            network.sim.now,
            cold_restarts=(
                healing is not None and not healing.persist_baseline
            ),
        )
        if span is not None:
            span.set(fleet_groups=n_groups)
    # Quiet-tick elision: with no fault plan, the precompute tells us
    # every moment each node can originate protocol traffic — and
    # thereby every stretch in which it could head an open cluster.  Outside its own guarded intervals a node's
    # report-less window feeds and timer ticks are provably no-ops
    # except for their battery billing, so each quiet run collapses
    # into one catch-up event and its ticks are dropped outright (ticks
    # never bill).  Billing batched this way commutes only while
    # depletion is unreachable, hence the headroom precondition, and
    # while no low-charge watch can fire on the reordered draws.
    elide = (
        not injector.active
        and not watch_low
        and _billing_order_free(deployment, outcomes, cfg.detector, retransmit)
    )
    active: dict[int, list[tuple[float, float]]] = {}
    if elide:
        active = _head_active_intervals(
            outcomes,
            traces,
            cfg.detector,
            _elision_guard_s(cfg, retransmit),
        )

    def _in_active(
        t: float, intervals: list[tuple[float, float]], cursor: list[int]
    ) -> bool:
        # Monotone queries only: the cursor never rewinds.
        i = cursor[0]
        while i < len(intervals) and intervals[i][1] < t:
            i += 1
        cursor[0] = i
        return i < len(intervals) and intervals[i][0] <= t

    for node in deployment:
        sid = SIDNode(
            node.node_id, node.anchor, cfg, track_hint=track_hypothesis
        )
        proc = network.add_node(sid, battery=node.mote.battery)
        trace = traces[node.node_id]
        if sanitizer is not None:
            sanitizer.track_node(proc)
        # Replay the precomputed outcomes at their window end times (a
        # masked-out crash window schedules nothing — its feed would
        # have fired as a no-op on a dead node).
        intervals = active.get(node.node_id, [])
        cursor = [0]
        quiet_n = 0
        quiet_last = 0.0
        for start, report, seeded in outcomes[node.node_id]:
            t_start = trace.t0 + start / cfg.detector.rate_hz
            t_end = t_start + window / cfg.detector.rate_hz
            if (
                elide
                and report is None
                and not _in_active(t_end, intervals, cursor)
            ):
                quiet_n += 1
                quiet_last = t_end
                continue
            if quiet_n:
                network.sim.schedule_at(
                    quiet_last,
                    proc.catch_up_quiet_windows,
                    quiet_n,
                    window,
                )
                quiet_n = 0
            network.sim.schedule_at(
                t_end,
                proc.feed_outcome,
                report,
                window,
                t_start,
                seeded,
            )
        if quiet_n:
            network.sim.schedule_at(
                quiet_last, proc.catch_up_quiet_windows, quiet_n, window
            )
        if sanitizer is not None and proc.battery is not None:
            # Declared billing intent: each window bills draw_cpu
            # seconds of 0.001*window, so the per-window joule amount
            # replicates Battery.draw_cpu's op order bit-exactly.
            sanitizer.expect_cpu_billing(
                node.node_id,
                len(outcomes[node.node_id]),
                (0.001 * window) * proc.battery.costs.cpu_j_per_s,
                strict=not injector.active,
            )
        # Timer ticks keep cluster deadlines firing after sampling ends.
        horizon = trace.t0 + trace.duration + 2 * cfg.cluster.collection_timeout_s
        if elide:
            intervals = active.get(node.node_id, [])
            cursor = [0]
            t = trace.t0 + cfg.detector.window_s
            while t < horizon:
                if _in_active(t, intervals, cursor):
                    network.sim.schedule_at(t, proc.tick)
                t += cfg.detector.window_s
        else:
            network.sim.schedule_periodic(
                cfg.detector.window_s,
                proc.tick,
                first=trace.t0 + cfg.detector.window_s,
                until=horizon,
            )

    # Periodic fleet-wide time-sync beacons (Sec. IV-C assumes the
    # network keeps "synchronized time ... within certain precision").
    # Crashed nodes and plan-suppressed nodes skip theirs, so their
    # clocks drift unbounded until a reboot or the next beacon heard.
    resyncs_performed = [0]
    sync_horizon = (
        synth.t0 + synth.duration_s + 2 * cfg.cluster.collection_timeout_s
    )

    def _resync(node: DeployedNode) -> None:
        proc = network.nodes.get(node.node_id)
        if proc is not None and not proc.alive:
            return
        if injector.sync_suppressed(node.node_id, network.sim.now):
            return
        node.mote.synchronize_clock(network.sim.now)
        resyncs_performed[0] += 1

    if resync_interval_s is not None:
        # One periodic per node, created in node order: at every beacon
        # time the fixed per-event seqs replay the old
        # outer-time/inner-node ordering exactly.
        for node in deployment:
            network.sim.schedule_periodic(
                resync_interval_s,
                _resync,
                node,
                first=synth.t0 + resync_interval_s,
                until=sync_horizon,
            )

    with maybe_stage(telemetry, "event_loop") as span:
        loop_t0 = time.perf_counter()
        network.sim.run()
        loop_wall = time.perf_counter() - loop_t0
        sched_stats = network.sim.stats()
        sched_stats["events_per_s"] = (
            sched_stats["events_executed"] / loop_wall
            if loop_wall > 0
            else 0.0
        )
        if span is not None:
            span.set(**sched_stats)
    sink.flush()
    network.finalize_resilience()
    errors = [
        node.mote.clock.error_at(sync_horizon) for node in deployment
    ]
    clock_rms = (
        math.sqrt(sum(e * e for e in errors) / len(errors))
        if errors
        else 0.0
    )
    fault_stats: dict[str, float] = {}
    if injector.active or healing is not None:
        fault_stats = {
            **injector.stats.as_dict(),
            **network.resilience.as_dict(),
        }
    if telemetry is not None:
        # Mirror the run's terminal counters into the metrics registry
        # so traces and metrics agree without a second bookkeeping path.
        telemetry.record_stats("mac", network.mac.stats.as_dict())
        telemetry.record_stats("scheduler", sched_stats)
        if fault_stats:
            telemetry.record_stats("fault_stats", fault_stats)
    return NetworkScenarioResult(
        decisions=sink.decisions,
        mac_stats=network.mac.stats.as_dict(),
        lost_to_partition=network.lost_to_partition,
        sink_frames=network.sink_node.received_frames,
        fault_stats=fault_stats,
        degraded_decisions=sum(1 for d in sink.decisions if d.degraded),
        degraded_cluster_reports=sum(
            sum(1 for r in d.cluster_reports if r.degraded)
            for d in sink.decisions
        ),
        resyncs_performed=resyncs_performed[0],
        clock_rms_error_s=clock_rms,
        degradation_events=tuple(network.degradation_events),
    )


# ----------------------------------------------------------------------
# Duty-cycled runner (Sec. IV-A power management)
# ----------------------------------------------------------------------
@dataclass
class DutyCycledScenarioResult:
    """Outcome of a duty-cycled run."""

    reports_by_node: dict[int, list[NodeReport]]
    merged_by_node: dict[int, list[NodeReport]]
    controller: "DutyCycleController"
    first_alarm_time: Optional[float]
    truth_windows_by_node: dict[int, list[TimeWindow]]

    @property
    def n_reports(self) -> int:
        """Total window-level reports raised."""
        return sum(len(v) for v in self.reports_by_node.values())

    @property
    def sentinel_demotions(self) -> int:
        """Nodes demoted to coarse sentinel duty by battery drain."""
        return self.controller.sentinel_demotions


def _dutycycled_reports(
    deployment: GridDeployment,
    traces: dict[int, AccelTrace],
    det_cfg: NodeDetectorConfig,
    coarse_cfg: NodeDetectorConfig,
    decimation: int,
    controller: "DutyCycleController",
    faults: FaultPlan | None,
) -> tuple[dict[int, list[NodeReport]], Optional[float], int]:
    """The duty-cycled walk: (reports, first alarm, fleet group count).

    Windows replay in the per-node spec's global ``(t0, node_id,
    start)`` order, one batch of equal window start time ``t`` at a
    time.  Each grid group runs a fine and a coarse
    :class:`FleetDetector`; a batch steps them once per group and start
    index, masked to the rows' branches, then replays the reports in
    node order.  An alarm raised in the batch opens its wake-up at
    ``onset + wakeup_latency_s``, which is after ``t`` unless
    ``t + wakeup_latency_s == t``; only then, and only while the fleet
    is not already awake, do the batch's rows step one at a time, so an
    alarm wakes the rows after it at the same instant.

    An active fault plan runs the row-local battery model: drains
    accelerate at their onset, a depleted node skips its windows, every
    evaluated window bills its samples, and a charge below
    ``demote_battery_fraction`` demotes the node to coarse sentinel
    duty before its window is evaluated.
    """
    window = det_cfg.window_samples
    coarse_window = coarse_cfg.window_samples
    groups = _grid_groups(deployment, traces)
    # Per group: fine fleet, coarse fleet, and their preprocessed rows.
    lanes: list[tuple[FleetDetector, FleetDetector, np.ndarray, np.ndarray]] = []
    # Window start time -> (node_id, group, row, start) entries.
    batches: dict[float, list[tuple[int, int, int, int]]] = {}
    for g, (nodes, z) in enumerate(groups):
        pre = preprocess_z_counts_batch(z, det_cfg.preprocess)
        lanes.append(
            (
                FleetDetector.from_deployment(nodes, det_cfg),
                FleetDetector.from_deployment(nodes, coarse_cfg),
                pre,
                preprocess_z_counts_batch(
                    z[:, ::decimation], coarse_cfg.preprocess
                ),
            )
        )
        starts = window_starts(det_cfg, pre.shape[1])
        for i, node in enumerate(nodes):
            t_base = traces[node.node_id].t0
            for start in starts:
                t = t_base + start / det_cfg.rate_hz
                batches.setdefault(t, []).append((node.node_id, g, i, start))

    plan_active = faults is not None and faults.active
    pending_drains: dict[int, list[BatteryDrain]] = {}
    if faults is not None and plan_active:
        for drain in sorted(faults.battery_drains, key=lambda d: d.at_s):
            pending_drains.setdefault(drain.node_id, []).append(drain)
    batteries = {n.node_id: n.mote.battery for n in deployment}
    demote_frac = controller.config.demote_battery_fraction
    latency = controller.config.wakeup_latency_s
    reports_by_node: dict[int, list[NodeReport]] = {
        n.node_id: [] for n in deployment
    }
    first_alarm: Optional[float] = None
    for t in sorted(batches):
        batch = sorted(batches[t])
        # Only a wake-up starting at t itself can change the masks
        # of this batch's later rows.
        serial = t + latency == t and not controller.in_wakeup(t)
        # A row appears once per batch and only its own step flips its
        # flag, so one read serves every unit.
        seeded = [lane[0].seeded for lane in lanes]
        for unit in [[e] for e in batch] if serial else [batch]:
            wake = controller.in_wakeup(t) or decimation == 1
            # (group, start) -> (fine mask, coarse mask) of rows to step.
            masks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
            # Evaluated rows in node order: (node_id, group, row, start,
            # coarse branch).
            picks: list[tuple[int, int, int, int, bool]] = []
            for nid, g, i, start in unit:
                battery = batteries[nid]
                if plan_active:
                    drains = pending_drains.get(nid)
                    while drains and drains[0].at_s <= t:
                        battery.accelerate_drain(drains.pop(0).factor)
                    if battery.depleted:
                        continue
                if (g, start) not in masks:
                    n_rows = len(seeded[g])
                    masks[g, start] = (
                        np.zeros(n_rows, dtype=bool),
                        np.zeros(n_rows, dtype=bool),
                    )
                fine_mask, coarse_mask = masks[g, start]
                if not seeded[g][i]:
                    # Initialization windows always run (right after
                    # deployment, before the duty cycle engages); both
                    # rate variants build their baselines here.
                    if plan_active:
                        battery.draw_samples(window)
                    fine_mask[i] = coarse_mask[i] = True
                    continue
                if (
                    plan_active
                    and demote_frac is not None
                    and not controller.is_demoted(nid)
                    and battery.fraction_remaining < demote_frac
                ):
                    controller.demote(nid, t)
                if not controller.is_active(nid, t):
                    continue
                coarse = not wake or controller.is_demoted(nid)
                if coarse:
                    # Sentinel mode: coarse detection at the reduced
                    # rate, skipped on a short trailing coarse segment.
                    if start // decimation + coarse_window > lanes[g][3].shape[1]:
                        continue
                    coarse_mask[i] = True
                else:
                    fine_mask[i] = True
                if plan_active:
                    battery.draw_samples(coarse_window if coarse else window)
                picks.append((nid, g, i, start, coarse))
            # (group, start) -> (fine reports, coarse reports).
            stepped: dict[tuple[int, int], tuple[list, list]] = {}
            for (g, start), (fine_mask, coarse_mask) in masks.items():
                fine, coarse_fleet, pre, coarse_pre = lanes[g]
                c_start = start // decimation
                t0s = [t] * len(fine_mask)
                stepped[g, start] = (
                    fine.step(
                        pre[:, start : start + window], t0s, active=fine_mask
                    )
                    if fine_mask.any()
                    else [],
                    coarse_fleet.step(
                        coarse_pre[:, c_start : c_start + coarse_window],
                        t0s,
                        active=coarse_mask,
                    )
                    if coarse_mask.any()
                    else [],
                )
            for nid, g, i, start, coarse in picks:
                fine_out, coarse_out = stepped[g, start]
                report = (coarse_out if coarse else fine_out)[i]
                if report is not None:
                    reports_by_node[nid].append(report)
                    controller.alarm(report.onset_time)
                    if first_alarm is None:
                        first_alarm = report.onset_time
    return reports_by_node, first_alarm, len(groups)


def run_dutycycled_scenario(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    detector_config: NodeDetectorConfig | None = None,
    duty_config: "DutyCycleConfig | None" = None,
    synthesis_config: SynthesisConfig | None = None,
    disturbances_by_node: dict[int, list[Disturbance]] | None = None,
    faults: FaultPlan | None = None,
    seed: RandomState = None,
    telemetry: Optional[Telemetry] = None,
) -> DutyCycledScenarioResult:
    """Run the Sec. IV-A sentinel/wake-up policy over one scenario.

    Nodes only evaluate detection windows while active; the first
    sentinel alarm wakes the whole fleet after the configured latency,
    so most nodes sleep through quiet water yet still catch the ship.
    Windows are processed in global time order so an alarm at t can
    wake other nodes for their windows after t.

    ``faults`` (only :class:`~repro.faults.plan.BatteryDrain` entries
    apply here) turns on battery accounting: every evaluated window
    bills its sampling energy, drains accelerate at their onset, a
    depleted node skips its windows, and — when
    ``DutyCycleConfig.demote_battery_fraction`` is set — a node whose
    charge crosses the watermark is permanently demoted to coarse
    sentinel duty.  ``faults=None`` (the default) bills nothing and
    stays bit-identical to the pre-fault runner.

    Detection runs one fine and one coarse :class:`FleetDetector` per
    group of nodes sharing a sample grid, stepped one batch of equal
    window start time at a time in the per-node spec's ``(t0,
    node_id)`` order.  A batch whose alarms could wake the fleet at the
    same instant (``t + wakeup_latency_s == t``) steps its rows one at
    a time; every input (fault plan, any latency, ragged grids) takes
    this one walk.

    ``telemetry`` (optional) traces duty-cycle policy activity —
    fleet wake-ups and sentinel demotions — and records profiling
    spans (the ``detection`` span records ``fleet_groups``); ``None``
    (the default) adds nothing to the run.
    """
    from repro.detection.dutycycle import DutyCycleController

    synth = synthesis_config if synthesis_config is not None else SynthesisConfig()
    det_cfg = detector_config if detector_config is not None else NodeDetectorConfig()
    with maybe_stage(telemetry, "synthesis", method=synth.synthesis_method):
        traces = synthesize_fleet_traces(
            deployment,
            ships,
            synth,
            disturbances_by_node=disturbances_by_node,
            seed=seed,
        )
    controller = DutyCycleController(
        [n.node_id for n in deployment],
        duty_config,
        tracer=telemetry.tracer if telemetry is not None else None,
    )
    # Sentinels run a coarse (decimated) detection; the wake-up raises
    # the rate back to full (Sec. IV-A).  Coarse detection keeps its own
    # detector instances because the baseline statistics are
    # rate-specific.
    coarse_hz = controller.config.coarse_rate_hz
    decimation = (
        max(int(round(det_cfg.rate_hz / coarse_hz)), 1)
        if coarse_hz is not None
        else 1
    )
    coarse_cfg = (
        replace(
            det_cfg,
            rate_hz=det_cfg.rate_hz / decimation,
            preprocess=replace(
                det_cfg.preprocess,
                rate_hz=det_cfg.preprocess.rate_hz / decimation,
            ),
        )
        if decimation > 1
        else det_cfg
    )
    with maybe_stage(telemetry, "detection") as span:
        reports_by_node, first_alarm, n_groups = _dutycycled_reports(
            deployment,
            traces,
            det_cfg,
            coarse_cfg,
            decimation,
            controller,
            faults,
        )
        if span is not None:
            span.set(fleet_groups=n_groups)
    return DutyCycledScenarioResult(
        reports_by_node=reports_by_node,
        merged_by_node={
            nid: merge_reports(reports)
            for nid, reports in reports_by_node.items()
        },
        controller=controller,
        first_alarm_time=first_alarm,
        truth_windows_by_node=truth_windows_for(deployment, ships),
    )
