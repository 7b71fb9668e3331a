"""Reference oracles for the scenario runners, and the test-side feeds.

The runners evaluate node-level detection (eqs. 4-8) with the lockstep
fleet engine only, and ambient synthesis under ``"spectral"`` with one
batched inverse FFT.  The reference formulations live here, so tests
can demand bit-identical results from the fast paths:

- :func:`reference_offline` — one scalar detector
  (:class:`tests.detection.oracles.ScalarNodeDetector`) walking each
  node's own trace;
- :func:`reference_network` — one scalar detector per deployed node,
  stepped at event time behind the node's alive/depleted gates
  and reset by a cold restart, on the full one-event-per-window
  schedule;
- :func:`reference_dutycycled` — one window at a time in global time
  order;
- :func:`reference_spectral_synthesis` — the snapped ``"spectral"``
  field evaluated through the time-domain engine.

:func:`feed_window` is the per-node way into the protocol stack — a
detector's outcome for one raw window — for tests that drive
:class:`SIDNode` or :class:`NetworkNode` by hand, and
:func:`full_schedule` forces the schedule without quiet-tick elision;
:func:`eager_trains` expands every train into one queued event per
member.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, Optional, Sequence, Union

import numpy as np
import pytest

import repro.scenario.runner as runner
from repro.detection.cluster import TemporaryClusterConfig, TravelLine
from repro.detection.node_detector import (
    NodeDetectorConfig,
    merge_reports,
    window_starts,
)
from repro.detection.preprocess import preprocess_z_counts
from repro.detection.sid import SIDAction, SIDNode
from repro.faults.plan import BatteryDrain
from repro.network.nodeproc import NetworkNode
from repro.network.simulator import Event, Simulator
from repro.physics.wavefield import AmbientWaveField
from repro.scenario.deployment import GridDeployment
from repro.scenario.runner import (
    DutyCycledScenarioResult,
    NetworkScenarioResult,
    OfflineScenarioResult,
    fuse_sequential_clusters,
    truth_windows_for,
)
from repro.scenario.ship import ShipTrack
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.types import AccelTrace

from tests.detection.oracles import ScalarNodeDetector

#: The library's methods, kept before any oracle patches their classes.
_FEED_OUTCOME = NetworkNode.feed_outcome
_COLD_RESTART = SIDNode.cold_restart


def feed_window(
    target: Union[SIDNode, NetworkNode],
    detector: ScalarNodeDetector,
    a_window: np.ndarray,
    t0: float,
) -> Optional[list[SIDAction]]:
    """Step ``detector`` over one preprocessed window and replay its
    outcome into ``target``.

    A :class:`SIDNode` target returns its actions.  A
    :class:`NetworkNode` target keeps the gates of a deployed mote: a
    crashed or battery-dead node's window never reaches its detector,
    and a live node's outcome goes through ``feed_outcome``.
    """
    if isinstance(target, SIDNode):
        report = detector.process_window(a_window, t0)
        return target.on_window_outcome(
            report, t0, initialized=detector.initialized
        )
    if not target.alive:
        return None
    if target.battery is not None and target.battery.depleted:
        return None
    report = detector.process_window(a_window, t0)
    _FEED_OUTCOME(
        target, report, len(a_window), t0, initialized=detector.initialized
    )
    return None


@contextmanager
def full_schedule() -> Iterator[pytest.MonkeyPatch]:
    """Run ``run_network_scenario`` without quiet-tick elision.

    Elision is decided from the inputs alone; declaring the billing
    order unsafe makes every window its own feed event and keeps the
    periodic ticks.  The patch lasts for the ``with`` block.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_billing_order_free", lambda *args: False)
        yield mp


def _eager_train(
    sim: Simulator, entries: Sequence[tuple]
) -> list[Event]:
    return [sim.schedule_at(time, fn, *args) for time, fn, args in entries]


@contextmanager
def eager_trains() -> Iterator[pytest.MonkeyPatch]:
    """Replace ``Simulator.schedule_train`` with its eager expansion.

    Each member becomes its own ``schedule_at`` call, in list order — the
    seqs the train reserves — so the run replays the same ``(time, seq)``
    order with every member queued up front.  The patch lasts for the
    ``with`` block.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Simulator, "schedule_train", _eager_train)
        yield mp


def reference_offline(
    deployment: GridDeployment,
    traces: dict[int, AccelTrace],
    ships: Sequence[ShipTrack] = (),
    detector_config: Optional[NodeDetectorConfig] = None,
    cluster_config: Optional[TemporaryClusterConfig] = None,
    track_hypothesis: Optional[TravelLine] = None,
) -> OfflineScenarioResult:
    """``detect_and_fuse`` as a per-node loop: the offline oracle.

    ``ScalarNodeDetector.process_trace`` per node in deployment order, then
    report merging and sequential cluster fusion.
    """
    cfg = detector_config if detector_config is not None else NodeDetectorConfig()
    reports_by_node = {
        node.node_id: ScalarNodeDetector(
            node.node_id, node.anchor, cfg, row=node.row, column=node.column
        ).process_trace(traces[node.node_id])
        for node in deployment
    }
    merged_by_node = {
        nid: merge_reports(reports) for nid, reports in reports_by_node.items()
    }
    merged_all = sorted(
        (r for rs in merged_by_node.values() for r in rs),
        key=lambda r: r.onset_time,
    )
    if track_hypothesis is None and ships:
        track_hypothesis = ships[0].travel_line()
    outcomes, event, report = fuse_sequential_clusters(
        merged_all, cluster_config, track_hypothesis
    )
    return OfflineScenarioResult(
        reports_by_node=reports_by_node,
        merged_by_node=merged_by_node,
        cluster_event=event,
        cluster_report=report,
        truth_windows_by_node=truth_windows_for(deployment, ships),
        cluster_outcomes=outcomes,
    )


def reference_network(*args, **kwargs) -> NetworkScenarioResult:
    """``run_network_scenario`` with per-node detection at event time.

    The event-time oracle: every window of every node is scheduled,
    unmasked, with its raw segment in the report slot; at feed time
    :func:`feed_window` steps the node's own scalar detector behind the
    alive/depleted gates, and a cold restart resets that detector.  So
    crashes, reboots and cold restarts act on detection as they happen,
    not through the fleet precompute's plan-derived mask and resets.
    :func:`full_schedule` keeps one feed event per window.  The patches
    last for this call only.
    """
    detectors: dict[int, ScalarNodeDetector] = {}

    def every_window(deployment, traces, det_cfg, faults, now, cold_restarts):
        w = det_cfg.window_samples
        out = {}
        for node in deployment:
            detectors[node.node_id] = ScalarNodeDetector(
                node.node_id,
                node.anchor,
                det_cfg,
                row=node.row,
                column=node.column,
            )
            a = preprocess_z_counts(traces[node.node_id].z, det_cfg.preprocess)
            out[node.node_id] = [
                (start, a[start : start + w], True)
                for start in window_starts(det_cfg, len(a))
            ]
        return out, 0

    def feed_segment(self, segment, n_samples, t0, initialized):
        feed_window(self, detectors[self.node_id], segment, t0)

    def cold_restart(self):
        detectors[self.node_id].reset()
        _COLD_RESTART(self)

    with full_schedule() as mp:
        mp.setattr(runner, "_fleet_network_outcomes", every_window)
        mp.setattr(NetworkNode, "feed_outcome", feed_segment)
        mp.setattr(SIDNode, "cold_restart", cold_restart)
        return runner.run_network_scenario(*args, **kwargs)


def _sequential_walk(
    deployment, traces, det_cfg, coarse_cfg, decimation, controller, faults
):
    """Per-window duty-cycled walk in global ``(t0, node_id, start)`` order.

    Each node owns a full-rate and a coarse scalar detector; an active
    fault plan bills every evaluated window to the node's battery.
    """
    plan_active = faults is not None and faults.active
    detectors = {
        n.node_id: ScalarNodeDetector(
            n.node_id, n.anchor, det_cfg, row=n.row, column=n.column
        )
        for n in deployment
    }
    coarse_detectors = {
        n.node_id: ScalarNodeDetector(
            n.node_id, n.anchor, coarse_cfg, row=n.row, column=n.column
        )
        for n in deployment
    }
    preprocessed = {
        nid: preprocess_z_counts(tr.z, det_cfg.preprocess)
        for nid, tr in traces.items()
    }
    coarse_preprocessed = {
        nid: preprocess_z_counts(tr.z[::decimation], coarse_cfg.preprocess)
        for nid, tr in traces.items()
    }
    window = det_cfg.window_samples
    coarse_window = coarse_cfg.window_samples
    schedule: list[tuple[float, int, int]] = []
    for nid, a in preprocessed.items():
        t_base = traces[nid].t0
        for start in window_starts(det_cfg, len(a)):
            schedule.append((t_base + start / det_cfg.rate_hz, nid, start))
    schedule.sort()

    reports_by_node: dict = {nid: [] for nid in preprocessed}
    pending_drains: dict[int, list[BatteryDrain]] = {}
    if plan_active:
        for drain in faults.battery_drains:
            pending_drains.setdefault(drain.node_id, []).append(drain)
        for drains in pending_drains.values():
            drains.sort(key=lambda d: d.at_s)
    batteries = {n.node_id: n.mote.battery for n in deployment}
    demote_frac = controller.config.demote_battery_fraction
    first_alarm = None
    for t0, nid, start in schedule:
        detector = detectors[nid]
        seg = preprocessed[nid][start : start + window]
        if plan_active:
            battery = batteries[nid]
            drains = pending_drains.get(nid)
            while drains and drains[0].at_s <= t0:
                battery.accelerate_drain(drains.pop(0).factor)
            if battery.depleted:
                continue
        if not detector.initialized:
            # Initialization windows always run; both rate variants
            # build their baselines during this phase.
            if plan_active:
                battery.draw_samples(window)
            detector.process_window(seg, t0)
            c_start = start // decimation
            coarse_detectors[nid].process_window(
                coarse_preprocessed[nid][c_start : c_start + coarse_window],
                t0,
            )
            continue
        if (
            plan_active
            and demote_frac is not None
            and not controller.is_demoted(nid)
            and battery.fraction_remaining < demote_frac
        ):
            controller.demote(nid, t0)
        if not controller.is_active(nid, t0):
            continue
        if (
            controller.in_wakeup(t0) or decimation == 1
        ) and not controller.is_demoted(nid):
            if plan_active:
                battery.draw_samples(window)
            report = detector.process_window(seg, t0)
        else:
            c_start = start // decimation
            c_seg = coarse_preprocessed[nid][c_start : c_start + coarse_window]
            if c_seg.size < coarse_window:
                continue
            if plan_active:
                battery.draw_samples(coarse_window)
            report = coarse_detectors[nid].process_window(c_seg, t0)
        if report is not None:
            reports_by_node[nid].append(report)
            controller.alarm(report.onset_time)
            if first_alarm is None:
                first_alarm = report.onset_time
    return reports_by_node, first_alarm, 0


def reference_dutycycled(*args, **kwargs) -> DutyCycledScenarioResult:
    """``run_dutycycled_scenario`` with the per-node sequential walk.

    The duty-cycling oracle: every window of every node is visited one
    at a time in global ``(t0, node_id, start)`` order by that node's own
    scalar detector, so an alarm wakes exactly the windows after it.
    The patch lasts for this call only.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_dutycycled_reports", _sequential_walk)
        return runner.run_dutycycled_scenario(*args, **kwargs)


def dutycycled_outcome(result: DutyCycledScenarioResult, deployment):
    """What a duty-cycled run must reproduce: reports, first alarm,
    demotions and every battery's remaining charge (as ``float.hex``).
    """
    return (
        result.reports_by_node,
        result.first_alarm_time,
        result.controller.demotions(),
        [float.hex(node.mote.battery.remaining_j) for node in deployment],
    )


def runner_and_oracle(make_scenario, **run_kwargs):
    """``dutycycled_outcome`` of ``run_dutycycled_scenario`` and of
    ``reference_dutycycled``, each on a fresh ``(deployment, ships) =
    make_scenario()`` so battery and clock state start equal.
    """
    outcomes = []
    for run in (runner.run_dutycycled_scenario, reference_dutycycled):
        deployment, ships = make_scenario()
        result = run(deployment, ships, **run_kwargs)
        outcomes.append(dutycycled_outcome(result, deployment))
    return outcomes


@contextmanager
def timedomain_ambient() -> Iterator[None]:
    """Evaluate every ambient batch with the time-domain engine.

    Whatever ``method`` the caller asks for, the batched vertical and
    horizontal evaluators sum the field's components through the trig
    matrices.  The patch lasts for the ``with`` block.
    """
    vertical = AmbientWaveField.vertical_acceleration_batch
    horizontal = AmbientWaveField.horizontal_acceleration_batch

    def vertical_td(self, positions, t, responses=None, method="timedomain"):
        return vertical(self, positions, t, responses)

    def horizontal_td(self, positions, t, method="timedomain"):
        return horizontal(self, positions, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AmbientWaveField, "vertical_acceleration_batch", vertical_td)
        mp.setattr(
            AmbientWaveField, "horizontal_acceleration_batch", horizontal_td
        )
        yield


def reference_spectral_synthesis(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    config: Optional[SynthesisConfig] = None,
    **kwargs,
) -> dict[int, AccelTrace]:
    """``synthesize_fleet_traces`` under ``"spectral"``, evaluated in the
    time domain: the spectral oracle.

    The field is realised on the same snapped FFT grid, so the spectral
    engine must digitise bit-identical counts.
    """
    cfg = replace(
        config if config is not None else SynthesisConfig(),
        synthesis_method="spectral",
    )
    with timedomain_ambient():
        return synthesize_fleet_traces(deployment, ships, cfg, **kwargs)
