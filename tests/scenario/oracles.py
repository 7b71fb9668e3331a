"""Per-node reference oracles for the scenario runners.

The runners evaluate node-level detection (eqs. 4-8) with the lockstep
fleet engine only.  The paper's per-node formulation — one
:class:`NodeDetector` walking its own trace, and in the network one
:meth:`NetworkNode.feed_window` per window at event time — stays in the
library as the spec; these oracles run it so tests can demand
bit-identical results from the fleet paths.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pytest

import repro.scenario.runner as runner
from repro.detection.cluster import TemporaryClusterConfig, TravelLine
from repro.detection.node_detector import (
    NodeDetector,
    NodeDetectorConfig,
    merge_reports,
    window_starts,
)
from repro.detection.preprocess import preprocess_z_counts
from repro.network.nodeproc import NetworkNode
from repro.scenario.deployment import GridDeployment
from repro.scenario.runner import (
    NetworkScenarioResult,
    OfflineScenarioResult,
    fuse_sequential_clusters,
    truth_windows_for,
)
from repro.scenario.ship import ShipTrack
from repro.types import AccelTrace


def reference_offline(
    deployment: GridDeployment,
    traces: dict[int, AccelTrace],
    ships: Sequence[ShipTrack] = (),
    detector_config: Optional[NodeDetectorConfig] = None,
    cluster_config: Optional[TemporaryClusterConfig] = None,
    track_hypothesis: Optional[TravelLine] = None,
) -> OfflineScenarioResult:
    """``detect_and_fuse`` as a per-node loop: the offline oracle.

    ``NodeDetector.process_trace`` per node in deployment order, then
    report merging and sequential cluster fusion.
    """
    cfg = detector_config if detector_config is not None else NodeDetectorConfig()
    reports_by_node = {
        node.node_id: NodeDetector(
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


def _every_window(deployment, traces, det_cfg, faults, now, cold_restarts):
    """Every window of every node, unmasked, carrying its raw segment.

    Stands in for the fleet precompute: the segment rides in the report
    slot, and the patched ``feed_outcome`` hands it to ``feed_window``,
    so crashes, reboots and cold restarts act at event time.
    """
    w = det_cfg.window_samples
    out = {}
    for node in deployment:
        a = preprocess_z_counts(traces[node.node_id].z, det_cfg.preprocess)
        out[node.node_id] = [
            (start, a[start : start + w], True)
            for start in window_starts(det_cfg, len(a))
        ]
    return out, 0


def _feed_window(self, segment, n_samples, t0, initialized=True):
    self.feed_window(segment, t0)


def reference_network(*args, **kwargs) -> NetworkScenarioResult:
    """``run_network_scenario`` with per-node detection at event time.

    The event-time oracle: each node's own ``NodeDetector`` (inside its
    SID) sees every window through ``NetworkNode.feed_window``, which
    skips windows while the node is down and whose detector a cold
    restart resets.  Quiet elision is off, so one feed event is
    scheduled per window.  The patches last for this call only.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_fleet_network_outcomes", _every_window)
        mp.setattr(NetworkNode, "feed_outcome", _feed_window)
        return runner.run_network_scenario(
            *args, quiet_elision=False, **kwargs
        )
