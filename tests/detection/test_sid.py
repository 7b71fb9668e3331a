"""Tests for the SIDNode state machine (the paper's Algorithm SID)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.detection.reports import NodeReport
from repro.detection.sid import (
    CancelClusterAction,
    ClusterResultAction,
    MemberReportAction,
    SIDNode,
    SIDNodeConfig,
    SIDState,
    SetupClusterAction,
)
from repro.types import Position

from tests.scenario.oracles import feed_window


def _config(**cluster_kw):
    cluster = dict(
        collection_timeout_s=60.0,
        quiet_timeout_s=20.0,
        min_reports=2,
        min_rows=1,
    )
    cluster.update(cluster_kw)
    return SIDNodeConfig(
        detector=NodeDetectorConfig(
            m=2.0, af_threshold=0.3, window_s=2.0, init_windows=2
        ),
        cluster=TemporaryClusterConfig(**cluster),
    )


def _node(node_id=0, **kw):
    """A SID node and the test-side detector whose outcomes it is fed."""
    cfg = _config(**kw)
    return (
        SIDNode(node_id, Position(0, 0), cfg),
        NodeDetector(node_id, Position(0, 0), cfg.detector),
    )


def _quiet(rng, n=100):
    return rng.uniform(0.0, 1.0, n)


def _burst(rng, n=100):
    return _quiet(rng, n) + 10.0


def _init(node, det, rng, t0=0.0):
    """Run the Initialization procedure (2 windows)."""
    feed_window(node, det, _quiet(rng), t0)
    feed_window(node, det, _quiet(rng), t0 + 2.0)


def _member_report(node_id, t):
    return NodeReport(
        node_id=node_id,
        position=Position(25.0, 0.0),
        onset_time=t,
        energy=8.0,
        anomaly_frequency=0.9,
    )


class TestLifecycle:
    def test_starts_initializing(self, rng):
        node, _ = _node()
        assert node.state == SIDState.INITIALIZING

    def test_monitoring_after_init(self, rng):
        node, det = _node()
        _init(node, det, rng)
        assert node.state == SIDState.MONITORING

    def test_detection_sets_up_cluster(self, rng):
        node, det = _node()
        _init(node, det, rng)
        actions = feed_window(node, det, _burst(rng), 4.0)
        assert len(actions) == 1
        assert isinstance(actions[0], SetupClusterAction)
        assert node.state == SIDState.TEMP_CLUSTER_HEAD
        assert node.in_temp_cluster

    def test_member_reports_to_head(self, rng):
        node, det = _node()
        _init(node, det, rng)
        node.on_cluster_setup(head_id=9, t=4.0)
        assert node.state == SIDState.TEMP_CLUSTER_MEMBER
        actions = feed_window(node, det, _burst(rng), 6.0)
        assert len(actions) == 1
        assert isinstance(actions[0], MemberReportAction)
        assert actions[0].head_id == 9

    def test_head_ignores_invites(self, rng):
        node, det = _node()
        _init(node, det, rng)
        feed_window(node, det, _burst(rng), 4.0)
        node.on_cluster_setup(head_id=9, t=5.0)
        assert node.state == SIDState.TEMP_CLUSTER_HEAD

    def test_own_setup_rejected(self, rng):
        node, _ = _node(7)
        with pytest.raises(ProtocolError):
            node.on_cluster_setup(head_id=7, t=0.0)

    def test_cancel_releases_member(self, rng):
        node, det = _node()
        _init(node, det, rng)
        node.on_cluster_setup(head_id=9, t=4.0)
        node.on_cluster_cancel(head_id=9)
        assert node.state == SIDState.MONITORING

    def test_cancel_from_other_head_ignored(self, rng):
        node, det = _node()
        _init(node, det, rng)
        node.on_cluster_setup(head_id=9, t=4.0)
        node.on_cluster_cancel(head_id=5)
        assert node.state == SIDState.TEMP_CLUSTER_MEMBER

    def test_membership_expires(self, rng):
        node, det = _node()
        _init(node, det, rng)
        node.on_cluster_setup(head_id=9, t=4.0)
        node.on_timer(4.0 + node.config.membership_ttl_s + 1.0)
        assert node.state == SIDState.MONITORING


class TestHeadEvaluation:
    def test_lone_head_cancels_after_quiet_timeout(self, rng):
        node, det = _node()
        _init(node, det, rng)
        feed_window(node, det, _burst(rng), 4.0)
        assert node.on_timer(10.0) == []  # before quiet deadline
        actions = node.on_timer(30.0)
        assert len(actions) == 1
        assert isinstance(actions[0], CancelClusterAction)
        assert node.state == SIDState.MONITORING

    def test_head_confirms_with_member_reports(self, rng):
        node, det = _node(min_reports=2, min_rows=1)
        _init(node, det, rng)
        feed_window(node, det, _burst(rng), 4.0)
        node.on_member_report(_member_report(1, 6.0))
        node.on_member_report(_member_report(2, 8.0))
        actions = node.on_timer(4.0 + 61.0)
        kinds = {type(a) for a in actions}
        assert ClusterResultAction in kinds or CancelClusterAction in kinds
        assert node.state == SIDState.MONITORING

    def test_late_member_report_dropped(self, rng):
        node, det = _node()
        _init(node, det, rng)
        feed_window(node, det, _burst(rng), 4.0)
        node.on_timer(200.0)  # cluster evaluated and closed
        node.on_member_report(_member_report(1, 201.0))  # must not crash

    def test_timer_noop_when_no_cluster(self, rng):
        node, det = _node()
        _init(node, det, rng)
        assert node.on_timer(100.0) == []

    def test_result_action_carries_event(self, rng):
        node, det = _node(min_reports=2, min_rows=1)
        _init(node, det, rng)
        feed_window(node, det, _burst(rng), 4.0)
        # Two member reports in the same row with correlated structure.
        node.on_member_report(_member_report(1, 6.0))
        actions = node.on_timer(4.0 + 61.0)
        for action in actions:
            if isinstance(action, ClusterResultAction):
                assert action.report.n_reports >= 2
