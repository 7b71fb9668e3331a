"""Tests for the sink-level intrusion tracker."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.detection.reports import ClusterReport, NodeReport, SinkDecision
from repro.detection.tracking import IntrusionEvent, IntrusionTracker
from repro.types import Position


def _decision(t, intrusion=True, speed=None, heading=None, positions=()):
    reports = tuple(
        NodeReport(
            node_id=i,
            position=p,
            onset_time=t - 5.0 + i,
            energy=5.0,
            anomaly_frequency=0.8,
        )
        for i, p in enumerate(positions)
    )
    clusters = (
        (
            ClusterReport(
                head_id=0,
                reports=reports,
                time_correlation=0.9,
                energy_correlation=0.9,
                correlation=0.81,
                detection_time=t,
                speed_estimate_mps=speed,
                heading_alpha_deg=heading,
            ),
        )
        if reports
        else ()
    )
    return SinkDecision(
        intrusion=intrusion,
        time=t,
        cluster_reports=clusters,
        speed_estimate_mps=speed,
        heading_alpha_deg=heading,
    )


def test_decisions_within_gap_form_one_event():
    tracker = IntrusionTracker(event_gap_s=120.0)
    tracker.add_decision(_decision(100.0, positions=[Position(0, 0)]))
    tracker.add_decision(_decision(180.0, positions=[Position(10, 0)]))
    event = tracker.flush()
    assert event is not None
    assert event.n_decisions == 2
    assert tracker.events == (event,)


def test_gap_splits_events():
    tracker = IntrusionTracker(event_gap_s=120.0)
    tracker.add_decision(_decision(100.0, positions=[Position(0, 0)]))
    closed = tracker.add_decision(
        _decision(400.0, positions=[Position(50, 0)])
    )
    assert closed is not None
    assert closed.last_seen == 100.0
    second = tracker.flush()
    assert second is not None
    assert len(tracker.events) == 2


def test_non_intrusion_decisions_ignored():
    tracker = IntrusionTracker()
    assert tracker.add_decision(_decision(100.0, intrusion=False)) is None
    assert tracker.flush() is None


def test_centroid_of_reports():
    tracker = IntrusionTracker()
    tracker.add_decision(
        _decision(
            100.0, positions=[Position(0, 0), Position(50, 100)]
        )
    )
    event = tracker.flush()
    assert event.crossing_centroid == Position(25.0, 50.0)


def test_kinematics_averaged():
    tracker = IntrusionTracker()
    tracker.add_decision(
        _decision(100.0, speed=4.0, heading=60.0, positions=[Position(0, 0)])
    )
    tracker.add_decision(
        _decision(150.0, speed=6.0, heading=80.0, positions=[Position(0, 0)])
    )
    event = tracker.flush()
    assert event.speed_mps == pytest.approx(5.0)
    assert event.heading_alpha_deg == pytest.approx(70.0)


def test_predicted_position_dead_reckons():
    tracker = IntrusionTracker()
    tracker.add_decision(
        _decision(100.0, speed=5.0, heading=90.0, positions=[Position(10, 20)])
    )
    event = tracker.flush()
    t_ref = 0.5 * (event.first_seen + event.last_seen)
    pred = event.predicted_position(t_ref + 10.0)
    assert pred.x == pytest.approx(10.0, abs=1e-9)
    assert pred.y == pytest.approx(20.0 + 50.0)


def test_predicted_position_none_without_kinematics():
    tracker = IntrusionTracker()
    tracker.add_decision(_decision(100.0, positions=[Position(0, 0)]))
    event = tracker.flush()
    assert event.predicted_position(200.0) is None


def test_first_seen_uses_report_onsets():
    tracker = IntrusionTracker()
    tracker.add_decision(
        _decision(100.0, positions=[Position(0, 0), Position(1, 0)])
    )
    event = tracker.flush()
    assert event.first_seen < 100.0  # onsets precede the decision time


def test_duration():
    event = IntrusionEvent(
        first_seen=10.0,
        last_seen=60.0,
        crossing_centroid=Position(0, 0),
        n_decisions=1,
        n_node_reports=3,
        peak_correlation=0.8,
    )
    assert event.duration_s == 50.0


def test_invalid_gap():
    with pytest.raises(ConfigurationError):
        IntrusionTracker(event_gap_s=0.0)


def test_end_to_end_with_network_scenario():
    """The tracker consumes real sink decisions from a full run."""
    from repro.detection.node_detector import NodeDetectorConfig
    from repro.detection.sid import SIDNodeConfig
    from repro.scenario.presets import paper_scenario
    from repro.scenario.runner import run_network_scenario

    dep, ship, synth = paper_scenario(seed=6)
    res = run_network_scenario(
        dep,
        [ship],
        sid_config=SIDNodeConfig(
            detector=NodeDetectorConfig(m=2.0, af_threshold=0.5)
        ),
        synthesis_config=synth,
        seed=6,
    )
    tracker = IntrusionTracker()
    for d in res.decisions:
        tracker.add_decision(d)
    tracker.flush()
    assert len(tracker.events) >= 1
    event = tracker.events[0]
    # The crossing centroid sits inside the deployed field.
    assert -25.0 < event.crossing_centroid.x < 125.0
    assert -25.0 < event.crossing_centroid.y < 150.0
