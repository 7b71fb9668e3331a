"""Tests for the static-cluster reporting hierarchy (Sec. IV-C).

"The temporal cluster head reports the result to its static cluster
head, and the cluster head will report the detection to the sink
eventually."
"""

from __future__ import annotations

import pytest

from repro.detection.reports import ClusterReport, NodeReport
from repro.detection.sink import Sink
from repro.network.channel import Channel, ChannelConfig
from repro.network.messages import ClusterReportMsg
from repro.network.nodeproc import SensorNetwork
from repro.types import Position


@pytest.fixture
def network():
    from repro.detection.sid import SIDNode

    positions = {i: Position((i % 5) * 25.0, (i // 5) * 25.0) for i in range(30)}
    net = SensorNetwork(
        positions=positions,
        sink_id=99,
        sink_position=Position(140.0, 0.0),
        sink=Sink(),
        channel=Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=0),
        seed=0,
    )
    # Register node processes so frames can be forwarded hop by hop.
    for nid, pos in positions.items():
        net.add_node(SIDNode(nid, pos))
    return net


def test_static_clusters_partition_all_nodes(network):
    members = [
        m for c in network.static_clusters for m in c.member_ids
    ]
    assert sorted(members) == list(range(30))


def test_every_node_has_a_static_head(network):
    for nid in range(30):
        head = network.static_head_of(nid)
        assert 0 <= head < 30


def test_static_head_is_own_head(network):
    for cluster in network.static_clusters:
        assert network.static_head_of(cluster.head_id) == cluster.head_id


def test_heads_are_geographically_local(network):
    for nid in range(30):
        head = network.static_head_of(nid)
        d = network.positions[nid].distance_to(network.positions[head])
        # Cell size is 3 spacings; a member is within one cell diagonal.
        assert d <= 3.0 * 25.0 * 1.5


def test_report_travels_via_static_head(network):
    """A tagged report is stripped at the static head, then reaches the sink."""
    node = NodeReport(
        node_id=4,
        position=network.positions[4],
        onset_time=10.0,
        energy=5.0,
        anomaly_frequency=0.8,
    )
    report = ClusterReport(
        head_id=4,
        reports=(node,),
        time_correlation=1.0,
        energy_correlation=1.0,
        correlation=1.0,
        detection_time=10.0,
    )
    head = network.static_head_of(4)
    assert head != 4 or True  # head may coincide; message path still valid
    network.unicast(
        4, head, ClusterReportMsg(report=report, static_head_id=head)
    )
    network.sim.run()
    assert len(network.sink_node.sink.pending_reports) == 1


def test_unknown_node_defaults_to_self(network):
    assert network.static_head_of(12345) == 12345
