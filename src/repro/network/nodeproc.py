"""Network processes: SID nodes and the sink wired onto the radio stack.

:class:`SensorNetwork` owns the shared substrate (simulator, channel,
MAC, routing) and the per-node processes.  :class:`NetworkNode` turns
:class:`repro.detection.sid.SIDNode` actions into frames — the 6-hop
cluster-setup flood, member-report unicasts to the temporary head, and
multihop cluster reports toward the sink — and turns received frames
back into SID callbacks.  :class:`SinkNode` feeds the detection-layer
:class:`repro.detection.sink.Sink`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import networkx as nx

from repro.detection.sid import (
    CancelClusterAction,
    ClusterResultAction,
    MemberReportAction,
    SIDAction,
    SIDNode,
    SetupClusterAction,
)
from repro.detection.cluster import partition_static_clusters
from repro.detection.reports import NodeReport
from repro.detection.sink import Sink
from repro.errors import ConfigurationError
from repro.network.channel import Channel
from repro.network.mac import Mac, MacConfig
from repro.network.messages import (
    BROADCAST,
    ClusterCancelMsg,
    ClusterReportMsg,
    ClusterSetupMsg,
    Frame,
    MemberReportMsg,
)
from repro.network.routing import RoutingTable, build_connectivity
from repro.network.selfheal import (
    OrphanEvent,
    SelfHealingConfig,
    SelfHealingRuntime,
)
from repro.network.simulator import Simulator
from repro.rng import RandomState, derive_rng, make_rng
from repro.sensors.battery import Battery
from repro.telemetry.events import CAT_DETECTION, CAT_FRAME, CAT_HEAL
from repro.telemetry.session import Telemetry
from repro.types import Position

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.network import DeliveryFaults

logger = logging.getLogger("repro.network.resilience")

#: Detection-category trace event name per dispatched SID action.
_ACTION_EVENT_NAMES: dict[type, str] = {
    SetupClusterAction: "cluster_setup",
    MemberReportAction: "member_report",
    ClusterResultAction: "cluster_result",
    CancelClusterAction: "cluster_cancel",
}


@dataclass(frozen=True)
class RetransmitPolicy:
    """Report retransmission with exponential backoff (degradation aid).

    When a member/cluster report's unicast exhausts its MAC retries,
    the originating node re-queues it after ``base_backoff_s * 2**k``
    seconds, up to ``max_attempts`` extra tries — but never past the
    ``staleness_s`` cutoff, after which the report would miss its
    collection/merge window anyway and only add congestion.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.5
    staleness_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_s <= 0:
            raise ConfigurationError(
                f"base_backoff_s must be positive, got {self.base_backoff_s}"
            )
        if self.staleness_s <= 0:
            raise ConfigurationError(
                f"staleness_s must be positive, got {self.staleness_s}"
            )


class ResilienceStats:
    """Counters for the graceful-degradation and self-healing machinery.

    ``baseline_blind_window_s`` is the one non-count entry: total
    node-seconds spent re-warming eq. 5 baselines after cold restarts
    (windows during which those nodes cannot detect anything).
    """

    def __init__(self) -> None:
        self.report_retransmits = 0
        self.stale_reports_dropped = 0
        self.frames_dropped_dead_node = 0
        self.subtrees_orphaned = 0
        self.reroutes = 0
        self.parents_declared_dead = 0
        self.frames_healed = 0
        self.hop_retransmits = 0
        self.relay_frames_abandoned = 0
        self.relay_queue_drops = 0
        self.relay_dups_dropped = 0
        self.sentinel_demotions = 0
        self.cold_restarts = 0
        self.baseline_blind_window_s = 0.0

    def as_dict(self) -> dict[str, float]:
        """Snapshot of the counters."""
        return {
            "report_retransmits": self.report_retransmits,
            "stale_reports_dropped": self.stale_reports_dropped,
            "frames_dropped_dead_node": self.frames_dropped_dead_node,
            "subtrees_orphaned": self.subtrees_orphaned,
            "reroutes": self.reroutes,
            "parents_declared_dead": self.parents_declared_dead,
            "frames_healed": self.frames_healed,
            "hop_retransmits": self.hop_retransmits,
            "relay_frames_abandoned": self.relay_frames_abandoned,
            "relay_queue_drops": self.relay_queue_drops,
            "relay_dups_dropped": self.relay_dups_dropped,
            "sentinel_demotions": self.sentinel_demotions,
            "cold_restarts": self.cold_restarts,
            "baseline_blind_window_s": self.baseline_blind_window_s,
        }


class SinkNode:
    """The sink's network process."""

    def __init__(self, node_id: int, position: Position, sink: Sink) -> None:
        self.node_id = node_id
        self.position = position
        self.sink = sink
        self.received_frames = 0

    def on_frame(self, frame: Frame, now: float) -> None:
        """Deliver a frame that reached the sink."""
        self.received_frames += 1
        if isinstance(frame.payload, ClusterReportMsg):
            self.sink.receive(frame.payload.report)


class NetworkNode:
    """One sensor node's network process."""

    def __init__(
        self,
        network: "SensorNetwork",
        sid: SIDNode,
        battery: Optional[Battery] = None,
    ) -> None:
        self.network = network
        self.sid = sid
        self.battery = battery
        self.node_id = sid.node_id
        self.position = sid.position
        #: False while the node is crashed (fault injection); a dead
        #: node neither samples, ticks, transmits nor receives.
        self.alive = True
        #: Flood dedup: (head_id, onset_time) pairs already forwarded.
        self._seen_setups: set[tuple[int, float]] = set()
        self._seen_cancels: set[tuple[int, int]] = set()
        #: Relay dedup (healing only): frame seqs already forwarded.
        self._relayed_seqs: set[int] = set()
        #: Reboot time of an unfinished baseline re-warm-up, or None.
        self._blind_since: Optional[float] = None

    # ------------------------------------------------------------------
    # Fault-injection lifecycle
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the node down (crash fault)."""
        self.alive = False

    def reboot(self) -> None:
        """Bring a crashed node back.

        Without self-healing this is a warm restart with state retained
        (the paper's motes keep state in RAM across watchdog resets) —
        bit-identical to the pre-healing seed.  With healing armed the
        node re-joins the routing tree through the repair path, and —
        unless ``persist_baseline`` keeps the eq. 5 moving mean/std in
        battery-backed storage — models a true cold restart: detection
        and cluster state are forgotten and the baseline re-warm-up
        blind window is metered.
        """
        self.alive = True
        self.network.close_orphan(self.node_id)
        heal = self.network.heal
        if heal is None:
            return
        if not heal.config.persist_baseline:
            self.sid.cold_restart()
            self._seen_setups.clear()
            self._seen_cancels.clear()
            self._relayed_seqs.clear()
            self._blind_since = self.network.sim.now
            self.network.resilience.cold_restarts += 1
            if self.network.trace is not None:
                self.network.trace.emit(
                    CAT_HEAL,
                    "cold_restart",
                    sim_time_s=self.network.sim.now,
                    node_id=self.node_id,
                )
        heal.node_rejoined(self.node_id)

    def _close_blind_window(self) -> None:
        """Meter a finished (or run-end-truncated) baseline re-warm-up."""
        if self._blind_since is None:
            return
        blind_s = self.network.sim.now - self._blind_since
        self.network.resilience.baseline_blind_window_s += blind_s
        if self.network.trace is not None:
            self.network.trace.emit(
                CAT_HEAL,
                "blind_window",
                sim_time_s=self.network.sim.now,
                node_id=self.node_id,
                duration_s=blind_s,
            )
        self._blind_since = None

    # ------------------------------------------------------------------
    # Detection-side entry points
    # ------------------------------------------------------------------
    def feed_outcome(
        self,
        report: Optional[NodeReport],
        n_samples: int,
        t0: float,
        initialized: bool,
    ) -> None:
        """Replay one precomputed window outcome at its end time.

        The fleet-vectorized engine computes every window's detection
        result before the event loop runs; this is the only way
        detection reaches the node.  A crashed or battery-dead node
        discards the outcome, as a mote would skip the window; a live
        one bills ``n_samples`` of CPU time and hands the outcome to the
        SID machine.  ``initialized`` (the baseline's seeded flag after
        this window) also closes a cold restart's re-warm-up blind
        window.
        """
        if not self.alive:
            return
        if self.battery is not None and self.battery.depleted:
            return
        if self.battery is not None:
            self.battery.draw_cpu(0.001 * n_samples)
        telemetry = self.network.telemetry
        if telemetry is not None:
            telemetry.metrics.counter("windows_processed").inc()
        actions = self.sid.on_window_outcome(report, t0, initialized=initialized)
        if self._blind_since is not None and initialized:
            self._close_blind_window()
        self._dispatch(actions)
        self._dispatch(self.sid.on_timer(self.network.sim.now))

    def tick(self) -> None:
        """Periodic timer (cluster deadline evaluation)."""
        if not self.alive:
            return
        self._dispatch(self.sid.on_timer(self.network.sim.now))

    def catch_up_quiet_windows(self, n_windows: int, n_samples: int) -> None:
        """Bill a coalesced run of provably-quiet precomputed windows.

        The runner elides :meth:`feed_outcome` events whose report is
        None and which fall outside every radio-active interval: those
        feeds touch nothing but the battery and the windows counter.  One
        catch-up event replays exactly that effect — same gates, same
        per-window ``draw_cpu`` amounts in the same order, stopping at
        depletion just as the individual feeds would have — so the
        billing is arithmetically identical to the un-elided schedule.
        The runner decides elision from its inputs alone: only when no
        fault plan is active (so ``alive`` and the drain multiplier
        cannot change mid-run), no low-charge watch is armed (its
        watermark crossing would observe the reordered draws) and no
        battery can deplete during the run.
        """
        if not self.alive:
            return
        battery = self.battery
        telemetry = self.network.telemetry
        counter = (
            telemetry.metrics.counter("windows_processed")
            if telemetry is not None
            else None
        )
        for _ in range(n_windows):
            if battery is not None:
                if battery.depleted:
                    break
                battery.draw_cpu(0.001 * n_samples)
            if counter is not None:
                counter.inc()

    # ------------------------------------------------------------------
    # Action dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, actions: list[SIDAction]) -> None:
        trace = self.network.trace
        for action in actions:
            if trace is not None:
                trace.emit(
                    CAT_DETECTION,
                    _ACTION_EVENT_NAMES.get(
                        type(action), "action"
                    ),
                    sim_time_s=self.network.sim.now,
                    node_id=self.node_id,
                )
            if isinstance(action, SetupClusterAction):
                msg = ClusterSetupMsg(
                    head_id=self.node_id,
                    hops_remaining=action.hops,
                    onset_time=action.initiator.onset_time,
                )
                self._seen_setups.add((self.node_id, action.initiator.onset_time))
                self.network.broadcast(self.node_id, msg)
                # Tell the head how many members the flood can reach so
                # the deadline evaluation can re-weight its quorum when
                # expected members fall silent (graceful degradation).
                self.sid.note_expected_members(
                    self.network.expected_cluster_members(
                        self.node_id, action.hops
                    )
                )
            elif isinstance(action, MemberReportAction):
                self._send_reliable(
                    action.head_id,
                    MemberReportMsg(
                        head_id=action.head_id, report=action.report
                    ),
                )
            elif isinstance(action, ClusterResultAction):
                # Sec. IV-C hierarchy: temporary head -> static cluster
                # head -> sink.
                static_head = self.network.static_head_of(self.node_id)
                if static_head == self.node_id:
                    self._send_sink_reliable(
                        ClusterReportMsg(report=action.report)
                    )
                else:
                    self._send_reliable(
                        static_head,
                        ClusterReportMsg(
                            report=action.report,
                            static_head_id=static_head,
                        ),
                    )
            elif isinstance(action, CancelClusterAction):
                msg = ClusterCancelMsg(head_id=self.node_id)
                self._seen_cancels.add((self.node_id, 0))
                self.network.broadcast(self.node_id, msg)

    # ------------------------------------------------------------------
    # Reliable report delivery (graceful degradation)
    # ------------------------------------------------------------------
    def _send_reliable(
        self,
        dst: int,
        payload: object,
        attempt: int = 0,
        first_try_at: Optional[float] = None,
    ) -> None:
        """Unicast a report, re-queueing on MAC-level drop when enabled.

        With no :class:`RetransmitPolicy` installed this is a plain
        unicast — identical behaviour (and RNG consumption) to the
        pre-resilience transport.
        """
        policy = self.network.retransmit
        if policy is None:
            self.network.unicast(self.node_id, dst, payload)
            return
        first_at = (
            self.network.sim.now if first_try_at is None else first_try_at
        )

        def on_failed(_frame: Frame) -> None:
            self._retry_reliable(dst, payload, attempt, first_at)

        self.network.unicast(
            self.node_id, dst, payload, on_failed=on_failed
        )

    def _send_sink_reliable(
        self,
        payload: object,
        attempt: int = 0,
        first_try_at: Optional[float] = None,
    ) -> None:
        """Sink-bound variant of :meth:`_send_reliable`."""
        policy = self.network.retransmit
        if policy is None:
            self.network.send_to_sink(self.node_id, payload)
            return
        first_at = (
            self.network.sim.now if first_try_at is None else first_try_at
        )

        def on_failed(_frame: Frame) -> None:
            self._retry_reliable(None, payload, attempt, first_at)

        self.network.send_to_sink(
            self.node_id, payload, on_failed=on_failed
        )

    def _retry_reliable(
        self,
        dst: Optional[int],
        payload: object,
        attempt: int,
        first_try_at: float,
    ) -> None:
        policy = self.network.retransmit
        stats = self.network.resilience
        if policy is None or not self.alive:
            return
        now = self.network.sim.now
        if (
            attempt + 1 > policy.max_attempts
            or now - first_try_at >= policy.staleness_s
        ):
            # Past the staleness cutoff the report would miss its
            # collection/merge window anyway; give up cleanly.
            stats.stale_reports_dropped += 1
            return
        stats.report_retransmits += 1
        delay = policy.base_backoff_s * (2.0**attempt)
        if dst is None:
            self.network.sim.schedule(
                delay, self._send_sink_reliable, payload, attempt + 1, first_try_at
            )
        else:
            self.network.sim.schedule(
                delay, self._send_reliable, dst, payload, attempt + 1, first_try_at
            )

    # ------------------------------------------------------------------
    # Frame reception
    # ------------------------------------------------------------------
    def _relay_is_dup(self, frame: Frame) -> bool:
        """Dedup forwarded frames by id (healing only).

        The healing transport's retries are loss-triggered and so never
        duplicate on their own, but a fault-injected duplication of a
        frame already relayed must not be amplified down the tree.
        """
        if self.network.heal is None:
            return False
        if frame.seq in self._relayed_seqs:
            self.network.resilience.relay_dups_dropped += 1
            return True
        self._relayed_seqs.add(frame.seq)
        return False

    def on_frame(self, frame: Frame, now: float) -> None:
        """Handle one frame delivered to this node's radio."""
        if not self.alive:
            self.network.resilience.frames_dropped_dead_node += 1
            if self.network.trace is not None:
                self.network.trace.emit(
                    CAT_FRAME,
                    "dead_drop",
                    sim_time_s=now,
                    node_id=self.node_id,
                    src=frame.src,
                )
            self.network.note_dead_drop(self.node_id)
            return
        if self.battery is not None:
            if not self.battery.draw_rx(frame.size_bytes):
                return
        payload = frame.payload
        if isinstance(payload, ClusterSetupMsg):
            key = (payload.head_id, payload.onset_time)
            if key in self._seen_setups:
                return
            self._seen_setups.add(key)
            if payload.head_id != self.node_id:
                self.sid.on_cluster_setup(payload.head_id, now)
            if payload.hops_remaining > 1:
                self.network.broadcast(
                    self.node_id,
                    ClusterSetupMsg(
                        head_id=payload.head_id,
                        hops_remaining=payload.hops_remaining - 1,
                        onset_time=payload.onset_time,
                    ),
                )
        elif isinstance(payload, ClusterCancelMsg):
            key = (payload.head_id, 0)
            if key in self._seen_cancels:
                return
            self._seen_cancels.add(key)
            if payload.head_id != self.node_id:
                self.sid.on_cluster_cancel(payload.head_id)
                self.network.broadcast(self.node_id, payload)
        elif isinstance(payload, MemberReportMsg):
            if payload.head_id == self.node_id:
                self.sid.on_member_report(payload.report)
                self._dispatch(self.sid.on_timer(now))
            elif not self._relay_is_dup(frame):
                self.network.unicast(self.node_id, payload.head_id, payload)
        elif isinstance(payload, ClusterReportMsg):
            if self._relay_is_dup(frame):
                return
            if payload.static_head_id == self.node_id:
                # We are the static head: strip the indirection and
                # forward toward the sink.
                self.network.send_to_sink(
                    self.node_id, ClusterReportMsg(report=payload.report)
                )
            elif payload.static_head_id is None:
                self.network.send_to_sink(self.node_id, payload)
            else:
                self.network.unicast(
                    self.node_id, payload.static_head_id, payload
                )


class SensorNetwork:
    """The whole deployed network: substrate + node processes + sink."""

    def __init__(
        self,
        positions: dict[int, Position],
        sink_id: int,
        sink_position: Position,
        sink: Sink,
        channel: Optional[Channel] = None,
        mac_config: Optional[MacConfig] = None,
        retransmit: Optional[RetransmitPolicy] = None,
        healing: Optional[SelfHealingConfig] = None,
        seed: RandomState = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if sink_id in positions:
            raise ConfigurationError(
                f"sink id {sink_id} collides with a sensor node id"
            )
        base = make_rng(seed)
        root = int(base.integers(2**31))
        self.sim = Simulator()
        #: Optional telemetry bundle; None keeps every emission site a
        #: single attribute check (the determinism contract of §12).
        self.telemetry = telemetry
        self.trace = telemetry.tracer if telemetry is not None else None
        self.channel = (
            channel
            if channel is not None
            else Channel(seed=derive_rng(root, "channel"))
        )
        self.mac = Mac(
            self.sim,
            self.channel,
            mac_config,
            seed=derive_rng(root, "mac"),
            tracer=self.trace,
        )
        self.positions = dict(positions)
        self.positions[sink_id] = sink_position
        self.graph = build_connectivity(self.positions, self.channel)
        self.routing = RoutingTable(self.graph, sink_id)
        self.sink_node = SinkNode(sink_id, sink_position, sink)
        self.nodes: dict[int, NetworkNode] = {}
        self.lost_to_partition = 0
        #: Optional report-retransmission policy (graceful degradation);
        #: None preserves the fire-and-forget transport exactly.
        self.retransmit = retransmit
        self.resilience = ResilienceStats()
        #: Optional self-healing runtime; None preserves the seed
        #: transport (and its RNG consumption) bit for bit.
        self.heal: Optional[SelfHealingRuntime] = (
            SelfHealingRuntime(self, healing) if healing is not None else None
        )
        #: Orphaned-subtree episodes currently open (dead node id ->
        #: (start time, orphaned ids)) and the closed event log.
        self._open_orphans: dict[int, tuple[float, tuple[int, ...]]] = {}
        self.degradation_events: list[OrphanEvent] = []
        #: Optional duplication/delay hook installed by a FaultInjector.
        self.delivery_faults: Optional["DeliveryFaults"] = None
        # Static geographic cells (Sec. IV-C.1); cell size of three
        # grid spacings keeps a handful of cells over the paper grid.
        sensor_positions = {
            nid: pos for nid, pos in positions.items()
        }
        spacing_guess = self._median_neighbour_spacing(sensor_positions)
        self.static_clusters = partition_static_clusters(
            sensor_positions, cell_size_m=3.0 * spacing_guess
        )
        self._static_head: dict[int, int] = {}
        for cluster in self.static_clusters:
            for member in cluster.member_ids:
                self._static_head[member] = cluster.head_id

    def add_node(
        self, sid: SIDNode, battery: Optional[Battery] = None
    ) -> NetworkNode:
        """Register one SID node process."""
        if sid.node_id not in self.positions:
            raise ConfigurationError(
                f"node {sid.node_id} has no deployed position"
            )
        node = NetworkNode(self, sid, battery)
        sid.tracer = self.trace
        self.nodes[sid.node_id] = node
        return node

    @staticmethod
    def _median_neighbour_spacing(positions: dict[int, Position]) -> float:
        """Median nearest-neighbour distance, for static-cell sizing."""
        ids = sorted(positions)
        if len(ids) < 2:
            return 25.0
        nearest = []
        for a in ids:
            nearest.append(
                min(
                    positions[a].distance_to(positions[b])
                    for b in ids
                    if b != a
                )
            )
        nearest.sort()
        return nearest[len(nearest) // 2]

    def static_head_of(self, node_id: int) -> int:
        """The static cluster head responsible for ``node_id``."""
        return self._static_head.get(node_id, node_id)

    def expected_cluster_members(self, head_id: int, hops: int) -> int:
        """Sensor nodes a ``hops``-hop setup flood from ``head_id`` reaches."""
        reachable = self.routing.nodes_within_hops(head_id, hops)
        return sum(1 for n in reachable if n != self.sink_node.node_id)

    # ------------------------------------------------------------------
    # Degradation events (orphaned subtrees)
    # ------------------------------------------------------------------
    def note_dead_drop(self, node_id: int) -> None:
        """First frame lost at a dead node opens an orphan episode.

        Without healing this is the structured record of the silent
        degradation the bare ``frames_dropped_dead_node`` counter
        hides: which subtree lost sink connectivity, and (once closed)
        for how long.  With healing armed the same evidence feeds the
        repair path, so episodes stay short.
        """
        if node_id in self._open_orphans:
            return
        orphaned = tuple(self.routing.subtree_of(node_id))
        self._open_orphans[node_id] = (self.sim.now, orphaned)
        self.resilience.subtrees_orphaned += 1
        logger.warning(
            "dead node %d orphaned subtree %s at t=%.1f s%s",
            node_id,
            list(orphaned),
            self.sim.now,
            " (healing armed)" if self.heal is not None else "",
        )

    def close_orphan(self, node_id: int) -> None:
        """Close an open orphan episode (the dead node rebooted)."""
        opened = self._open_orphans.pop(node_id, None)
        if opened is None:
            return
        start, orphaned = opened
        event = OrphanEvent(node_id, orphaned, start, self.sim.now)
        self.degradation_events.append(event)
        logger.info(
            "subtree of dead node %d restored after %.1f s",
            node_id,
            event.duration_s,
        )

    def finalize_resilience(self) -> None:
        """Close run-end-truncated orphan episodes and blind windows."""
        for node_id in sorted(self._open_orphans):
            self.close_orphan(node_id)
        for node_id in sorted(self.nodes):
            self.nodes[node_id]._close_blind_window()

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------
    def _neighbours(self, node_id: int) -> list[int]:
        return sorted(self.graph.neighbors(node_id))

    def _deliver(self, dst: int, frame: Frame) -> None:
        if self.delivery_faults is not None:
            self.delivery_faults.deliver(
                self.sim, dst, frame, self._deliver_direct
            )
        else:
            self._deliver_direct(dst, frame)

    def _deliver_direct(self, dst: int, frame: Frame) -> None:
        if self.trace is not None:
            self.trace.emit(
                CAT_FRAME,
                "rx",
                sim_time_s=self.sim.now,
                node_id=dst,
                src=frame.src,
            )
        if self.heal is not None and frame.src in self.heal.dead:
            # Heartbeat evidence: a frame from a declared-dead node
            # proves it alive (false positive under burst loss) —
            # fold it straight back into the tree.
            self.heal.node_rejoined(frame.src)
        if dst == self.sink_node.node_id:
            self.sink_node.on_frame(frame, self.sim.now)
        elif dst in self.nodes:
            self.nodes[dst].on_frame(frame, self.sim.now)

    def _bill_tx(self, src: int, frame: Frame) -> bool:
        """Charge the sender's battery; False when the node is dead."""
        node = self.nodes.get(src)
        if node is None or node.battery is None:
            return True
        return node.battery.draw_tx(frame.size_bytes)

    def broadcast(self, src: int, payload: object) -> None:
        """Link-local broadcast: every neighbour draws its own link."""
        frame = Frame(src=src, dst=BROADCAST, payload=payload)
        if not self._bill_tx(src, frame):
            return
        neighbours = self._neighbours(src)
        src_pos = self.positions[src]

        def fan_out(sent: Frame) -> None:
            for nid in neighbours:
                if self.channel.attempt_delivery(
                    src, nid, src_pos, self.positions[nid]
                ):
                    self._deliver(nid, sent)

        self.mac.send(
            frame,
            src_pos,
            None,
            neighbours,
            on_delivered=fan_out,
        )

    def unicast(
        self,
        src: int,
        dst: int,
        payload: object,
        on_failed: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        """One-hop-at-a-time unicast along the shortest path to ``dst``.

        ``on_failed`` (optional) fires when the first hop exhausts its
        MAC retries — the hook the report-retransmission policy uses.
        With healing armed the hop instead rides the self-healing
        transport (per-hop retries, dead-node avoidance) and
        ``on_failed`` fires only when that transport abandons the
        frame.
        """
        if self.heal is not None:
            self.heal.forward(src, dst, payload, on_abandon=on_failed)
            return
        if dst not in self.graph or src not in self.graph:
            self.lost_to_partition += 1
            return
        try:
            path = nx.shortest_path(self.graph, src, dst)
        except nx.NetworkXNoPath:
            self.lost_to_partition += 1
            return
        if len(path) < 2:
            return
        next_hop = path[1]
        frame = Frame(src=src, dst=next_hop, payload=payload)
        if not self._bill_tx(src, frame):
            return
        self.mac.send(
            frame,
            self.positions[src],
            self.positions[next_hop],
            self._neighbours(src),
            on_delivered=lambda f: self._deliver(next_hop, f),
            on_failed=on_failed,
        )

    def send_to_sink(
        self,
        src: int,
        payload: object,
        on_failed: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        """Forward toward the sink via the routing tree.

        With healing armed the hop rides the self-healing transport:
        missed acks accrue evidence against the parent, the tree is
        repaired around parents declared dead, and the frame is re-sent
        over the repaired route.
        """
        if self.heal is not None:
            self.heal.forward(src, None, payload, on_abandon=on_failed)
            return
        next_hop = self.routing.next_hop(src)
        if next_hop is None:
            if src == self.sink_node.node_id:
                self._deliver(src, Frame(src=src, dst=src, payload=payload))
            else:
                self.lost_to_partition += 1
            return
        frame = Frame(src=src, dst=next_hop, payload=payload)
        self.mac.send(
            frame,
            self.positions[src],
            self.positions[next_hop],
            self._neighbours(src),
            on_delivered=lambda f: self._deliver(next_hop, f),
            on_failed=on_failed,
        )
