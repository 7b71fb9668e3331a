"""Algorithm SID: the paper's per-node pseudocode, wired end to end.

The node-side algorithm (paper Sec. IV-D) has four procedures:

- **Initialization** — sample ``u`` data, compute the eq.-4 statistics,
  start detecting;
- **DetectIntrusion** — per window: compute ``D_i``; if ``af`` passes
  the threshold either set up a temporary cluster or report to the
  existing temporary cluster head; otherwise fold the window into the
  eq.-5 baseline;
- **SetUpTempCluster** — become head, inform nodes within six hops,
  start the evaluation timer;
- **SpaceTimeDataProcessing** — when the timer fires, evaluate the
  spatial/temporal correlations; report to the local (static) cluster
  head when correlated, and compute the ship speed (eq. 16) when the
  four-node condition holds.

:class:`SIDNode` is a *pure state machine*: it consumes window
outcomes and peer messages and returns :class:`SIDAction` values
describing what the node wants transmitted.  A window outcome is the
eq. 4-8 result for one Delta-t window — a report or None, plus whether
the baseline has seeded — which the fleet engine
(:mod:`repro.detection.fleet`) computes for the whole deployment; the
network stack replays each one at its window end time.  Detection is
purely local, so the state machine needs nothing else from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from repro.detection.cluster import (
    ClusterEvent,
    TemporaryCluster,
    TemporaryClusterConfig,
    TravelLine,
)
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.reports import ClusterReport, NodeReport
from repro.errors import InternalError, ProtocolError
from repro.telemetry.events import CAT_DETECTION
from repro.telemetry.tracer import Tracer
from repro.types import Position


class SIDState(Enum):
    """Top-level node states."""

    INITIALIZING = "initializing"
    MONITORING = "monitoring"
    TEMP_CLUSTER_HEAD = "temp-cluster-head"
    TEMP_CLUSTER_MEMBER = "temp-cluster-member"


# ----------------------------------------------------------------------
# Actions the node asks its network layer to perform
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SetupClusterAction:
    """Broadcast cluster setup to neighbours within ``hops`` hops."""

    initiator: NodeReport
    hops: int


@dataclass(frozen=True)
class MemberReportAction:
    """Unicast a positive report to the temporary cluster head."""

    head_id: int
    report: NodeReport


@dataclass(frozen=True)
class ClusterResultAction:
    """Send a fused cluster report toward the static head / sink."""

    report: ClusterReport
    event: ClusterEvent


@dataclass(frozen=True)
class CancelClusterAction:
    """Tear the temporary cluster down (false alarm)."""

    head_id: int


SIDAction = Union[
    SetupClusterAction,
    MemberReportAction,
    ClusterResultAction,
    CancelClusterAction,
]


@dataclass(frozen=True)
class SIDNodeConfig:
    """Bundled configuration for one SID node."""

    detector: NodeDetectorConfig = field(default_factory=NodeDetectorConfig)
    cluster: TemporaryClusterConfig = field(
        default_factory=TemporaryClusterConfig
    )
    #: Membership in a temporary cluster expires after this long without
    #: the head confirming (protects members when the head dies).  Must
    #: exceed the cluster collection window.
    membership_ttl_s: float = 180.0


class SIDNode:
    """One node running Algorithm SID, fed window outcomes.

    Initialization and the eq. 4-8 detection run outside the state
    machine (the fleet engine walks every node's windows); each window's
    outcome arrives through :meth:`on_window_outcome`, which drives the
    DetectIntrusion branches.  ``config.detector`` configures the engine
    that computes those outcomes; the state machine itself never reads
    it.
    """

    def __init__(
        self,
        node_id: int,
        position: Position,
        config: SIDNodeConfig | None = None,
        track_hint: TravelLine | None = None,
    ) -> None:
        self.config = config if config is not None else SIDNodeConfig()
        self.node_id = node_id
        self.position = position
        #: Optional externally supplied travel-line hypothesis (used by
        #: the controlled Table I/II experiments); None = fit from data.
        self.track_hint = track_hint
        self._cluster: Optional[TemporaryCluster] = None
        self._member_of: Optional[int] = None
        self._member_since: float = 0.0
        #: Set by :meth:`on_window_outcome` once a window outcome
        #: reports the eq. 4 baseline seeded; cleared by a cold restart.
        self._initialized = False
        #: Optional telemetry tracer, installed by the network layer;
        #: None keeps the detection path free of emission overhead.
        self.tracer: Optional[Tracer] = None

    def cold_restart(self) -> None:
        """Forget all RAM state, as a true (non-watchdog) reboot would.

        Any temporary-cluster role and any membership are lost, and the
        node re-enters INITIALIZING until a window outcome reports its
        eq. 5 baseline re-seeded from ``init_windows`` fresh windows
        (the engine computing the outcomes resets the baseline at the
        same reboot) — the re-warm-up blind window the self-healing
        runtime meters.
        """
        self._cluster = None
        self._member_of = None
        self._member_since = 0.0
        self._initialized = False

    @property
    def state(self) -> SIDState:
        """Current node state."""
        if not self._initialized:
            return SIDState.INITIALIZING
        if self._cluster is not None and not self._cluster.closed:
            return SIDState.TEMP_CLUSTER_HEAD
        if self._member_of is not None:
            return SIDState.TEMP_CLUSTER_MEMBER
        return SIDState.MONITORING

    @property
    def in_temp_cluster(self) -> bool:
        """The pseudocode's ``NotInTempCluster`` flag, inverted."""
        return self.state in (
            SIDState.TEMP_CLUSTER_HEAD,
            SIDState.TEMP_CLUSTER_MEMBER,
        )

    # ------------------------------------------------------------------
    # DetectIntrusion
    # ------------------------------------------------------------------
    def on_window_outcome(
        self,
        report: Optional[NodeReport],
        t0: float,
        initialized: bool,
    ) -> list[SIDAction]:
        """DetectIntrusion for one Delta-t window starting at ``t0``.

        ``report`` is the window's eq. 4-8 outcome (None when the
        anomaly frequency stayed below threshold or the baseline is
        still seeding) and ``initialized`` whether the baseline had
        seeded by the end of the window.
        """
        self._expire_membership(t0)
        if initialized:
            self._initialized = True
        return self._actions_for_report(report)

    def _actions_for_report(
        self, report: Optional[NodeReport]
    ) -> list[SIDAction]:
        if report is None:
            return []
        if self.tracer is not None:
            # The eq. 9 alarm: this window's anomaly frequency cleared
            # the node threshold and becomes protocol traffic.
            self.tracer.emit(
                CAT_DETECTION,
                "alarm",
                sim_time_s=report.onset_time,
                node_id=self.node_id,
                energy=report.energy,
                anomaly_frequency=report.anomaly_frequency,
            )
        if self.state == SIDState.TEMP_CLUSTER_HEAD:
            if self._cluster is None:
                raise InternalError(
                    "TEMP_CLUSTER_HEAD state without an open cluster"
                )
            self._cluster.add_report(report)
            return []
        if self.state == SIDState.TEMP_CLUSTER_MEMBER:
            if self._member_of is None:
                raise InternalError(
                    "TEMP_CLUSTER_MEMBER state without a recorded head"
                )
            return [
                MemberReportAction(head_id=self._member_of, report=report)
            ]
        # NotInTempCluster -> SetUpTempCluster
        self._cluster = TemporaryCluster(report, self.config.cluster)
        return [
            SetupClusterAction(
                initiator=report, hops=self.config.cluster.hops
            )
        ]

    # ------------------------------------------------------------------
    # Peer messages
    # ------------------------------------------------------------------
    def note_expected_members(self, n: int) -> None:
        """Record how many members the setup flood reached.

        Called by the network layer after it fans the SetUpTempCluster
        announcement out; lets the cluster's deadline evaluation tell
        silent-but-expected members (faults) apart from a quiet sea.
        """
        if self._cluster is not None and not self._cluster.closed:
            self._cluster.expected_members = n

    def on_cluster_setup(self, head_id: int, t: float) -> None:
        """A neighbour announced a temporary cluster; join as member.

        A node already heading its own cluster ignores the invite (the
        two heads' reports still reach the sink independently).
        """
        if head_id == self.node_id:
            raise ProtocolError("node received its own cluster setup")
        if self.state == SIDState.TEMP_CLUSTER_HEAD:
            return
        self._member_of = head_id
        self._member_since = t

    def on_cluster_cancel(self, head_id: int) -> None:
        """The head cancelled; leave the cluster."""
        if self._member_of == head_id:
            self._member_of = None

    def on_member_report(self, report: NodeReport) -> None:
        """Head side: collect a member's positive report."""
        if self._cluster is None or self._cluster.closed:
            # Late report after evaluation - drop (paper: reports must
            # arrive "within a certain period of time").
            return
        self._cluster.add_report(report)

    # ------------------------------------------------------------------
    # SpaceTimeDataProcessing
    # ------------------------------------------------------------------
    def on_timer(self, t: float) -> list[SIDAction]:
        """Evaluation timer tick; fires SpaceTimeDataProcessing when due."""
        self._expire_membership(t)
        if self._cluster is None or self._cluster.closed:
            return []
        if t < self._cluster.deadline:
            return []
        event, report = self._cluster.evaluate(self.track_hint)
        head_id = self.node_id
        self._cluster = None
        if event == ClusterEvent.CONFIRMED and report is not None:
            # Only correlated detections travel to the sink (Sec. V-B.1);
            # everything else tears the temporary cluster down.
            return [
                ClusterResultAction(report=report, event=event),
                CancelClusterAction(head_id=head_id),
            ]
        return [CancelClusterAction(head_id=head_id)]

    def _expire_membership(self, t: float) -> None:
        if (
            self._member_of is not None
            and t - self._member_since > self.config.membership_ttl_s
        ):
            self._member_of = None
