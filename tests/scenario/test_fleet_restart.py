"""Restart-aware fleet precompute: fleet vs reference under faults and healing.

``run_network_scenario`` precomputes every window outcome with the
fleet engine even when self-healing is armed: crash masks and cold
restart resets are derived from the fault plan before the run starts.
The event-time per-node walk (``tests.scenario.oracles``) is the
oracle — every case here demands bit-identical digests, on plans built
to hit the event loop's edge cases (a crash on a node that is already
down, a crash at the same instant as that node's reboot, a crash that
never reboots).
"""

from __future__ import annotations

import math

import pytest

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import FaultPlan, NodeCrash
from repro.network.selfheal import SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_ship
from repro.scenario.runner import _effective_crashes, run_network_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.imote2 import MoteConfig
from repro.telemetry import Telemetry

from tests.scenario.oracles import reference_network
from tests.scenario.test_golden_digest import _scenario

#: Node 4 crashes again while still down from its first crash: the
#: injector ignores the second crash, and so never schedules its reboot.
OVERLAPPING = FaultPlan(
    node_crashes=(NodeCrash(4, 30.0, 40.0), NodeCrash(4, 50.0, 80.0))
)

PLANS = {
    "none": None,
    "rolling": FaultPlan.rolling_crashes(
        [5, 2, 5], first_at_s=50.0, interval_s=30.0, downtime_s=40.0
    ),
    "overlapping": OVERLAPPING,
    "no_reboot": FaultPlan(node_crashes=(NodeCrash(6, 70.0),)),
    # Node 4 reboots at 70 s, the instant its second crash is planned.
    "same_instant": FaultPlan(
        node_crashes=(
            NodeCrash(4, 40.0, 30.0),
            NodeCrash(4, 70.0, 20.0),
            NodeCrash(1, 45.0, 25.0),
        )
    ),
}

#: Healing variants: cold restarts, a persisted baseline, and battery
#: demotion on a battery small enough that the 90 % watch fires mid-run.
HEALING = {
    "cold_restart": (SelfHealingConfig(), None),
    "persist_baseline": (SelfHealingConfig(persist_baseline=True), None),
    "demote": (
        SelfHealingConfig(demote_battery_fraction=0.9),
        MoteConfig(battery_capacity_j=10.0),
    ),
}


def _run_small(run, plan, healing, mote_config, seed):
    dep = GridDeployment(3, 4, seed=31, mote_config=mote_config)
    return run(
        dep,
        [paper_ship(dep, cross_time_s=90.0)],
        sid_config=SIDNodeConfig(
            detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
            cluster=TemporaryClusterConfig(min_rows=3),
        ),
        synthesis_config=SynthesisConfig(duration_s=180.0),
        faults=plan,
        healing=healing,
        resync_interval_s=40.0,
        seed=seed,
    )


class TestFleetMatchesReference:
    @pytest.mark.parametrize("seed", [3, 9])
    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("heal_name", sorted(HEALING))
    def test_digest_equal(self, heal_name, plan_name, seed):
        healing, mote_config = HEALING[heal_name]
        plan = PLANS[plan_name]
        fleet = _run_small(run_network_scenario, plan, healing, mote_config, seed)
        reference = _run_small(reference_network, plan, healing, mote_config, seed)
        assert scenario_digest(fleet) == scenario_digest(reference)

    def test_matrix_exercises_restarts_and_demotion(self):
        # Guard against a matrix that silently stops testing anything:
        # the cold-restart cases re-warm baselines, the demotion case
        # demotes.
        healing, mote_config = HEALING["cold_restart"]
        res = _run_small(
            run_network_scenario, PLANS["same_instant"], healing, mote_config, 9
        )
        assert res.fault_stats["cold_restarts"] == 2
        assert res.fault_stats["baseline_blind_window_s"] > 0
        healing, mote_config = HEALING["demote"]
        res = _run_small(run_network_scenario, None, healing, mote_config, 9)
        assert res.fault_stats["sentinel_demotions"] > 0


class TestEffectiveCrashes:
    def test_crash_on_a_down_node_is_dropped(self):
        assert _effective_crashes(OVERLAPPING, [4], 0.0) == {
            4: [(30.0, 70.0)]
        }

    def test_crash_at_the_reboot_instant_is_dropped(self):
        plan = FaultPlan(
            node_crashes=(NodeCrash(4, 40.0, 30.0), NodeCrash(4, 70.0, 20.0))
        )
        assert _effective_crashes(plan, [4], 0.0) == {4: [(40.0, 70.0)]}

    def test_order_is_by_crash_time_not_plan_index(self):
        plan = FaultPlan(
            node_crashes=(
                NodeCrash(2, 100.0, 10.0),
                NodeCrash(2, 20.0, 90.0),
                NodeCrash(3, 5.0),
                NodeCrash(3, 50.0, 5.0),
            )
        )
        assert _effective_crashes(plan, [2, 3], 0.0) == {
            2: [(20.0, 110.0)],
            3: [(5.0, math.inf)],
        }

    def test_past_crashes_clamp_to_now_and_unknown_nodes_skip(self):
        plan = FaultPlan(
            node_crashes=(NodeCrash(1, 2.0, 3.0), NodeCrash(99, 10.0, 1.0))
        )
        assert _effective_crashes(plan, [1], 4.0) == {1: [(4.0, 7.0)]}
        assert _effective_crashes(None, [1], 0.0) == {1: []}


class TestHealedRunsTakeThePrecompute:
    def test_no_per_node_detection_and_stage_recorded(self, monkeypatch):
        # A silent fallback to per-node detection must fail here, not
        # show up later as a slowdown.
        calls = []
        original = NodeDetector.process_window

        def counting(self, a_window, t0):
            calls.append(self.node_id)
            return original(self, a_window, t0)

        monkeypatch.setattr(NodeDetector, "process_window", counting)
        tel = Telemetry.memory()
        dep, ship, synth, cfg = _scenario()
        result = run_network_scenario(
            dep,
            [ship],
            sid_config=cfg,
            synthesis_config=synth,
            faults=FaultPlan.rolling_crashes(
                [5, 2], first_at_s=60.0, interval_s=30.0, downtime_s=60.0
            ),
            healing=SelfHealingConfig(),
            resync_interval_s=40.0,
            seed=9,
            telemetry=tel,
        )
        assert result.fault_stats["cold_restarts"] == 2
        assert "detection_precompute" in {e.name for e in tel.events}
        assert calls == []
