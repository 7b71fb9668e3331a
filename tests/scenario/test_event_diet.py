"""Quiet-tick elision equivalence: the event diet changes nothing.

``run_network_scenario(quiet_elision=True)`` (the default) coalesces
provably-no-op window feeds into batched catch-up events and drops
timer ticks outside each node's guarded head-activity intervals.  The
whole point is that this is *invisible*: every test here runs the same
scenario with elision on and off and demands bit-identical results —
including the battery billing that the catch-up path replays in batch.
"""

from __future__ import annotations

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import FaultPlan
from repro.network.nodeproc import RetransmitPolicy
from repro.network.selfheal import SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_ship
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.imote2 import MoteConfig
from repro.telemetry import Telemetry


def _config():
    return SIDNodeConfig(
        detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
        cluster=TemporaryClusterConfig(min_rows=3),
    )


def _run(with_ship=True, mote_config=None, telemetry=None, **kwargs):
    dep = GridDeployment(3, 3, seed=31, mote_config=mote_config)
    ships = [paper_ship(dep, cross_time_s=80.0)] if with_ship else []
    return run_network_scenario(
        dep,
        ships,
        sid_config=_config(),
        synthesis_config=SynthesisConfig(duration_s=160.0),
        resync_interval_s=40.0,
        seed=9,
        telemetry=telemetry,
        **kwargs,
    )


class TestElisionEquivalence:
    def test_ship_scenario_bit_identical(self):
        fast = _run(quiet_elision=True)
        full = _run(quiet_elision=False)
        assert fast.intrusion_detected
        assert scenario_digest(fast) == scenario_digest(full)

    def test_quiet_fleet_bit_identical(self):
        # No ship: the quiet-heavy case where elision collapses most of
        # the schedule.
        fast = _run(with_ship=False, quiet_elision=True)
        full = _run(with_ship=False, quiet_elision=False)
        assert not fast.intrusion_detected
        assert scenario_digest(fast) == scenario_digest(full)

    def test_forced_retransmit_bit_identical(self):
        # A retransmit policy widens the elision guard (staleness);
        # both arms must still agree.
        policy = RetransmitPolicy(
            max_attempts=3, base_backoff_s=0.5, staleness_s=30.0
        )
        fast = _run(quiet_elision=True, retransmit=policy)
        full = _run(quiet_elision=False, retransmit=policy)
        assert scenario_digest(fast) == scenario_digest(full)

    def test_telemetry_counters_agree(self):
        # The batched catch-up path must bill the same counter the
        # one-event-per-window path does, the same number of times.
        tel_fast = Telemetry.memory()
        tel_full = Telemetry.memory()
        fast = _run(quiet_elision=True, telemetry=tel_fast)
        full = _run(quiet_elision=False, telemetry=tel_full)
        assert scenario_digest(fast) == scenario_digest(full)
        windows_fast = tel_fast.metrics.counter("windows_processed").value
        windows_full = tel_full.metrics.counter("windows_processed").value
        assert windows_fast == windows_full > 0


class TestElisionPreconditions:
    def test_tiny_battery_disables_elision_safely(self):
        # With almost no battery headroom the billing-order precondition
        # fails, elision turns itself off, and both arms take the full
        # schedule — results must still match exactly.
        mote = MoteConfig(battery_capacity_j=0.5)
        fast = _run(mote_config=mote, quiet_elision=True)
        full = _run(mote_config=mote, quiet_elision=False)
        assert scenario_digest(fast) == scenario_digest(full)

    def test_fault_plan_disables_elision_safely(self):
        # An active fault plan forces the full path (crashes change
        # which windows are no-ops); equivalence is trivial but the
        # flag must not perturb the run.
        plan = FaultPlan.rolling_crashes(
            [5, 2], first_at_s=60.0, interval_s=30.0, downtime_s=60.0
        )
        fast = _run(quiet_elision=True, faults=plan)
        full = _run(quiet_elision=False, faults=plan)
        assert scenario_digest(fast) == scenario_digest(full)


class TestElisionUnderHealing:
    @staticmethod
    def _events(quiet_elision, **kwargs):
        tel = Telemetry.memory()
        result = _run(quiet_elision=quiet_elision, telemetry=tel, **kwargs)
        executed = tel.metrics.counter("scheduler.events_executed").value
        return scenario_digest(result), executed

    def test_healed_run_without_plan_elides_bit_identically(self):
        # Healed runs take the fleet precompute, so with no fault plan
        # the event diet engages for them too.
        healing = SelfHealingConfig()
        fast, fast_events = self._events(True, healing=healing)
        full, full_events = self._events(False, healing=healing)
        assert fast == full
        assert fast_events < full_events

    def test_low_charge_watch_declines_elision(self):
        # The demotion watch fires on cumulative draws, which batched
        # catch-up billing reorders: elision must stay off (the 10 J
        # battery crosses the 90 % watermark mid-run).
        healing = SelfHealingConfig(demote_battery_fraction=0.9)
        mote = MoteConfig(battery_capacity_j=10.0)
        fast, fast_events = self._events(
            True, healing=healing, mote_config=mote
        )
        full, full_events = self._events(
            False, healing=healing, mote_config=mote
        )
        assert fast == full
        assert fast_events == full_events
