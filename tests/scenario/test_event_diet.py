"""Quiet-tick elision equivalence: the event diet changes nothing.

``run_network_scenario`` coalesces provably-no-op window feeds into
batched catch-up events and drops timer ticks outside each node's
guarded head-activity intervals, whenever its inputs allow it.  The
whole point is that this is *invisible*: every test here runs the same
scenario as the runner chooses and on the full schedule
(``full_schedule``) and demands bit-identical results — including the
battery billing that the catch-up path replays in batch.
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

from tests.scenario.oracles import eager_trains, full_schedule


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


def _run_full(**kwargs):
    """``_run`` on the one-event-per-window schedule."""
    with full_schedule():
        return _run(**kwargs)


class TestElisionEquivalence:
    def test_ship_scenario_bit_identical(self):
        fast = _run()
        full = _run_full()
        assert fast.intrusion_detected
        assert scenario_digest(fast) == scenario_digest(full)

    def test_quiet_fleet_bit_identical(self):
        # No ship: the quiet-heavy case where elision collapses most of
        # the schedule.
        fast = _run(with_ship=False)
        full = _run_full(with_ship=False)
        assert not fast.intrusion_detected
        assert scenario_digest(fast) == scenario_digest(full)

    def test_forced_retransmit_bit_identical(self):
        # A retransmit policy widens the elision guard (staleness);
        # both arms must still agree.
        policy = RetransmitPolicy(
            max_attempts=3, base_backoff_s=0.5, staleness_s=30.0
        )
        fast = _run(retransmit=policy)
        full = _run_full(retransmit=policy)
        assert scenario_digest(fast) == scenario_digest(full)

    def test_telemetry_counters_agree(self):
        # The batched catch-up path must bill the same counter the
        # one-event-per-window path does, the same number of times.
        tel_fast = Telemetry.memory()
        tel_full = Telemetry.memory()
        fast = _run(telemetry=tel_fast)
        full = _run_full(telemetry=tel_full)
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
        fast = _run(mote_config=mote)
        full = _run_full(mote_config=mote)
        assert scenario_digest(fast) == scenario_digest(full)

    def test_fault_plan_disables_elision_safely(self):
        # An active fault plan forces the full path (crashes change
        # which windows are no-ops); equivalence is trivial but forcing
        # the full schedule must not perturb the run.
        plan = FaultPlan.rolling_crashes(
            [5, 2], first_at_s=60.0, interval_s=30.0, downtime_s=60.0
        )
        fast = _run(faults=plan)
        full = _run_full(faults=plan)
        assert scenario_digest(fast) == scenario_digest(full)


class TestElisionUnderHealing:
    @staticmethod
    def _events(run, **kwargs):
        tel = Telemetry.memory()
        result = run(telemetry=tel, **kwargs)
        executed = tel.metrics.counter("scheduler.events_executed").value
        return scenario_digest(result), executed

    def test_healed_run_without_plan_elides_bit_identically(self):
        # Healed runs take the fleet precompute, so with no fault plan
        # the event diet engages for them too.
        healing = SelfHealingConfig()
        fast, fast_events = self._events(_run, healing=healing)
        full, full_events = self._events(_run_full, healing=healing)
        assert fast == full
        assert fast_events < full_events

    def test_low_charge_watch_declines_elision(self):
        # The demotion watch fires on cumulative draws, which batched
        # catch-up billing reorders: elision must stay off (the 10 J
        # battery crosses the 90 % watermark mid-run).
        healing = SelfHealingConfig(demote_battery_fraction=0.9)
        mote = MoteConfig(battery_capacity_j=10.0)
        fast, fast_events = self._events(
            _run, healing=healing, mote_config=mote
        )
        full, full_events = self._events(
            _run_full, healing=healing, mote_config=mote
        )
        assert fast == full
        assert fast_events == full_events


class TestLazyTrains:
    """Each node's window feeds ride one queue entry (DESIGN.md §14).

    The trains change no event: the eager expansion (one queued event
    per member) must execute the same events with the same digest.
    If the runner stops handing its feeds to trains, the peak queue
    depth grows with the window count and these fail.
    """

    N_NODES = 9

    @staticmethod
    def _scheduler(**kwargs):
        tel = Telemetry.memory()
        result = _run(telemetry=tel, **kwargs)
        counter = tel.metrics.counter
        return (
            scenario_digest(result),
            counter("scheduler.events_executed").value,
            counter("scheduler.peak_queue_depth").value,
        )

    def _check(self, **kwargs):
        digest, events, depth = self._scheduler(**kwargs)
        with eager_trains():
            eager_digest, eager_events, eager_depth = self._scheduler(**kwargs)
        assert digest == eager_digest
        assert events == eager_events
        assert depth <= 5 * self.N_NODES < eager_depth

    def test_healed_faulted_run_keeps_queue_shallow(self):
        plan = FaultPlan.rolling_crashes(
            [4, 4], first_at_s=50.0, interval_s=50.0, downtime_s=30.0
        )
        self._check(faults=plan, healing=SelfHealingConfig())

    def test_quiet_elided_run_keeps_queue_shallow(self):
        self._check(with_ship=False)
