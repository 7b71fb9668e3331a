"""Ragged sample grids run as fleet groups, never as per-node detectors.

Nodes whose traces share one sample-grid shape form a lockstep
:class:`FleetDetector` group; a fleet with one node sampling at half
rate runs as two groups.  Neither the offline nor the network runner may
fall back to per-node ``process_window`` calls for that, and both must
still match the per-node scalar oracles bit for bit.  The
duty-cycled runner has one walk too: fault plans, ragged grids and zero
wake-up latency all run as fleet groups.
"""

from __future__ import annotations

import pytest

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.dutycycle import DutyCycleConfig
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.errors import SignalLengthError
from repro.faults.plan import BatteryDrain, FaultPlan, NodeCrash
from repro.network.selfheal import SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_scenario, paper_ship
from repro.scenario.runner import (
    detect_and_fuse,
    run_dutycycled_scenario,
    run_network_scenario,
    run_offline_scenario,
)
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.sensors.sampler import Sampler
from repro.telemetry import Telemetry

from tests.detection.oracles import ScalarNodeDetector
from tests.scenario.oracles import reference_network, reference_offline
from tests.scenario.test_offline_split import DETECTOR, SEED, _digest, _setup


@pytest.fixture
def window_calls(monkeypatch):
    """Node ids of every per-node ``process_window`` call, in order: the
    scalar oracle's and the library's single-node ``NodeDetector``'s."""
    calls: list[int] = []
    for cls in (ScalarNodeDetector, NodeDetector):
        original = cls.process_window

        def counting(self, a_window, t0, original=original):
            calls.append(self.node_id)
            return original(self, a_window, t0)

        monkeypatch.setattr(cls, "process_window", counting)
    return calls


def _span(tel: Telemetry, name: str):
    return next(e for e in tel.events if e.name == name)


def test_ragged_offline_runs_two_groups_and_matches_oracle(window_calls):
    synth = SynthesisConfig(duration_s=200.0)
    dep, ships = _setup(ragged=True)
    tel = Telemetry.memory()
    got = run_offline_scenario(
        dep,
        ships,
        detector_config=DETECTOR,
        synthesis_config=synth,
        seed=SEED,
        telemetry=tel,
    )
    assert window_calls == []
    assert _span(tel, "detection").field("fleet_groups") == 2

    dep, ships = _setup(ragged=True)
    traces = synthesize_fleet_traces(dep, ships, synth, seed=SEED)
    want = reference_offline(dep, traces, ships, detector_config=DETECTOR)
    assert window_calls  # the oracle really walks per node
    assert any(got.merged_by_node.values())
    assert got.reports_by_node == want.reports_by_node
    assert _digest(got) == _digest(want)


def test_short_traces_still_raise():
    dep, ships = _setup(ragged=True)
    traces = synthesize_fleet_traces(
        dep, ships, SynthesisConfig(duration_s=1.0), seed=SEED
    )
    with pytest.raises(SignalLengthError):
        detect_and_fuse(dep, traces, ships, detector_config=DETECTOR)


def _ragged_network(run, plan, healing, seed=9, telemetry=None):
    dep = GridDeployment(3, 4, seed=31)
    dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
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
        telemetry=telemetry,
    )


#: Node 0 is the half-rate node, alone in its grid group; it reboots
#: before the wake reaches its (half-rate) record.
CRASHES = FaultPlan(
    node_crashes=(
        NodeCrash(0, 15.0, 20.0),
        NodeCrash(5, 50.0, 40.0),
        NodeCrash(6, 70.0),
    )
)


@pytest.mark.parametrize(
    "plan, healing",
    [
        (None, None),
        (CRASHES, None),
        (CRASHES, SelfHealingConfig()),
        (CRASHES, SelfHealingConfig(persist_baseline=True)),
    ],
    ids=["unfaulted", "crashes", "crashes_healed", "crashes_persisted"],
)
def test_ragged_network_runs_two_groups_and_matches_oracle(
    window_calls, plan, healing
):
    tel = Telemetry.memory()
    got = _ragged_network(run_network_scenario, plan, healing, telemetry=tel)
    assert window_calls == []
    assert _span(tel, "detection_precompute").field("fleet_groups") == 2
    if healing is not None:
        restarts = 0 if healing.persist_baseline else 2
        assert got.fault_stats["cold_restarts"] == restarts
    want = _ragged_network(reference_network, plan, healing)
    assert window_calls
    assert scenario_digest(got) == scenario_digest(want)


def _duty_groups(faults=None, ragged=False, latency=2.0):
    """Fleet groups a duty-cycled run records on its ``detection`` span."""
    dep, ship, synth = paper_scenario(
        rows=3, columns=3, duration_s=120.0, seed=23
    )
    if ragged:
        dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
    tel = Telemetry.memory()
    run_dutycycled_scenario(
        dep,
        [ship],
        synthesis_config=synth,
        duty_config=DutyCycleConfig(wakeup_latency_s=latency),
        faults=faults,
        seed=23,
        telemetry=tel,
    )
    return _span(tel, "detection").field("fleet_groups")


class TestDutyCycleWalkIsGrouped:
    """Inputs the old sequential walk took now run as fleet groups."""

    def test_fault_plan(self, window_calls):
        plan = FaultPlan(battery_drains=(BatteryDrain(0, 10.0, 2.0),))
        assert _duty_groups(faults=plan) == 1
        assert window_calls == []

    def test_ragged_grid(self, window_calls):
        assert _duty_groups(ragged=True) == 2
        assert window_calls == []

    def test_zero_latency(self, window_calls):
        assert _duty_groups(latency=0.0) == 1
        assert window_calls == []
