"""The duty-cycled runner's group walk against the per-node sequential spec.

``run_dutycycled_scenario`` steps fleet groups in batches of equal
window start time; ``reference_dutycycled`` visits one window at a time
in global ``(t0, node_id, start)`` order.  Both must agree on the
reports, the first alarm, the demotions and every battery's charge,
down to the last bit, for fault plans, ragged grids and any wake-up
latency.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.dutycycle import DutyCycleConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.faults.plan import BatteryDrain, FaultPlan
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_ship
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.imote2 import MoteConfig
from repro.sensors.sampler import Sampler

from tests.conftest import examples
from tests.scenario.oracles import runner_and_oracle


def _outcomes(
    rows,
    columns,
    duration_s,
    capacity_j,
    duty,
    faults,
    detector,
    ragged=False,
    seed=23,
):
    """Runner and oracle outcomes on a grid of ``capacity_j`` batteries."""

    def scenario():
        dep = GridDeployment(
            rows,
            columns,
            seed=31,
            mote_config=MoteConfig(battery_capacity_j=capacity_j),
        )
        if ragged:
            dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
        return dep, [paper_ship(dep, cross_time_s=duration_s / 2)]

    return runner_and_oracle(
        scenario,
        detector_config=detector,
        duty_config=duty,
        synthesis_config=SynthesisConfig(duration_s=duration_s),
        faults=faults,
        seed=seed,
    )


def test_drained_battery_matches_oracle():
    # The fault-aware duty-cycling setup: node 0 drains 5x from 10 s on
    # a 0.2 J battery and crosses the demotion watermark first.
    got, want = _outcomes(
        3,
        3,
        120.0,
        0.2,
        DutyCycleConfig(demote_battery_fraction=0.5),
        FaultPlan(battery_drains=(BatteryDrain(0, at_s=10.0, factor=5.0),)),
        NodeDetectorConfig(m=2.0, af_threshold=0.5),
    )
    assert got == want
    demotions = got[2]
    assert 0 in demotions and demotions[0] <= min(demotions.values())


def test_ragged_depleting_fleet_matches_oracle():
    # Half-rate node 0 runs as its own group; the small batteries
    # deplete mid-run and the same-instant wake-up splits batches.
    got, want = _outcomes(
        2,
        3,
        90.0,
        0.1,
        DutyCycleConfig(demote_battery_fraction=0.5, wakeup_latency_s=0.0),
        FaultPlan(battery_drains=(BatteryDrain(1, at_s=10.0, factor=3.0),)),
        NodeDetectorConfig(m=1.5, af_threshold=0.3),
        ragged=True,
    )
    assert got == want
    assert got[2]
    assert any(float.fromhex(h) <= 0.0 for h in got[3])


_drains = st.lists(
    st.builds(
        BatteryDrain,
        node_id=st.integers(0, 5),
        at_s=st.floats(0.0, 90.0),
        factor=st.floats(1.5, 10.0),
    ),
    max_size=3,
)


@given(
    latency=st.sampled_from([0.0, 1e-30, 2.0]),
    coarse_rate_hz=st.sampled_from([None, 10.0]),
    sentinel_fraction=st.sampled_from([0.2, 0.5, 1.0]),
    demote=st.one_of(st.none(), st.floats(0.1, 0.9)),
    drains=_drains,
    capacity_j=st.sampled_from([0.1, 0.15, 0.3]),
    ragged=st.booleans(),
    sensitive=st.booleans(),
)
@settings(
    max_examples=examples(40), deadline=None, derandomize=True, database=None
)
def test_group_walk_matches_sequential_oracle(
    latency,
    coarse_rate_hz,
    sentinel_fraction,
    demote,
    drains,
    capacity_j,
    ragged,
    sensitive,
):
    duty = DutyCycleConfig(
        wakeup_latency_s=latency,
        coarse_rate_hz=coarse_rate_hz,
        sentinel_fraction=sentinel_fraction,
        demote_battery_fraction=demote,
    )
    detector = (
        NodeDetectorConfig(m=1.5, af_threshold=0.3)
        if sensitive
        else NodeDetectorConfig(m=2.0, af_threshold=0.5)
    )
    got, want = _outcomes(
        2,
        3,
        90.0,
        capacity_j,
        duty,
        FaultPlan(battery_drains=tuple(drains)),
        detector,
        ragged=ragged,
    )
    assert got == want
