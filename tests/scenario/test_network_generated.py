"""Generated network scenarios: the runner against the event-time oracle.

``run_network_scenario`` precomputes every window outcome with the
fleet engine, deriving crash masks and cold-restart resets from the
fault plan, and elides quiet ticks.  ``reference_network`` steps one
scalar detector per node at event time on the full schedule.  For every
drawn scenario (grid shape, ships, crashes with and without reboot, a
crash on a node that is already down, rolling crashes, healing with and
without a persisted baseline, report retransmission) the runner's
digest must equal the oracle's and the full-schedule run's.  A scenario
may be refused, but only with a typed ``ConfigurationError`` or
``SignalLengthError``, and then all three runs must refuse it alike.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.errors import ConfigurationError, SignalLengthError
from repro.faults.plan import FaultPlan, NodeCrash
from repro.network.nodeproc import RetransmitPolicy
from repro.network.selfheal import SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_ship
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig

from tests.conftest import examples
from tests.scenario.oracles import full_schedule, reference_network

DURATION_S = 120.0


@st.composite
def _crashes(draw, n_nodes: int) -> tuple[NodeCrash, ...]:
    """Single crashes (with or without reboot), a crash on a node that
    is already down, and a rolling wave."""
    node = st.integers(0, n_nodes - 1)
    reboot = st.one_of(st.none(), st.floats(5.0, 60.0))
    crashes = draw(
        st.lists(
            st.builds(
                NodeCrash,
                node_id=node,
                at_s=st.floats(0.0, DURATION_S),
                reboot_after_s=reboot,
            ),
            max_size=2,
        )
    )
    if crashes and draw(st.booleans()):
        first = crashes[0]
        crashes.append(
            NodeCrash(
                first.node_id,
                first.at_s + draw(st.floats(0.0, 10.0)),
                draw(reboot),
            )
        )
    rolling = draw(st.lists(node, max_size=3))
    if rolling:
        crashes.extend(
            FaultPlan.rolling_crashes(
                rolling,
                first_at_s=draw(st.floats(0.0, 80.0)),
                interval_s=draw(st.floats(5.0, 30.0)),
                downtime_s=draw(st.floats(5.0, 50.0)),
            ).node_crashes
        )
    return tuple(crashes)


@st.composite
def scenarios(draw) -> dict:
    rows = draw(st.integers(2, 4))
    columns = draw(st.integers(2, 4))
    healing = draw(
        st.one_of(
            st.none(),
            st.builds(SelfHealingConfig, persist_baseline=st.booleans()),
        )
    )
    return {
        "rows": rows,
        "columns": columns,
        "cross_times": draw(
            st.lists(st.floats(30.0, 90.0), max_size=2)
        ),
        "crashes": draw(_crashes(rows * columns)),
        "healing": healing,
        "retransmit": draw(st.sampled_from([None, RetransmitPolicy()])),
        "seed": draw(st.integers(0, 2**16)),
    }


def _run(run, scenario: dict):
    """``run`` on a fresh deployment built from ``scenario``."""
    dep = GridDeployment(scenario["rows"], scenario["columns"], seed=17)
    ships = [
        paper_ship(
            dep,
            cross_time_s=t,
            column_gap=(scenario["columns"] - 1) / 2.0,
        )
        for t in scenario["cross_times"]
    ]
    crashes = scenario["crashes"]
    return run(
        dep,
        ships,
        sid_config=SIDNodeConfig(
            detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
            cluster=TemporaryClusterConfig(min_rows=2),
        ),
        synthesis_config=SynthesisConfig(duration_s=DURATION_S),
        faults=FaultPlan(node_crashes=crashes) if crashes else None,
        retransmit=scenario["retransmit"],
        healing=scenario["healing"],
        resync_interval_s=40.0,
        seed=scenario["seed"],
    )


def _outcome(run, scenario: dict):
    """The run's digest, or the type of the typed error that refused it."""
    try:
        return scenario_digest(_run(run, scenario))
    except (ConfigurationError, SignalLengthError) as exc:
        return type(exc)


def _full_schedule_run(*args, **kwargs):
    with full_schedule():
        return run_network_scenario(*args, **kwargs)


#: A crossing on a 3x3 grid with cold restarts: node 4 crashes again
#: while already down, and a rolling wave takes out nodes 1 and 7.
RESTARTS = {
    "rows": 3,
    "columns": 3,
    "cross_times": [60.0],
    "crashes": (NodeCrash(4, 30.0, 20.0), NodeCrash(4, 35.0, 10.0))
    + FaultPlan.rolling_crashes(
        [1, 7], first_at_s=20.0, interval_s=15.0, downtime_s=25.0
    ).node_crashes,
    "healing": SelfHealingConfig(),
    "retransmit": RetransmitPolicy(),
    "seed": 5,
}


@given(scenario=scenarios())
@example(scenario=RESTARTS)
@settings(
    max_examples=examples(60), deadline=None, derandomize=True, database=None
)
def test_runner_matches_event_time_oracle(scenario):
    got = _outcome(run_network_scenario, scenario)
    assert got == _outcome(reference_network, scenario)
    assert got == _outcome(_full_schedule_run, scenario)


def test_pinned_example_restarts_and_decides():
    # Guard against a pinned scenario that silently stops testing the
    # restart path: its cold restarts re-warm baselines, and the
    # crossing still reaches the sink.
    result = _run(run_network_scenario, RESTARTS)
    assert result.fault_stats["cold_restarts"] == 3
    assert result.fault_stats["baseline_blind_window_s"] > 0
    assert result.decisions
