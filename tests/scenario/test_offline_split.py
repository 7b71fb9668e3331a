"""The offline runner is synthesis followed by detect-and-fuse.

``run_offline_scenario`` must equal ``synthesize_fleet_traces`` then
``detect_and_fuse`` over the same inputs, on one shared sample grid and
on a ragged one, which runs as one lockstep group per grid.  The sweeps in
``repro.analysis.experiments`` rely on this to synthesise once and score
many detector settings.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.detection.node_detector import NodeDetectorConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_ship
from repro.scenario.runner import (
    OfflineScenarioResult,
    _fleet_offline_reports,
    detect_and_fuse,
    run_offline_scenario,
)
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.sensors.sampler import Sampler

SEED = 12
DETECTOR = NodeDetectorConfig(m=2.0, af_threshold=0.4)


def _digest(result: OfflineScenarioResult) -> str:
    """``scenario_digest`` with the cluster-event enums spelled as names."""
    return scenario_digest(
        replace(
            result,
            cluster_event=getattr(result.cluster_event, "name", None),
            cluster_outcomes=[
                (event.name, report) for event, report in result.cluster_outcomes
            ],
        )
    )


def _setup(ragged: bool):
    """A fresh 4x3 grid and its crossing; ``ragged`` halves one node's rate."""
    dep = GridDeployment(4, 3, seed=21)
    if ragged:
        dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
    ship = paper_ship(dep, cross_time_s=100.0, column_gap=1.5)
    return dep, [ship]


@pytest.mark.parametrize("ragged", [False, True], ids=["fleet", "ragged"])
def test_offline_runner_is_synthesis_then_detect_and_fuse(ragged):
    synth = SynthesisConfig(duration_s=200.0)
    dep, ships = _setup(ragged)
    whole = run_offline_scenario(
        dep, ships, detector_config=DETECTOR, synthesis_config=synth, seed=SEED
    )

    dep, ships = _setup(ragged)
    traces = synthesize_fleet_traces(dep, ships, synth, seed=SEED)
    # The ragged grid must really run as two fleet groups.
    _, n_groups = _fleet_offline_reports(dep, traces, DETECTOR)
    assert n_groups == (2 if ragged else 1)
    split = detect_and_fuse(dep, traces, ships, detector_config=DETECTOR)

    assert any(whole.merged_by_node.values())
    assert split.merged_by_node == whole.merged_by_node
    assert _digest(split) == _digest(whole)


def test_detect_and_fuse_leaves_traces_reusable():
    """Scoring twice over one trace set gives the same answer each time."""
    synth = SynthesisConfig(duration_s=200.0)
    dep, ships = _setup(False)
    traces = synthesize_fleet_traces(dep, ships, synth, seed=SEED)
    strict = NodeDetectorConfig(m=3.0, af_threshold=0.4)
    first = detect_and_fuse(dep, traces, ships, detector_config=DETECTOR)
    detect_and_fuse(dep, traces, ships, detector_config=strict)
    again = detect_and_fuse(dep, traces, ships, detector_config=DETECTOR)
    assert _digest(again) == _digest(first)
    kept = detect_and_fuse(dep, traces, ships, keep_traces=True)
    assert kept.traces is traces
