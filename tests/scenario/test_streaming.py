"""Engine-parity and streaming-fusion tests for the scenario runners.

The runners detect with the lockstep fleet engine only; each must
produce *identical* results to the per-node reference oracles in
``tests/scenario/oracles.py``, and the streaming synthesis->detection
path must reproduce the monolithic offline run report for report.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.detection.dutycycle import DutyCycleConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, NodeCrash
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import (
    run_network_scenario,
    run_offline_scenario,
    run_streaming_scenario,
)
from repro.scenario.synthesis import FleetSynthesizer, synthesize_fleet_traces

from tests.scenario.oracles import (
    reference_network,
    reference_offline,
    runner_and_oracle,
)

SEED = 23


def _scenario(seed=SEED):
    return paper_scenario(rows=3, columns=3, duration_s=120.0, seed=seed)


def _detector(**kw):
    return NodeDetectorConfig(m=2.0, af_threshold=0.5, **kw)


class TestOfflineEngineParity:
    def test_fleet_matches_reference(self):
        dep1, ship1, synth1 = _scenario()
        a = run_offline_scenario(
            dep1,
            [ship1],
            detector_config=_detector(),
            synthesis_config=synth1,
            seed=SEED,
        )
        dep2, ship2, synth2 = _scenario()
        b = reference_offline(
            dep2,
            synthesize_fleet_traces(dep2, [ship2], synth2, seed=SEED),
            [ship2],
            detector_config=_detector(),
        )
        assert a.reports_by_node == b.reports_by_node
        assert a.merged_by_node == b.merged_by_node
        assert a.cluster_event == b.cluster_event
        assert len(a.cluster_outcomes) == len(b.cluster_outcomes)
        assert sum(len(v) for v in a.reports_by_node.values()) > 0


class TestNetworkEngineParity:
    def test_fleet_matches_reference(self):
        dep1, ship1, synth1 = _scenario()
        a = run_network_scenario(
            dep1, [ship1], synthesis_config=synth1, seed=SEED
        )
        dep2, ship2, synth2 = _scenario()
        b = reference_network(
            dep2, [ship2], synthesis_config=synth2, seed=SEED
        )
        assert a.decisions == b.decisions
        assert a.mac_stats == b.mac_stats
        assert a.sink_frames == b.sink_frames
        assert a.resyncs_performed == b.resyncs_performed
        assert a.clock_rms_error_s == b.clock_rms_error_s

    def test_fleet_matches_reference_with_crashes(self):
        plan = FaultPlan(
            node_crashes=(
                NodeCrash(2, 40.0, reboot_after_s=30.0),
                NodeCrash(5, 60.0),  # never reboots
                NodeCrash(7, 0.0, reboot_after_s=20.0),
            )
        )
        results = []
        for run in (run_network_scenario, reference_network):
            dep, ship, synth = _scenario()
            results.append(
                run(
                    dep,
                    [ship],
                    synthesis_config=synth,
                    faults=plan,
                    seed=SEED,
                )
            )
        a, b = results
        assert a.decisions == b.decisions
        assert a.mac_stats == b.mac_stats
        assert a.fault_stats == b.fault_stats
        assert a.sink_frames == b.sink_frames


def _duty_outcomes(duty, seed=SEED, detector=None):
    """The duty-cycled runner's and its sequential oracle's outcomes."""

    def scenario():
        dep, ship, _ = _scenario(seed)
        return dep, [ship]

    return runner_and_oracle(
        scenario,
        detector_config=detector,
        synthesis_config=_scenario(seed)[2],
        duty_config=duty,
        seed=seed,
    )


class TestDutyCycleEngineParity:
    @pytest.mark.parametrize(
        "duty",
        [
            None,
            DutyCycleConfig(sentinel_fraction=0.5, rotation_period_s=30.0),
            DutyCycleConfig(coarse_rate_hz=None),
        ],
    )
    def test_fleet_matches_reference(self, duty):
        got, want = _duty_outcomes(duty)
        assert got == want
        assert any(got[0].values())

    @pytest.mark.parametrize("seed", [17, 18])
    @pytest.mark.parametrize("latency", [0.0, 1e-30])
    def test_same_instant_wakeup_matches_reference(self, latency, seed):
        # t + latency == t for both latencies: an alarm with onset at
        # its window start wakes the later rows of the same batch, so
        # the walk must step those rows one at a time.
        duty = DutyCycleConfig(wakeup_latency_s=latency, sentinel_fraction=0.25)
        detector = NodeDetectorConfig(m=1.5, af_threshold=0.3)
        got, want = _duty_outcomes(duty, seed=seed, detector=detector)
        assert got == want


class TestStreamingScenario:
    @pytest.mark.parametrize("kind", ["butter-causal", "moving-average"])
    def test_matches_monolithic_offline(self, kind):
        det = _detector()
        det = replace(det, preprocess=replace(det.preprocess, filter_kind=kind))
        dep1, ship1, synth1 = _scenario()
        a = run_offline_scenario(
            dep1,
            [ship1],
            detector_config=det,
            synthesis_config=synth1,
            seed=SEED,
        )
        dep2, ship2, synth2 = _scenario()
        b = run_streaming_scenario(
            dep2,
            [ship2],
            detector_config=det,
            synthesis_config=synth2,
            seed=SEED,
            chunk_s=17.3,  # deliberately off the window/hop grid
        )
        assert a.reports_by_node == b.reports_by_node
        assert a.merged_by_node == b.merged_by_node
        assert a.cluster_event == b.cluster_event
        assert b.traces == {}

    def test_zero_phase_filter_rejected(self):
        dep, ship, synth = _scenario()
        with pytest.raises(ConfigurationError, match="stream"):
            run_streaming_scenario(
                dep, [ship], synthesis_config=synth, seed=SEED
            )

    def test_bad_chunk_rejected(self):
        dep, ship, synth = _scenario()
        det = _detector()
        det = replace(
            det,
            preprocess=replace(det.preprocess, filter_kind="moving-average"),
        )
        with pytest.raises(ConfigurationError):
            run_streaming_scenario(
                dep,
                [ship],
                detector_config=det,
                synthesis_config=synth,
                seed=SEED,
                chunk_s=0.0,
            )


class TestStreamingSynthesizer:
    def test_z_counts_match_monolithic_traces(self):
        # Chunked digitisation must reproduce synthesize_fleet_traces'
        # z streams bit for bit (same ambient realisation, same
        # per-device noise draws).
        dep1, ship1, synth1 = _scenario()
        traces = synthesize_fleet_traces(dep1, [ship1], synth1, seed=SEED)
        dep2, ship2, synth2 = _scenario()
        source = FleetSynthesizer(dep2, [ship2], synth2, seed=SEED)
        chunks = list(source.chunks(971))
        Z = np.concatenate(chunks, axis=1)
        for i, node in enumerate(dep2):
            assert np.array_equal(Z[i], traces[node.node_id].z)
        assert source.t0s == [
            traces[n.node_id].t0 for n in dep2
        ]

    def test_horizontal_axes_rejected(self):
        dep, ship, synth = _scenario()
        synth = replace(synth, include_horizontal=True)
        source = FleetSynthesizer(dep, [ship], synth, seed=SEED)
        with pytest.raises(ConfigurationError, match="z axis"):
            source.next_chunk(4096)

    def test_exhausted_source_returns_none(self):
        dep, ship, synth = _scenario()
        source = FleetSynthesizer(dep, [ship], synth, seed=SEED)
        while source.next_chunk(4096) is not None:
            pass
        assert source.samples_remaining == 0
        assert source.next_chunk(4096) is None
