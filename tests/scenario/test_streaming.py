"""Engine-parity and streaming-fusion tests for the scenario runners.

The runners detect with the lockstep fleet engine only; each must
produce *identical* results to the per-node reference oracles in
``tests/scenario/oracles.py`` (the duty-cycled runner's two walks are
compared directly), and the streaming synthesis->detection path must
reproduce the monolithic offline run report for report.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.detection.dutycycle import DutyCycleConfig, DutyCycleController
from repro.detection.node_detector import NodeDetectorConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, NodeCrash
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import (
    _dutycycled_fleet_reports,
    _dutycycled_sequential_reports,
    run_dutycycled_scenario,
    run_network_scenario,
    run_offline_scenario,
)
from repro.scenario.streaming import (
    StreamingFleetSynthesizer,
    run_streaming_scenario,
)
from repro.scenario.synthesis import synthesize_fleet_traces
from repro.telemetry import Telemetry

from tests.scenario.oracles import reference_network, reference_offline

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


def _duty_walk(walk, duty, **extra):
    """One duty-cycled walk over the parity scenario's traces.

    Mirrors ``run_dutycycled_scenario``'s setup: the sentinels' coarse
    detector runs at the full rate divided by the decimation factor.
    """
    dep, ship, synth = _scenario()
    traces = synthesize_fleet_traces(dep, [ship], synth, seed=SEED)
    det = NodeDetectorConfig()
    controller = DutyCycleController([n.node_id for n in dep], duty)
    coarse_hz = controller.config.coarse_rate_hz
    decimation = (
        max(int(round(det.rate_hz / coarse_hz)), 1) if coarse_hz else 1
    )
    coarse = replace(
        det,
        rate_hz=det.rate_hz / decimation,
        preprocess=replace(
            det.preprocess, rate_hz=det.preprocess.rate_hz / decimation
        ),
    )
    return walk(dep, traces, det, coarse, decimation, controller, **extra)


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
        fleet = _duty_walk(_dutycycled_fleet_reports, duty)
        sequential = _duty_walk(
            _dutycycled_sequential_reports, duty, faults=None
        )
        assert fleet == sequential
        dep, ship, synth = _scenario()
        result = run_dutycycled_scenario(
            dep, [ship], synthesis_config=synth, duty_config=duty, seed=SEED
        )
        assert (result.reports_by_node, result.first_alarm_time) == fleet

    def test_zero_latency_falls_back_and_matches(self):
        # wakeup_latency_s == 0 cannot be group-vectorized (an alarm
        # could activate a row of its own window group); the runner
        # must take the sequential walk, and say so.
        duty = DutyCycleConfig(wakeup_latency_s=0.0)
        tel = Telemetry.memory()
        dep, ship, synth = _scenario()
        result = run_dutycycled_scenario(
            dep,
            [ship],
            synthesis_config=synth,
            duty_config=duty,
            seed=SEED,
            telemetry=tel,
        )
        span = next(e for e in tel.events if e.name == "detection")
        assert span.field("walk") == "sequential"
        assert span.field("declined") == "zero_latency"
        sequential = _duty_walk(
            _dutycycled_sequential_reports, duty, faults=None
        )
        assert (result.reports_by_node, result.first_alarm_time) == sequential


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
        source = StreamingFleetSynthesizer(dep2, [ship2], synth2, seed=SEED)
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
        with pytest.raises(ConfigurationError, match="z axis"):
            StreamingFleetSynthesizer(dep, [ship], synth, seed=SEED)

    def test_exhausted_source_returns_none(self):
        dep, ship, synth = _scenario()
        source = StreamingFleetSynthesizer(dep, [ship], synth, seed=SEED)
        while source.next_chunk(4096) is not None:
            pass
        assert source.samples_remaining == 0
        assert source.next_chunk(4096) is None
