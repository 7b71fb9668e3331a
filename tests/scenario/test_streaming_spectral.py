"""Streaming synthesis under the spectral ambient engine.

The spectral engine's one batched IFFT is realised up front as an
ambient slab and chunks are carved out of it, so the chunked z streams
— and therefore the whole streaming detection run — must equal the
offline spectral path verbatim, and the time-domain evaluation of the
same snapped field (``reference_spectral_synthesis``) too.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.detection.node_detector import NodeDetectorConfig
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import run_offline_scenario
from repro.scenario.streaming import (
    StreamingFleetSynthesizer,
    run_streaming_scenario,
)
from repro.scenario.synthesis import synthesize_fleet_traces

from tests.scenario.oracles import (
    reference_spectral_synthesis,
    timedomain_ambient,
)

SEED = 23


def _scenario(method: str):
    dep, ship, synth = paper_scenario(
        rows=3, columns=3, duration_s=120.0, seed=SEED
    )
    return dep, ship, replace(synth, synthesis_method=method)


def _detector():
    det = NodeDetectorConfig(m=2.0, af_threshold=0.5)
    return replace(
        det, preprocess=replace(det.preprocess, filter_kind="butter-causal")
    )


@pytest.mark.parametrize(
    "offline",
    [synthesize_fleet_traces, reference_spectral_synthesis],
    ids=["spectral", "oracle"],
)
def test_chunked_z_counts_match_offline(offline):
    dep1, ship1, synth1 = _scenario("spectral")
    traces = offline(dep1, [ship1], synth1, seed=SEED)
    dep2, ship2, synth2 = _scenario("spectral")
    source = StreamingFleetSynthesizer(dep2, [ship2], synth2, seed=SEED)
    Z = np.concatenate(list(source.chunks(971)), axis=1)
    for i, node in enumerate(dep2):
        assert np.array_equal(Z[i], traces[node.node_id].z)


def test_streaming_scenario_matches_offline_spectral():
    det = _detector()
    dep1, ship1, synth1 = _scenario("spectral")
    a = run_offline_scenario(
        dep1,
        [ship1],
        detector_config=det,
        synthesis_config=synth1,
        seed=SEED,
    )
    dep2, ship2, synth2 = _scenario("spectral")
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
    assert sum(len(v) for v in a.reports_by_node.values()) > 0


def test_spectral_streaming_matches_reference_method_run():
    # The spectral stream and the same stream with its ambient slab
    # evaluated in the time domain digitise the same field; the full
    # detection runs must therefore agree report for report.
    det = _detector()

    def stream():
        dep, ship, synth = _scenario("spectral")
        return run_streaming_scenario(
            dep,
            [ship],
            detector_config=det,
            synthesis_config=synth,
            seed=SEED,
            chunk_s=20.0,
        )

    a = stream()
    with timedomain_ambient():
        b = stream()
    assert a.reports_by_node == b.reports_by_node
    assert a.cluster_event == b.cluster_event


def test_timedomain_streaming_keeps_chunked_ambient():
    dep, ship, synth = _scenario("timedomain")
    source = StreamingFleetSynthesizer(dep, [ship], synth, seed=SEED)
    assert source._ambient is None
    dep2, ship2, synth2 = _scenario("spectral")
    slab = StreamingFleetSynthesizer(dep2, [ship2], synth2, seed=SEED)
    assert slab._ambient is not None
    assert slab._ambient.shape == (slab.n_nodes, slab.n_samples)
