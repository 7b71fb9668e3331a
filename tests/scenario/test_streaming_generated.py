"""Generated streaming-vs-offline equivalence.

``run_streaming_scenario`` pushes synthesis output through the
carried-state preprocessor into the fleet window walk one chunk at a
time; ``run_offline_scenario`` synthesises whole traces first.  For
every streamable filter, either synthesis method and any chunk size —
on or off the window/hop grid — the chunked z counts must equal the
offline traces verbatim, and the detection results must follow.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.preprocess import STREAMABLE_FILTER_KINDS
from repro.physics.spectrum import SeaState
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import run_offline_scenario
from repro.scenario.streaming import (
    StreamingFleetSynthesizer,
    run_streaming_scenario,
)
from repro.scenario.synthesis import SYNTHESIS_METHODS

SEA_STATES = (SeaState.CALM, SeaState.MODERATE, SeaState.ROUGH)


def _scenario(seed, sea_state, method):
    dep, ship, synth = paper_scenario(
        rows=3, columns=3, duration_s=120.0, sea_state=sea_state, seed=seed
    )
    return dep, [ship], replace(synth, synthesis_method=method)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(1, 10_000),
    sea_state=st.sampled_from(SEA_STATES),
    chunk_samples=st.one_of(
        st.sampled_from([37, 500, 1000]), st.integers(8, 1500)
    ),
    filter_kind=st.sampled_from(STREAMABLE_FILTER_KINDS),
    method=st.sampled_from(SYNTHESIS_METHODS),
)
def test_streaming_matches_offline(
    seed, sea_state, chunk_samples, filter_kind, method
):
    det = NodeDetectorConfig(m=2.0, af_threshold=0.5)
    det = replace(
        det, preprocess=replace(det.preprocess, filter_kind=filter_kind)
    )
    dep, ships, synth = _scenario(seed, sea_state, method)
    offline = run_offline_scenario(
        dep,
        ships,
        detector_config=det,
        synthesis_config=synth,
        seed=seed,
        keep_traces=True,
    )

    dep, ships, synth = _scenario(seed, sea_state, method)
    source = StreamingFleetSynthesizer(dep, ships, synth, seed=seed)
    z = np.concatenate(list(source.chunks(chunk_samples)), axis=1)
    for i, node in enumerate(dep):
        assert np.array_equal(z[i], offline.traces[node.node_id].z)

    dep, ships, synth = _scenario(seed, sea_state, method)
    streamed = run_streaming_scenario(
        dep,
        ships,
        detector_config=det,
        synthesis_config=synth,
        seed=seed,
        chunk_s=chunk_samples / det.rate_hz,
    )
    assert streamed.reports_by_node == offline.reports_by_node
    assert streamed.merged_by_node == offline.merged_by_node
    assert streamed.cluster_event == offline.cluster_event
