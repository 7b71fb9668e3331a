"""Generated streaming-vs-offline equivalence.

``run_streaming_scenario`` pushes :class:`FleetSynthesizer` chunks
through the carried-state preprocessor into the fleet window walk one
chunk at a time; ``run_offline_scenario`` synthesises whole traces
first.  For any grid shape, every streamable filter, either synthesis
method and any chunk size — on or off the window/hop grid — the chunked
z counts must equal the offline traces verbatim, and the detection
results must follow.  Either read must also leave every mote where the
other does, so a second synthesis on the same deployment is the same
after both.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.preprocess import STREAMABLE_FILTER_KINDS
from repro.errors import ConfigurationError
from repro.physics.spectrum import SeaState
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import run_offline_scenario, run_streaming_scenario
from repro.scenario.synthesis import (
    SYNTHESIS_METHODS,
    FleetSynthesizer,
    synthesize_fleet_traces,
)
from repro.sensors.sampler import Sampler

from tests.conftest import examples

SEA_STATES = (SeaState.CALM, SeaState.MODERATE, SeaState.ROUGH)

GENERATED = settings(deadline=None, derandomize=True, database=None)

seeds = st.integers(1, 10_000)
rows = st.integers(1, 5)
columns = st.integers(1, 5)
chunk_sizes = st.one_of(st.sampled_from([37, 500, 1000]), st.integers(8, 1500))
methods = st.sampled_from(SYNTHESIS_METHODS)


def _scenario(seed, sea_state, method, n_rows=3, n_columns=3, duration_s=120.0):
    dep, ship, synth = paper_scenario(
        rows=n_rows,
        columns=n_columns,
        duration_s=duration_s,
        sea_state=sea_state,
        seed=seed,
    )
    return dep, [ship], replace(synth, synthesis_method=method)


@settings(GENERATED, max_examples=examples(120))
@given(
    seed=seeds,
    sea_state=st.sampled_from(SEA_STATES),
    n_rows=rows,
    n_columns=columns,
    chunk_samples=chunk_sizes,
    filter_kind=st.sampled_from(STREAMABLE_FILTER_KINDS),
    method=methods,
)
def test_streaming_matches_offline(
    seed, sea_state, n_rows, n_columns, chunk_samples, filter_kind, method
):
    det = NodeDetectorConfig(m=2.0, af_threshold=0.5)
    det = replace(
        det, preprocess=replace(det.preprocess, filter_kind=filter_kind)
    )
    shape = (n_rows, n_columns)
    dep, ships, synth = _scenario(seed, sea_state, method, *shape)
    offline = run_offline_scenario(
        dep,
        ships,
        detector_config=det,
        synthesis_config=synth,
        seed=seed,
        keep_traces=True,
    )

    dep, ships, synth = _scenario(seed, sea_state, method, *shape)
    source = FleetSynthesizer(dep, ships, synth, seed=seed)
    z = np.concatenate(list(source.chunks(chunk_samples)), axis=1)
    for i, node in enumerate(dep):
        assert np.array_equal(z[i], offline.traces[node.node_id].z)

    dep, ships, synth = _scenario(seed, sea_state, method, *shape)
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


def _read_twice(seed, shape, method, chunk_samples):
    """z counts of a first read and of a second synthesis after it.

    ``chunk_samples`` of ``None`` makes the first read ``traces()``;
    otherwise it is chunked.  The second read is always ``traces()``
    with a different seed, so only the motes' carried state links it
    to the first.
    """
    dep, ships, synth = _scenario(
        seed, SeaState.CALM, method, *shape, duration_s=30.0
    )
    source = FleetSynthesizer(dep, ships, synth, seed=seed)
    if chunk_samples is None:
        first = {nid: trace.z for nid, trace in source.traces().items()}
    else:
        z = np.concatenate(list(source.chunks(chunk_samples)), axis=1)
        first = {node.node_id: z[i] for i, node in enumerate(dep)}
    second = synthesize_fleet_traces(dep, ships, synth, seed=seed + 1)
    return first, {nid: trace.z for nid, trace in second.items()}


@settings(GENERATED, max_examples=examples(100))
@given(
    seed=seeds,
    n_rows=rows,
    n_columns=columns,
    chunk_samples=chunk_sizes,
    method=methods,
)
# Pinned: a chunked read that does not hand each device's noise stream
# back makes the next synthesis differ on every node of this case.
@example(seed=23, n_rows=3, n_columns=3, chunk_samples=971, method="timedomain")
def test_either_read_leaves_motes_alike(
    seed, n_rows, n_columns, chunk_samples, method
):
    shape = (n_rows, n_columns)
    whole, after_whole = _read_twice(seed, shape, method, None)
    chunked, after_chunked = _read_twice(seed, shape, method, chunk_samples)
    assert whole.keys() == chunked.keys() == after_whole.keys()
    for nid in whole:
        assert np.array_equal(whole[nid], chunked[nid])
        assert np.array_equal(after_whole[nid], after_chunked[nid])


@pytest.mark.parametrize("method", SYNTHESIS_METHODS)
def test_chunked_read_of_ragged_fleet_rejected(method):
    dep, ships, synth = _scenario(23, SeaState.CALM, "timedomain")
    dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
    synth = replace(synth, synthesis_method=method)
    if method == "timedomain":
        source = FleetSynthesizer(dep, ships, synth, seed=23)
        with pytest.raises(ConfigurationError, match="shared fleet sample"):
            source.next_chunk(500)
        # The refusal drew nothing: the source still reads whole.
        assert source.traces().keys() == {n.node_id for n in dep}
    else:
        with pytest.raises(ConfigurationError, match="shared fleet sample"):
            FleetSynthesizer(dep, ships, synth, seed=23)
