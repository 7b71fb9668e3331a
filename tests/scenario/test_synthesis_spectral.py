"""`synthesis_method` selection on the fleet synthesis path.

``"spectral"`` must digitise raw counts bit-identical to
``reference_spectral_synthesis`` — the same grid-snapped ambient field
evaluated through the time-domain engine; the spectral engine requires
one shared fleet sample grid and rejects ragged deployments instead of
silently changing the realisation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.disturbance import FishBump, WindGust
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_ship
from repro.scenario.synthesis import (
    SYNTHESIS_METHODS,
    SynthesisConfig,
    synthesize_fleet_traces,
)
from repro.sensors.sampler import Sampler

from tests.scenario.oracles import reference_spectral_synthesis

SEED = 7


def _deployment(rows: int = 3, columns: int = 3) -> GridDeployment:
    return GridDeployment(rows, columns, spacing_m=25.0, seed=11)


def _disturbances(dep: GridDeployment) -> dict:
    return {
        dep.node(0).node_id: [
            WindGust(start=10.0, duration=5.0, rms_accel=0.4, seed=3)
        ],
        dep.node(3).node_id: [FishBump(time=30.0, peak_accel=1.5)],
    }


def _synthesize(
    method: str, synthesize=synthesize_fleet_traces, **cfg_kwargs
):
    dep = _deployment()
    cfg = SynthesisConfig(
        duration_s=60.0, synthesis_method=method, **cfg_kwargs
    )
    return synthesize(
        dep,
        [paper_ship(dep)],
        cfg,
        disturbances_by_node=_disturbances(dep),
        seed=SEED,
    )


def _reference(**cfg_kwargs):
    return _synthesize(
        "spectral", synthesize=reference_spectral_synthesis, **cfg_kwargs
    )


class TestCountEquivalence:
    def test_spectral_matches_reference_bit_for_bit(self):
        spectral = _synthesize("spectral")
        reference = _reference()
        assert spectral.keys() == reference.keys()
        for nid in reference:
            assert np.array_equal(spectral[nid].z, reference[nid].z)
            assert np.array_equal(spectral[nid].x, reference[nid].x)
            assert np.array_equal(spectral[nid].y, reference[nid].y)

    def test_with_horizontal_axes(self):
        spectral = _synthesize("spectral", include_horizontal=True)
        reference = _reference(include_horizontal=True)
        for nid in reference:
            assert np.array_equal(spectral[nid].z, reference[nid].z)
            assert np.array_equal(spectral[nid].x, reference[nid].x)
            assert np.array_equal(spectral[nid].y, reference[nid].y)

    def test_spectral_deterministic(self):
        a = _synthesize("spectral")
        b = _synthesize("spectral")
        for nid in a:
            assert np.array_equal(a[nid].z, b[nid].z)

    def test_snapping_perturbs_timedomain_realisation_only_slightly(self):
        # Snapping moves each component by <= grid_df/2, so the snapped
        # realisation is statistically indistinguishable but not
        # bit-identical to the historical unsnapped one.
        snapped = _reference()
        plain = _synthesize("timedomain")
        nid = next(iter(plain))
        assert not np.array_equal(snapped[nid].z, plain[nid].z)
        # Same resting point (~1 g) and comparable excursion scale.
        assert abs(
            float(np.mean(snapped[nid].z)) - float(np.mean(plain[nid].z))
        ) < 2.0
        assert 0.5 < float(
            np.std(snapped[nid].z) / max(np.std(plain[nid].z), 1e-9)
        ) < 2.0


class TestFleetPath:
    def test_single_node_uses_fleet_path(self):
        # A one-node deployment shares its (trivial) fleet grid, so
        # method selection must apply there too instead of falling back
        # to the per-node path.
        dep = GridDeployment(1, 1, spacing_m=25.0, seed=3)
        cfg = SynthesisConfig(duration_s=30.0, synthesis_method="spectral")
        spectral = synthesize_fleet_traces(dep, config=cfg, seed=SEED)
        dep2 = GridDeployment(1, 1, spacing_m=25.0, seed=3)
        reference = reference_spectral_synthesis(dep2, config=cfg, seed=SEED)
        (za,) = [t.z for t in spectral.values()]
        (zb,) = [t.z for t in reference.values()]
        assert np.array_equal(za, zb)

    def test_ragged_grids_reject_snapping_methods(self):
        dep = _deployment(2, 2)
        dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
        cfg = SynthesisConfig(duration_s=20.0, synthesis_method="spectral")
        with pytest.raises(ConfigurationError, match="shared fleet"):
            synthesize_fleet_traces(dep, config=cfg, seed=SEED)

    def test_ragged_grids_still_work_in_timedomain(self):
        dep = _deployment(2, 2)
        dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
        cfg = SynthesisConfig(duration_s=20.0)
        traces = synthesize_fleet_traces(dep, config=cfg, seed=SEED)
        assert len(traces) == 4
        sizes = {nid: t.z.size for nid, t in traces.items()}
        assert sizes[dep.node(0).node_id] == 500
        assert sizes[dep.node(1).node_id] == 1000


class TestConfig:
    def test_methods_registry(self):
        assert SYNTHESIS_METHODS == ("timedomain", "spectral")

    @pytest.mark.parametrize("method", SYNTHESIS_METHODS)
    def test_valid_methods_accepted(self, method):
        cfg = SynthesisConfig(synthesis_method=method)
        assert cfg.snaps_frequencies == (method != "timedomain")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="synthesis_method"):
            SynthesisConfig(synthesis_method="fft")

    def test_bad_oversample_rejected(self):
        with pytest.raises(ConfigurationError, match="oversample"):
            SynthesisConfig(spectral_oversample=0)
