"""Shared fixtures for the SID reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.physics.spectrum import PiersonMoskowitzSpectrum, SeaState
from repro.physics.wavefield import AmbientWaveField
from repro.scenario.deployment import GridDeployment
from repro.types import Position

#: ``--hypothesis-profile=deep`` (a CI step) runs each generated
#: differential test with this many examples; tier-1 keeps the bounded
#: counts they declare through :func:`examples`.
settings.register_profile("deep", max_examples=400)


def examples(tier1: int) -> int:
    """A generated test's example budget: ``tier1``, or the deep
    profile's while ``--hypothesis-profile=deep`` is loaded."""
    deep = settings.get_profile("deep")
    return deep.max_examples if settings.default is deep else tier1


@pytest.fixture
def rng():
    """A deterministic generator for ad-hoc noise in tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def calm_spectrum():
    """The calm-sea spectrum used throughout the scenario defaults."""
    return PiersonMoskowitzSpectrum(SeaState.CALM.wind_speed_mps)


@pytest.fixture
def small_field(calm_spectrum):
    """A small, fast ambient-field realisation."""
    return AmbientWaveField(calm_spectrum, n_components=32, seed=7)


@pytest.fixture
def tiny_grid():
    """A 2 x 2 grid deployment with deterministic hardware."""
    return GridDeployment(2, 2, spacing_m=25.0, seed=11)


@pytest.fixture
def origin():
    return Position(0.0, 0.0)
