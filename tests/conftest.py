"""Shared fixtures for the APIM reproduction test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.config import APIMConfig, default_config
from repro.core.engine import APIMEngine
from repro.core.multiplier import APIMMultiplier
from repro.device.vteam import VTEAMModel


@pytest.fixture
def config() -> APIMConfig:
    """The paper's default configuration."""
    return default_config()


@pytest.fixture
def config8() -> APIMConfig:
    """An 8-bit-word configuration for fast exhaustive-ish tests."""
    return APIMConfig(word_bits=8)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic randomness for reproducible tests."""
    return np.random.default_rng(20170618)


@pytest.fixture
def engine(config) -> APIMEngine:
    """An exact-mode engine at the default configuration."""
    return APIMEngine(config)


@pytest.fixture
def multiplier8(config8) -> APIMMultiplier:
    """An 8-bit functional multiplier."""
    return APIMMultiplier(config8)


@pytest.fixture
def vteam() -> VTEAMModel:
    """The default VTEAM device model."""
    return VTEAMModel()


@contextmanager
def emptied_memos():
    """Run a block with the process-wide pricing memos empty.

    The priced-point, tile and locality memos outlive every harness and
    model, so without this whether a lookup runs cold work (and how many
    executor runs a scenario makes) would depend on which tests ran
    before.  The shipped locality table's entries are emptied too; the
    saved memos come back afterwards.
    """
    from repro.baselines import gpu
    from repro.runtime import comparison

    saved = gpu._LOCALITY_MEMO, comparison._TILE_MEMO, comparison._PRICED
    gpu._LOCALITY_MEMO, comparison._TILE_MEMO, comparison._PRICED = {}, {}, {}
    try:
        yield
    finally:
        gpu._LOCALITY_MEMO, comparison._TILE_MEMO, comparison._PRICED = saved


@pytest.fixture
def cold_memos():
    """Empty process-wide memos for one test (see :func:`emptied_memos`)."""
    with emptied_memos():
        yield
