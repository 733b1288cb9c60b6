"""The ``rng`` fixture of the tests; the shared oracles are in ``oracles.py``."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
