"""Test set-up shared by every module under tests/."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import configuration
except ImportError:  # only tests/test_properties.py and tests/test_driver.py need hypothesis
    configuration = None

if configuration is not None:
    # while collecting, hypothesis's pytest plugin caches the constants it
    # reads from local modules under its storage directory (./.hypothesis by
    # default), with or without an example database; keep it out of the tree
    configuration.set_hypothesis_home_dir(
        Path(tempfile.gettempdir()) / "noisy-sqp-hypothesis")


@pytest.fixture(autouse=True)
def numpy_error_state_unchanged():
    """Fail a test that leaves numpy's floating-point error state changed:
    every later test would run with that state, and a warning numpy ignores
    is one that ``-W error::RuntimeWarning`` can no longer turn into a failure."""
    before = np.geterr()
    yield
    assert np.geterr() == before, "the test changed numpy's error state"
