"""Test set-up shared by every module under tests/."""

import tempfile
from pathlib import Path

try:
    from hypothesis import configuration
except ImportError:  # only tests/test_properties.py needs hypothesis
    configuration = None

if configuration is not None:
    # while collecting, hypothesis's pytest plugin caches the constants it
    # reads from local modules under its storage directory (./.hypothesis by
    # default), with or without an example database; keep it out of the tree
    configuration.set_hypothesis_home_dir(
        Path(tempfile.gettempdir()) / "noisy-sqp-hypothesis")
