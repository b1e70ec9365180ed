"""Hypothesis profiles.

``tier1`` is the default: derandomized, so every run draws the same
examples, with no example database and no deadline; the property tests
add a few seconds to the suite. ``deep`` draws fresh random examples, many
more of them; choose it before changing the engines with::

    HYPOTHESIS_PROFILE=deep PYTHONPATH=src python -m pytest -q tests/test_engine.py

A test's own ``@settings`` still overrides the profile it names.
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=100)
settings.register_profile("deep", deadline=None, max_examples=5_000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
