"""Hypothesis settings for the tier-1 suite.

With HYPOTHESIS_PROFILE=ci every property test draws the same examples on
every run (``derandomize=True``), so a failing CI run reproduces locally:

    HYPOTHESIS_PROFILE=ci PYTHONPATH=src python -m pytest -q
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
