"""Shared test settings: every Hypothesis test draws the same examples on
every run (``derandomize``, which also keeps no example database)."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
