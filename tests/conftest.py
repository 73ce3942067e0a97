"""Test-wide settings: Hypothesis draws the same examples on every run, so
a property test cannot pass on one run and fail on the next."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
