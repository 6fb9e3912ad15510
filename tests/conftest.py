"""Shared test settings: every hypothesis property test runs at most 20
examples, derandomized, with no deadline and no example database."""

from hypothesis import settings

settings.register_profile(
    "pmcsphere", max_examples=20, deadline=None, derandomize=True, database=None
)
settings.load_profile("pmcsphere")
