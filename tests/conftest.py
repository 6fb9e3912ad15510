"""Shared test settings: every hypothesis property test runs at most 20
examples, derandomized, with no deadline and no example database.

pmcsphere is imported before any test module imports numpy, so that
PMC_THREADS, when set, caps the BLAS threads of the test process too."""

import pmcsphere  # noqa: F401  (applies PMC_THREADS before numpy loads)
from hypothesis import settings

settings.register_profile(
    "pmcsphere", max_examples=20, deadline=None, derandomize=True, database=None
)
settings.load_profile("pmcsphere")
