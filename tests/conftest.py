"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci draws the same examples on
every run, so a property test cannot pass on one run and fail on the next,
and prints the blob that reproduces a failure."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
