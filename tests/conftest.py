"""Test-wide settings: property tests draw the same examples on every run."""

from hypothesis import settings

# Derandomized and without an example database so every run draws the same
# examples; no deadline because the naive oracles' run time swings with
# machine load.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None
)
settings.load_profile("deterministic")
