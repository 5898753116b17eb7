"""Tier-1 draws the same Hypothesis examples on every run and keeps no
example database; ``pytest --hypothesis-profile=explore`` draws fresh ones
and prints the ``@reproduce_failure`` line of a failure."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None, print_blob=True)
settings.load_profile("tier1")
