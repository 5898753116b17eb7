"""Tier-1 draws the same Hypothesis examples on every run and keeps no
example database; ``pytest --hypothesis-profile=explore`` draws fresh ones
and prints the ``@reproduce_failure`` line of a failure.

The ``suite_checks`` fixture runs each ``verify`` suite at most once per
session, for the acceptance gate and the command-line test alike."""

import time

import pytest
from hypothesis import settings

from threshold_lab.verify import SUITES

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def suite_checks():
    """A function from a suite's name to its checks and its run time in
    seconds, running the suite on first use."""
    runs = {}

    def checks(suite):
        if suite not in runs:
            start = time.monotonic()
            results = SUITES[suite]()
            runs[suite] = results, time.monotonic() - start
        return runs[suite]

    return checks
