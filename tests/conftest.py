"""Shared fixtures."""

import pytest

from covforge import harness
from covforge.continuation import NumericRun


@pytest.fixture(scope="session")
def numeric_run():
    """One census store for the whole session, so the numeric tests
    compute each census once, as one `verify` run does."""
    return NumericRun()


@pytest.fixture(scope="session")
def symbolic_report():
    """The harness report of the `symbolic/*` checks, run once per session."""
    return harness.run(harness.RunConfig(filter="symbolic/*"))


@pytest.fixture(scope="session")
def property_report():
    """The harness report of the `property/*` checks, run once per session."""
    return harness.run(harness.RunConfig(filter="property/*"))
