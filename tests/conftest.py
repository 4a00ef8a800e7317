"""Shared fixtures."""

import pytest

from covforge import harness
from covforge.construction import SAMPLE_R
from covforge.continuation import NumericRun


@pytest.fixture(scope="session")
def numeric_run():
    """One tracked-solve store for the whole session, so the numeric tests
    compute each tracked solve once, as one `verify` run at seed 42
    does: the solves of every numeric check are planned and tracked as
    one stack per variable order."""
    numeric = [c for c in harness.check_ids() if c.startswith("numeric/")]
    return NumericRun(numeric, 42, SAMPLE_R)


@pytest.fixture(scope="session")
def symbolic_report():
    """The harness report of the `symbolic/*` checks, run once per session."""
    return harness.run(harness.RunConfig(filter="symbolic/*"))


@pytest.fixture(scope="session")
def property_report():
    """The harness report of the `property/*` checks, run once per session."""
    return harness.run(harness.RunConfig(filter="property/*"))
