"""Shared fixtures."""

import pytest

from covforge.continuation import NumericRun


@pytest.fixture(scope="session")
def numeric_run():
    """One census/probe store for the whole session, so the numeric tests
    compute each census and probe once, as one `verify` run does."""
    return NumericRun()
