"""Shared test set-up."""

import pytest


@pytest.fixture
def hypothesis_settings():
    """Settings for a property test, given its max_examples: derandomized,
    no example database and no deadline, so a run is deterministic and
    writes no .hypothesis/ directory. Skips when hypothesis is missing."""
    hypothesis = pytest.importorskip("hypothesis")

    def settings(max_examples):
        return hypothesis.settings(
            max_examples=max_examples, deadline=None, derandomize=True, database=None
        )

    return settings
