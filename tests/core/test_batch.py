"""The calibration cache's batch-version marker (repro.core.batch)."""

from repro.core.batch import BATCH_VERSION


def test_batch_version_is_a_string():
    assert isinstance(BATCH_VERSION, str) and BATCH_VERSION
