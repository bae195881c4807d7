"""Tests for failure scenarios and their resolution into concrete events."""

import pytest

from repro.failures import (
    PAPER_FAILURE_COUNTS,
    PAPER_PROGRESS_FRACTIONS,
    FailureLocation,
    FailureScenario,
    resolve_events,
)


class TestFailureScenario:
    def test_defaults(self):
        scenario = FailureScenario(n_failures=3)
        assert scenario.progress_fraction == 0.5
        assert scenario.location is FailureLocation.START

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            FailureScenario(n_failures=0)
        with pytest.raises(Exception):
            FailureScenario(n_failures=1, progress_fraction=1.5)

    def test_failure_iteration_scaling(self):
        scenario = FailureScenario(n_failures=1, progress_fraction=0.2)
        assert scenario.failure_iteration(100) == 20
        assert FailureScenario(1, 0.8).failure_iteration(100) == 80

    def test_failure_iteration_clamped(self):
        assert FailureScenario(1, 1.0).failure_iteration(50) == 49
        assert FailureScenario(1, 0.0).failure_iteration(50) == 0
        assert FailureScenario(1, 0.5).failure_iteration(0) == 0

    def test_start_location_ranks(self):
        scenario = FailureScenario(n_failures=3, location=FailureLocation.START)
        assert scenario.failed_ranks(16) == [0, 1, 2]

    def test_center_location_ranks(self):
        scenario = FailureScenario(n_failures=3, location=FailureLocation.CENTER)
        assert scenario.failed_ranks(16) == [8, 9, 10]

    def test_too_many_failures_rejected(self):
        scenario = FailureScenario(n_failures=8)
        with pytest.raises(ValueError):
            scenario.failed_ranks(8)

    def test_describe(self):
        """The harness seeds every repetition from this text, so it is
        pinned whole."""
        scenario = FailureScenario(n_failures=3, progress_fraction=0.2,
                                   location=FailureLocation.CENTER)
        assert scenario.describe() == \
            "psi=3, at 20% progress, location=center"

    def test_the_papers_two_locations(self):
        assert [location.value for location in FailureLocation] == \
            ["start", "center"]


class TestResolveEvents:
    def test_basic_resolution(self):
        scenario = FailureScenario(n_failures=3, progress_fraction=0.2,
                                   location=FailureLocation.CENTER)
        (event,) = resolve_events(scenario, n_nodes=16, reference_iterations=200)
        assert event.iteration == 40
        assert event.ranks == (8, 9, 10)
        assert event.during_recovery_of is None
        assert event.label == scenario.describe()

    def test_paper_constants(self):
        assert PAPER_FAILURE_COUNTS == (1, 3, 8)
        assert PAPER_PROGRESS_FRACTIONS == (0.2, 0.5, 0.8)

    # The end-to-end "resolved events drive an actual resilient solve" case
    # moved into the systematic grid of tests/test_failure_matrix.py
    # (TestScenarioResolutionIntegration), alongside the block-solver twin.
