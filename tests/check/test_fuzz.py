"""The scheduler fuzzer: derivation, shrinking, and replay discipline."""

import pytest

from repro.check.fuzz import (build_case, replay_case, run_case, run_fuzz,
                              shrink_prefix)


class TestShrinkPrefix:
    def test_finds_the_exact_boundary(self):
        items = list(range(100))
        # fails as soon as the prefix contains item 37
        assert shrink_prefix(items, lambda p: 37 in p) == 38

    def test_single_item_failure(self):
        assert shrink_prefix([7], lambda p: len(p) >= 1) == 1

    def test_failure_at_the_very_end(self):
        items = list(range(50))
        assert shrink_prefix(items, lambda p: 49 in p) == 50

    def test_raises_when_full_sequence_passes(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink_prefix([1, 2, 3], lambda p: False)

    @pytest.mark.parametrize("boundary", [1, 2, 13, 64, 99, 100])
    def test_bisection_matches_linear_scan(self, boundary):
        items = list(range(100))
        fails = lambda p: len(p) >= boundary  # noqa: E731
        assert shrink_prefix(items, fails) == boundary


class TestCaseDerivation:
    def test_same_seed_same_case(self):
        assert build_case(0xC4EC, 3) == build_case(0xC4EC, 3)

    def test_indices_draw_different_cases(self):
        cases = [build_case(0xC4EC, i) for i in range(8)]
        assert len({c.seed for c in cases}) == 8
        assert len({c.requests for c in cases}) == 8

    def test_geometry_and_arrivals_are_sane(self):
        for index in range(6):
            case = build_case(0x5EED, index)
            assert case.banks in (2, 4, 8)
            assert case.rows in (64, 128)
            arrivals = [r.arrival_ps for r in case.requests]
            assert arrivals == sorted(arrivals)
            assert all(0 <= r.bank < case.banks for r in case.requests)
            assert all(0 <= r.row < case.rows for r in case.requests)

    def test_describe_carries_the_seed(self):
        case = build_case(0xC4EC, 0)
        assert hex(case.seed) in case.describe()


class TestRunAndReplay:
    def test_small_campaign_is_clean(self):
        report = run_fuzz(cases=12, master_seed=0xC4EC)
        assert report.ok, report.describe()
        assert report.cases_run == 12
        assert report.events_checked > 0

    def test_replay_reproduces_the_exact_trace(self):
        case = build_case(0xC4EC, 1)
        events_a, violations_a, runaway_a = run_case(case)
        events_b, violations_b, runaway_b = run_case(case)
        assert not runaway_a and not runaway_b
        assert events_a == events_b
        assert violations_a == violations_b

    def test_replay_case_rebuilds_from_logged_seeds(self):
        case, violations = replay_case(0xC4EC, 2)
        assert case == build_case(0xC4EC, 2)
        assert violations == []

    def test_regression_seed_that_caught_the_arrival_leap(self):
        # master seed 0x3039 produced the not-yet-arrived-request clock
        # leap before the controller fix; it must stay clean now
        report = run_fuzz(cases=6, master_seed=0x3039)
        assert report.ok, report.describe()
