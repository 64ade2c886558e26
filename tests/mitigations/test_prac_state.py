"""PRAC counters, MOAT tracker, refresh schedule."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations.prac_state import (BLAST_RADIUS, MoatTracker,
                                          PRACCounters, RefreshSchedule)


class TestMoatTracker:
    def test_tracks_maximum(self):
        t = MoatTracker()
        t.observe(5, 10)
        t.observe(7, 3)
        assert t.row == 5
        t.observe(7, 11)
        assert t.row == 7

    def test_first_observation_always_tracked(self):
        t = MoatTracker()
        t.observe(3, 0)
        assert t.valid
        assert t.row == 3

    def test_invalidate(self):
        t = MoatTracker()
        t.observe(5, 10)
        t.invalidate()
        assert not t.valid
        assert t.value == 0


class TestPRACCounters:
    def test_update_increments(self):
        state = PRACCounters(2, 64)
        assert state.update(0, 5, 1) == 1
        assert state.update(0, 5, 3) == 4
        assert state.value(0, 5) == 4

    def test_banks_independent(self):
        state = PRACCounters(2, 64)
        state.update(0, 5, 7)
        assert state.value(1, 5) == 0

    def test_update_feeds_tracker(self):
        state = PRACCounters(1, 64)
        state.update(0, 5, 10)
        state.update(0, 9, 4)
        assert state.tracker(0).row == 5
        assert state.tracker(0).value == 10

    def test_mitigate_resets_and_invalidates(self):
        state = PRACCounters(1, 64)
        state.update(0, 30, 100)
        row = state.mitigate(0)
        assert row == 30
        assert state.value(0, 30) == 0

    def test_mitigate_empty_tracker(self):
        state = PRACCounters(1, 64)
        assert state.mitigate(0) is None

    def test_victim_refresh_increments_neighbours(self):
        """Footnote 5: a victim refresh activates the victim row, so its
        own counter increments by one."""
        state = PRACCounters(1, 64)
        state.update(0, 30, 100)
        state.mitigate(0)
        for offset in range(1, BLAST_RADIUS + 1):
            assert state.value(0, 30 - offset) == 1
            assert state.value(0, 30 + offset) == 1
        assert state.value(0, 30 - BLAST_RADIUS - 1) == 0

    def test_mitigate_at_array_edge(self):
        state = PRACCounters(1, 64)
        state.update(0, 0, 50)
        assert state.mitigate(0) == 0  # must not touch negative rows
        state.update(0, 63, 50)
        assert state.mitigate(0) == 63

    def test_refresh_clears_range(self):
        state = PRACCounters(1, 64)
        state.update(0, 10, 5)
        state.update(0, 20, 7)
        state.refresh_rows(0, 8, 16)
        assert state.value(0, 10) == 0
        assert state.value(0, 20) == 7

    def test_refresh_invalidates_tracked_row_in_range(self):
        state = PRACCounters(1, 64)
        state.update(0, 10, 5)
        state.refresh_rows(0, 8, 16)
        assert not state.tracker(0).valid

    def test_refresh_keeps_tracker_outside_range(self):
        state = PRACCounters(1, 64)
        state.update(0, 30, 5)
        state.refresh_rows(0, 0, 8)
        assert state.tracker(0).valid

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            PRACCounters(0, 64)
        for subarrays in (0, 65):
            with pytest.raises(ValueError, match="subarrays"):
                PRACCounters(1, 64, subarrays)


class TestSubarrays:
    """PRACtical's per-subarray trackers: 4 subarrays of 16 rows."""

    def _trackers(self, state):
        return [(t.row, t.value) for t in state.subarray_trackers[0]]

    def test_each_subarray_tracks_its_own_rows(self):
        state = PRACCounters(1, 64, subarrays=4)
        state.update(0, 3, 9)
        state.update(0, 20, 5)
        state.update(0, 63, 2)
        assert self._trackers(state) == [(3, 9), (20, 5), (-1, 0), (63, 2)]

    def test_victims_feed_their_own_subarray(self):
        state = PRACCounters(1, 64, subarrays=4)
        state.update(0, 15, 9)  # last row of subarray 0
        assert state.mitigate(0, subarray=0) == 15
        # victims 14 and 13 stay in subarray 0, 16 and 17 are subarray
        # 1's; each tracker keeps the first of its equal-valued victims
        assert self._trackers(state) == [(14, 1), (16, 1), (-1, 0), (-1, 0)]
        assert state.mitigate(0, subarray=2) is None

    def test_refresh_invalidates_only_trackers_in_range(self):
        state = PRACCounters(1, 64, subarrays=4)
        state.update(0, 3, 9)
        state.update(0, 20, 5)
        state.refresh_rows(0, 16, 24)
        assert self._trackers(state) == [(3, 9), (-1, 0), (-1, 0), (-1, 0)]
        assert state.value(0, 20) == 0

    def test_one_subarray_is_the_bank_tracker(self):
        state = PRACCounters(2, 64)
        assert state.tracker(1) is state.subarray_trackers[1][0]


class TestRefreshSchedule:
    def test_covers_all_rows_once_per_round(self):
        sched = RefreshSchedule(rows=64, groups=8)
        covered = []
        for _ in range(8):
            start, stop = sched.advance()
            covered.extend(range(start, stop))
        assert sorted(covered) == list(range(64))
        assert sched.rounds == 1

    def test_groups_clamped_to_rows(self):
        sched = RefreshSchedule(rows=4, groups=8192)
        assert sched.groups == 4

    def test_uneven_division(self):
        sched = RefreshSchedule(rows=10, groups=3)
        covered = []
        for _ in range(3):
            start, stop = sched.advance()
            covered.extend(range(start, stop))
        assert sorted(set(covered)) == list(range(10))

    def test_bad_rows(self):
        with pytest.raises(ValueError):
            RefreshSchedule(rows=0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 50))
    def test_rounds_always_cover_everything(self, rows, groups):
        sched = RefreshSchedule(rows=rows, groups=groups)
        covered = set()
        for _ in range(sched.groups):
            start, stop = sched.advance()
            covered.update(range(start, stop))
        assert covered == set(range(rows))
