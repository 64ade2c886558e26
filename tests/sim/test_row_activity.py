"""_RowActivityMonitor window accounting (Table 4 inputs).

``finalize`` returns the ``sim.row_activity`` stats; the hot-row
tallies behind their means stay on the monitor."""

from repro.sim.system import _RowActivityMonitor


def monitor(trefw=1000, trefi=100, banks=1):
    return _RowActivityMonitor(banks, trefw, trefi)


class TestWindowAccounting:
    def test_partial_trailing_window_not_counted(self):
        m = monitor()
        for _ in range(64):
            m.notify(10, 0, 0, 7)  # all inside window [0, 1000)
        stats = m.finalize(2500)
        # two *completed* windows; the [2000, 2500) remainder is not one
        assert stats["windows"] == 2
        assert m.act64_total == 1

    def test_partial_window_activity_discarded(self):
        m = monitor()
        for _ in range(64):
            m.notify(10, 0, 0, 7)       # window 1: hot
        for _ in range(64):
            m.notify(2100, 0, 0, 9)     # partial window [2000, 2500)
        stats = m.finalize(2500)
        assert stats["windows"] == 2
        # the trailing partial window's hot row must not inflate ACT-64+
        assert m.act64_total == 1
        assert stats["total_acts"] == 128

    def test_idle_windows_counted(self):
        m = monitor()
        m.notify(10, 0, 0, 7)
        stats = m.finalize(5000)
        # [0,1000) .. [4000,5000): five completed windows, four idle
        assert stats["windows"] == 5

    def test_exact_boundary(self):
        m = monitor()
        for _ in range(64):
            m.notify(10, 0, 0, 7)
        stats = m.finalize(2000)
        assert stats["windows"] == 2
        assert m.act64_total == 1

    def test_no_acts_at_all(self):
        m = monitor()
        stats = m.finalize(3500)
        assert stats["windows"] == 3
        assert stats["total_acts"] == 0
        assert stats["act64"] == 0.0

    def test_act200_threshold(self):
        m = monitor()
        for _ in range(200):
            m.notify(10, 0, 0, 7)
        for _ in range(199):
            m.notify(20, 0, 1, 7)  # different bank, below threshold
        stats = m.finalize(1000)
        assert stats["windows"] == 1
        assert m.act200_total == 1
        assert m.act64_total == 2

    def test_short_run_reports_one_truncated_window(self):
        # elapsed < trefw: no completed window exists, so the whole run
        # counts as one truncated window instead of an empty census
        m = monitor()
        for _ in range(64):
            m.notify(10, 0, 0, 7)
        stats = m.finalize(500)
        assert stats["windows"] == 1
        assert m.act64_total == 1

    def test_zero_elapsed_reports_nothing(self):
        m = monitor()
        stats = m.finalize(0)
        assert stats["windows"] == 0
        assert stats["act64"] == 0.0

    def test_act_at_exact_boundary_belongs_to_next_window(self):
        # windows are half-open [start, start + tREFW): an ACT at
        # exactly k * tREFW opens window k+1, it does not close window k
        m = monitor()
        for _ in range(63):
            m.notify(10, 0, 0, 7)
        m.notify(1000, 0, 0, 7)  # 64th ACT, but in the next window
        stats = m.finalize(2000)
        assert stats["windows"] == 2
        assert m.act64_total == 0

    def test_hot_row_split_across_boundary_not_counted(self):
        m = monitor()
        for _ in range(32):
            m.notify(10, 0, 0, 7)
        for _ in range(32):
            m.notify(1010, 0, 0, 7)  # same row, next window
        stats = m.finalize(2000)
        assert stats["total_acts"] == 64
        assert m.act64_total == 0

    def test_acts_straddling_boundary_count_in_their_windows(self):
        m = monitor()
        for _ in range(64):
            m.notify(999, 0, 0, 7)   # last tick of window 1
        for _ in range(64):
            m.notify(1000, 0, 0, 7)  # first tick of window 2
        stats = m.finalize(2000)
        assert stats["windows"] == 2
        assert m.act64_total == 2

    def test_large_jump_skips_empty_windows_exactly(self):
        # the closed-form skip in _advance_to must count every empty
        # window a big idle gap crosses — no more, no fewer
        m = monitor()
        for _ in range(64):
            m.notify(10, 0, 0, 7)
        m.notify(987_654, 0, 0, 9)   # jump over 986 idle windows
        stats = m.finalize(1_000_000)
        assert stats["windows"] == 1000
        assert m.act64_total == 1
        assert stats["total_acts"] == 65

    def test_jump_to_exact_multiple_boundary(self):
        m = monitor()
        m.notify(0, 0, 0, 7)
        m.notify(5000, 0, 0, 7)      # exactly 5 * tREFW
        stats = m.finalize(6000)
        assert stats["windows"] == 6
        assert stats["total_acts"] == 2

    def test_per_window_means_use_completed_windows(self):
        m = monitor(banks=2)
        for _ in range(64):
            m.notify(10, 0, 0, 7)
        stats = m.finalize(4000)
        assert stats["act64"] == \
            m.act64_total / stats["windows"] / m.banks
        assert stats["act64"] == 1 / (4 * 2)
