"""Ground-truth hammer ledger."""

import pytest

from repro.attacks.ledger import HammerLedger


def make_ledger(trh=100):
    return HammerLedger(banks=2, rows=64, trh=trh, refresh_groups=8)


class TestCounting:
    def test_counts_accumulate(self):
        ledger = make_ledger()
        for _ in range(5):
            ledger.on_activate(0, 10)
        assert ledger.counts[0][10] == 5
        assert ledger.total_activations == 5

    def test_max_tracked_with_location(self):
        ledger = make_ledger()
        for _ in range(3):
            ledger.on_activate(1, 20)
        ledger.on_activate(0, 5)
        report = ledger.report()
        assert report.max_count == 3
        assert (report.max_bank, report.max_row) == (1, 20)

    def test_banks_independent(self):
        ledger = make_ledger()
        ledger.on_activate(0, 10)
        assert ledger.counts[1][10] == 0


class TestResets:
    def test_mitigation_resets_row(self):
        ledger = make_ledger()
        for _ in range(5):
            ledger.on_activate(0, 10)
        ledger.on_mitigation(0, 10)
        assert ledger.counts[0][10] == 0

    def test_mitigation_does_not_lower_max(self):
        """The max is a high-water mark: a past overshoot stays recorded."""
        ledger = make_ledger(trh=3)
        for _ in range(5):
            ledger.on_activate(0, 10)
        ledger.on_mitigation(0, 10)
        assert ledger.report().max_count == 5
        assert ledger.report().attack_succeeded

    def test_refresh_covers_all_rows_after_full_round(self):
        ledger = make_ledger()
        for row in range(64):
            ledger.on_activate(0, row)
        for _ in range(8):  # 8 groups
            ledger.on_refresh()
        assert sum(ledger.counts[0]) == 0

    def test_out_of_range_mitigation_ignored(self):
        ledger = make_ledger()
        ledger.on_mitigation(0, 9999)  # silently ignored


class TestReport:
    def test_attack_succeeds_above_trh(self):
        ledger = make_ledger(trh=4)
        for _ in range(5):
            ledger.on_activate(0, 1)
        assert ledger.report().attack_succeeded

    def test_attack_fails_at_trh(self):
        ledger = make_ledger(trh=5)
        for _ in range(5):
            ledger.on_activate(0, 1)
        assert not ledger.report().attack_succeeded

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            HammerLedger(banks=0, rows=64, trh=100)
