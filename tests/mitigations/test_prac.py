"""PRAC + MOAT policy behaviour."""

import pytest

from repro.dram.timing import ddr5_base, ddr5_prac
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy

GEO = dict(banks=4, rows=512, refresh_groups=32)


def make_policy(trh=500):
    return PRACMoatPolicy(trh, **GEO)


class TestEpisodeDecisions:
    def test_every_episode_is_counter_update(self):
        policy = make_policy()
        decision = policy.on_activate(0, 10, 0)
        assert decision.counter_update

    def test_episodes_use_prac_timing(self):
        policy = make_policy()
        decision = policy.on_activate(0, 10, 0)
        assert decision.act_timing.tRP == ddr5_prac().tRP
        assert decision.pre_timing.tRP == ddr5_prac().tRP


class TestCounting:
    def test_precharge_increments_by_one(self):
        policy = make_policy()
        policy.on_activate(0, 10, 0)
        policy.on_precharge(0, 10, 100, counter_update=True)
        assert policy.counter_value(0, 10) == 1

    def test_non_update_precharge_ignored(self):
        policy = make_policy()
        policy.on_precharge(0, 10, 100, counter_update=False)
        assert policy.counter_value(0, 10) == 0

    def test_stats_track_updates(self):
        policy = make_policy()
        for i in range(5):
            policy.on_activate(0, 10, i)
            policy.on_precharge(0, 10, i, counter_update=True)
        assert policy.stats.counter_updates == 5
        assert policy.stats.activations == 5


class TestAlertProtocol:
    def _hammer(self, policy, bank, row, times):
        for i in range(times):
            policy.on_activate(bank, row, i)
            policy.on_precharge(bank, row, i, counter_update=True)

    def test_alert_at_ath(self):
        policy = make_policy(500)
        self._hammer(policy, 0, 10, policy.ath - 1)
        assert not policy.alert_requested()
        self._hammer(policy, 0, 10, 1)
        assert policy.alert_requested()

    def test_ath_matches_table2(self):
        assert make_policy(500).ath == 472
        assert make_policy(1000).ath == 975

    def test_rfm_mitigates_tracked_row(self):
        policy = make_policy(500)
        self._hammer(policy, 0, 10, policy.ath)
        policy.on_rfm(10_000)
        events = policy.drain_mitigations()
        assert any(e.bank == 0 and e.row == 10 for e in events)
        assert policy.counter_value(0, 10) == 0

    def test_rfm_mitigates_all_eligible_banks(self):
        """ABO is sub-channel wide: every bank above ETH mitigates."""
        policy = make_policy(500)
        self._hammer(policy, 0, 10, policy.ath)
        self._hammer(policy, 1, 20, policy.eth)  # eligible, below ATH
        self._hammer(policy, 2, 30, 5)  # not eligible
        policy.on_rfm(10_000)
        rows = {(e.bank, e.row) for e in policy.drain_mitigations()}
        assert (0, 10) in rows
        assert (1, 20) in rows
        assert (2, 30) not in rows

    def test_alert_counts_by_cause(self):
        policy = make_policy(500)
        self._hammer(policy, 0, 10, policy.ath)
        policy.on_rfm(10_000)
        assert policy.stats.alerts == 1
        assert policy.stats.alerts_mitigation == 1

    def test_refresh_clears_counters_eventually(self):
        policy = make_policy(500)
        self._hammer(policy, 0, 10, 50)
        for _ in range(32):  # a full refresh round
            policy.on_refresh(0)
        assert policy.counter_value(0, 10) == 0


class TestBaselinePolicy:
    def test_never_alerts(self):
        policy = BaselinePolicy()
        for i in range(1000):
            policy.on_activate(0, 1, i)
        assert not policy.alert_requested()

    def test_uses_base_timing(self):
        policy = BaselinePolicy()
        decision = policy.on_activate(0, 1, 0)
        assert decision.act_timing.tRP == ddr5_base().tRP
        assert not decision.counter_update

    def test_bad_trh_rejected(self):
        with pytest.raises(ValueError):
            PRACMoatPolicy(0, **GEO)
