"""MoPAC-D: MINT sampler, SRQ, tardiness, drains, NUP, multi-chip."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.timing import ddr5_base
from repro.mitigations.mopac_d import (MintSampler, MoPACDPolicy,
                                       SRQ_DRAIN_PER_ABO)

GEO = dict(banks=4, rows=512, refresh_groups=32)


def make_policy(trh=500, seed=0, **kw):
    return MoPACDPolicy(trh, rng=random.Random(seed), **GEO, **kw)


class TestMintSampler:
    def test_exactly_one_selection_per_window(self):
        sampler = MintSampler(8, random.Random(0))
        selections = 0
        for window in range(100):
            for i in range(8):
                if sampler.observe(i) is not None:
                    selections += 1
        assert selections == 100

    def test_selection_only_at_window_end(self):
        """Footnote 6: the selected entry is inserted only at the end of
        the MINT window."""
        sampler = MintSampler(8, random.Random(0))
        for i in range(7):
            assert sampler.observe(i) is None
        assert sampler.observe(7) is not None

    def test_uniform_slot_distribution(self):
        sampler = MintSampler(4, random.Random(7))
        counts = [0] * 4
        for _ in range(4000):
            for slot in range(4):
                selected = sampler.observe(slot)
                if selected is not None:
                    counts[selected] += 1
        for count in counts:
            assert count == pytest.approx(1000, rel=0.15)

    def test_window_one_selects_everything(self):
        sampler = MintSampler(1, random.Random(0))
        assert all(sampler.observe(i) == i for i in range(10))

    def test_bad_window(self):
        with pytest.raises(ValueError):
            MintSampler(0, random.Random(0))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**16))
    def test_property_one_per_window(self, window, seed):
        sampler = MintSampler(window, random.Random(seed))
        hits = sum(sampler.observe(i) is not None
                   for i in range(window * 5))
        assert hits == 5


class TestSRQ:
    def test_insertion_after_window(self):
        policy = make_policy(500)  # p = 1/8
        for i in range(8):
            policy.on_activate(0, 42, i)
        assert policy.buffered_rows(0) == [42]
        assert policy.stats.srq_insertions == 1

    def test_coalescing_increments_sctr(self):
        policy = make_policy(500)
        for i in range(16):
            policy.on_activate(0, 42, i)
        chip = policy.chips[0]
        assert len(chip.srqs[0]) == 1
        assert chip.srqs[0][42].sctr == 2

    def test_actr_counts_buffered_activations(self):
        policy = make_policy(500)
        for i in range(8):
            policy.on_activate(0, 42, i)
        entry = policy.chips[0].srqs[0][42]
        before = entry.actr
        policy.on_activate(0, 42, 100)
        assert entry.actr == before + 1

    def test_srq_full_asserts_alert(self):
        policy = make_policy(500, drain_on_ref=0)
        # 16 distinct rows * 8 acts each fills the 16-entry SRQ
        act = 0
        for row in range(16):
            for _ in range(8):
                policy.on_activate(0, 100 + row, act)
                act += 1
        assert "srq_full" in policy.alert_causes
        assert policy.alert_requested()

    def test_srq_size_floor(self):
        with pytest.raises(ValueError):
            make_policy(500, srq_size=SRQ_DRAIN_PER_ABO - 1)


class TestTardiness:
    def test_tth_trips_alert(self):
        policy = make_policy(500, tth=32)
        for i in range(8):  # insert row 42
            policy.on_activate(0, 42, i)
        for i in range(40):  # hammer it while buffered
            policy.on_activate(0, 42, 100 + i)
        assert "tardiness" in policy.alert_causes

    def test_below_tth_quiet(self):
        policy = make_policy(500, tth=32)
        for i in range(8):
            policy.on_activate(0, 42, i)
        for i in range(10):
            policy.on_activate(0, 42, 100 + i)
        assert "tardiness" not in policy.alert_causes


class TestDrains:
    def fill(self, policy, rows, acts_each=8):
        act = 0
        for row in rows:
            for _ in range(acts_each):
                policy.on_activate(0, row, act)
                act += 1

    def test_rfm_drains_five(self):
        policy = make_policy(500, drain_on_ref=0)
        self.fill(policy, range(100, 116))
        policy.on_rfm(10_000)
        assert policy.srq_occupancy(0) == 16 - SRQ_DRAIN_PER_ABO

    def test_drain_increments_counter_by_1_plus_sctr_over_p(self):
        policy = make_policy(500, drain_on_ref=0)
        for i in range(16):  # row selected twice -> SCtr = 2
            policy.on_activate(0, 42, i)
        policy.on_rfm(10_000)
        # increment = 1 + SCtr / p = 1 + 2 * 8 = 17
        assert policy.counter_value(0, 42) == 17

    def test_drain_priority_highest_actr_first(self):
        policy = make_policy(500, drain_on_ref=0, srq_size=8)
        self.fill(policy, range(100, 107))
        # hammer row 103 so it has the highest ACtr
        for i in range(20):
            policy.on_activate(0, 103, 10_000 + i)
        policy.on_rfm(20_000)
        assert 103 not in policy.buffered_rows(0)

    def test_drain_on_ref_rate(self):
        policy = make_policy(500, drain_on_ref=2)
        self.fill(policy, range(100, 110))
        occupancy = policy.srq_occupancy(0)
        policy.on_refresh(50_000)
        assert policy.srq_occupancy(0) == occupancy - 2
        assert policy.stats.ref_drains == 2

    def test_zero_drain_on_ref_keeps_srq_across_refresh(self):
        policy = make_policy(500, drain_on_ref=0)
        self.fill(policy, range(100, 110))
        occupancy = policy.srq_occupancy(0)
        policy.on_refresh(50_000)
        assert policy.srq_occupancy(0) == occupancy
        assert policy.stats.ref_drains == 0

    def test_default_drain_rate_from_table8(self):
        assert make_policy(250).drain_on_ref == 4
        assert make_policy(500).drain_on_ref == 2
        assert make_policy(1000).drain_on_ref == 1

    def test_mitigation_when_counter_crosses_ath_star(self):
        policy = make_policy(500, drain_on_ref=0)
        # One coalesced entry with enough SCtr to cross ATH* = 152.
        for i in range(8 * 20):  # SCtr = 20 -> increment 161
            policy.on_activate(0, 42, i)
        policy.on_rfm(10_000)
        assert "mitigation" in policy.alert_causes
        policy.on_activate(0, 7, 99_999)  # inter-ALERT activation
        policy.on_rfm(20_000)
        events = policy.drain_mitigations()
        assert (0, 42) in {(e.bank, e.row) for e in events}


class TestTimings:
    def test_mc_visible_timing_is_baseline(self):
        policy = make_policy(500)
        decision = policy.on_activate(0, 1, 0)
        assert decision.act_timing.tRP == ddr5_base().tRP
        assert not decision.counter_update


class TestNUP:
    def test_nup_roughly_halves_insertions_for_cold_rows(self):
        uniform = make_policy(500, seed=3)
        nup = make_policy(500, nup=True, seed=3)
        act = 0
        for sweep in range(60):
            for row in range(200):  # wide sweep: counters stay ~0
                uniform.on_activate(0, row, act)
                nup.on_activate(0, row, act)
                act += 1
        ratio = nup.stats.srq_insertions / uniform.stats.srq_insertions
        assert ratio == pytest.approx(0.5, abs=0.15)

    def test_nup_uses_table11_ath_star(self):
        assert make_policy(500, nup=True).ath_star == 136
        assert make_policy(1000, nup=True).ath_star == 288

    def test_uniform_uses_table8_ath_star(self):
        assert make_policy(500).ath_star == 152


class TestMultiChip:
    def test_chips_have_independent_state(self):
        policy = make_policy(500, chips=4)
        for i in range(64):
            policy.on_activate(0, 42, i)
        occupancies = [len(chip.srqs[0]) for chip in policy.chips]
        assert len(occupancies) == 4

    def test_counter_value_is_max_over_chips(self):
        policy = make_policy(500, chips=2)
        policy.chips[0].prac.update(0, 5, 10)
        policy.chips[1].prac.update(0, 5, 30)
        assert policy.counter_value(0, 5) == 30

    def test_more_chips_more_insertions(self):
        few = make_policy(500, chips=1, seed=9)
        many = make_policy(500, chips=4, seed=9)
        for i in range(4000):
            few.on_activate(0, i % 300, i)
            many.on_activate(0, i % 300, i)
        assert many.stats.srq_insertions > few.stats.srq_insertions

    def test_bad_chips(self):
        with pytest.raises(ValueError):
            make_policy(500, chips=0)


class TestValidation:
    def test_bad_trh(self):
        with pytest.raises(ValueError):
            make_policy(trh=0)

    def test_negative_drain_on_ref(self):
        with pytest.raises(ValueError, match="drain_on_ref"):
            make_policy(drain_on_ref=-1)
        assert make_policy(drain_on_ref=0).drain_on_ref == 0
