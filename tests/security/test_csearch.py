"""Critical-update search: paper Tables 6, 7, 8 reproduced exactly."""

import pytest

import numpy as np

from repro.security.csearch import (critical_updates, default_p,
                                    drain_on_ref_default, mopac_c_params,
                                    mopac_d_params, table6)
from repro.security.failure import epsilon_for
from repro.security.markov import counter_distribution


class TestDefaultP:
    """Section 5.4 / intro: the power-of-two p menu per threshold."""

    @pytest.mark.parametrize("trh,p", [
        (250, 1 / 4), (500, 1 / 8), (1000, 1 / 16),
        (2000, 1 / 32), (4000, 1 / 64)])
    def test_paper_menu(self, trh, p):
        assert default_p(trh) == p

    def test_clamped_to_half(self):
        assert default_p(100) <= 1 / 2

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            default_p(0)


class TestTable7MoPACC:
    @pytest.mark.parametrize("trh,c,ath_star", [
        (250, 20, 80), (500, 22, 176), (1000, 23, 368)])
    def test_c_and_ath_star(self, trh, c, ath_star):
        params = mopac_c_params(trh)
        assert params.critical_updates == c
        assert params.ath_star == ath_star

    def test_effective_acts_is_ath(self):
        assert mopac_c_params(500).effective_acts == 472

    def test_chosen_c_within_budget(self):
        params = mopac_c_params(500)
        assert params.undercount_probability <= params.epsilon

    def test_update_reduction_8x_at_500(self):
        assert mopac_c_params(500).update_reduction == 8


class TestTable8MoPACD:
    @pytest.mark.parametrize("trh,a_prime,c,ath_star", [
        (250, 187, 15, 60), (500, 440, 19, 152), (1000, 943, 21, 336)])
    def test_params(self, trh, a_prime, c, ath_star):
        """A' = ATH - TTH. Note: the paper lists A' = 942 at T_RH = 1000
        (975 - 32 = 943); C and ATH* match either way."""
        params = mopac_d_params(trh)
        assert params.effective_acts == a_prime
        assert params.critical_updates == c
        assert params.ath_star == ath_star

    @pytest.mark.parametrize("trh,drain", [(250, 4), (500, 2), (1000, 1)])
    def test_drain_on_ref(self, trh, drain):
        assert drain_on_ref_default(trh) == drain

    @pytest.mark.parametrize("trh,drain", [
        (100, 4), (250, 4), (300, 4), (500, 2), (700, 2), (1000, 1),
        (2000, 1)])
    def test_drain_on_ref_between_the_paper_points(self, trh, drain):
        assert drain_on_ref_default(trh) == drain

    def test_tth_too_large_rejected(self):
        with pytest.raises(ValueError):
            mopac_d_params(250, tth=300)


class TestOneDerivation:
    """Every variant is one C-search over its own activation budget."""

    def test_rowpress_derates_each_budget(self):
        assert mopac_c_params(500, rowpress=True).effective_acts \
            == int(472 / 1.5)
        assert mopac_d_params(500, rowpress=True).effective_acts \
            == int(440 / 1.5)

    def test_nup_reports_the_chains_failure_probability(self):
        """NUP's C comes from the Markov chain over the full ATH, and so
        does the failure probability it reports (not the binomial over
        ATH - TTH)."""
        params = mopac_d_params(500, nup=True)
        assert (params.effective_acts, params.critical_updates,
                params.ath_star) == (472, 17, 136)
        chain = np.cumsum(counter_distribution(472, 1 / 8, 1 / 16))
        assert params.undercount_probability == float(chain[17])
        assert params.undercount_probability == pytest.approx(7.72e-9,
                                                              rel=1e-3)
        assert params.undercount_probability <= params.epsilon

    @pytest.mark.parametrize("derive", [
        lambda: mopac_c_params(500, 1 / 32),
        lambda: mopac_d_params(500, 1 / 32),
        lambda: mopac_d_params(500, 1 / 16, nup=True),
        lambda: mopac_c_params(500, 1 / 16, rowpress=True)])
    def test_chosen_p_leaving_c_zero_is_refused(self, derive):
        with pytest.raises(ValueError, match="yields C = 0"):
            derive()

    def test_default_p_may_leave_c_zero(self):
        # at T_RH 100 MoPAC-D's A' = 33 leaves C = 0 even at p = 1/2;
        # the T_RH 100 golden cases run this point (ROADMAP findings)
        assert mopac_d_params(100).ath_star == 0


class TestTable6Grid:
    def test_published_values(self):
        """Spot checks of the published probability grid (boldface rows)."""
        grid = table6()
        # T=250, C=20: 1.9e-9 (0.3x)
        prob, ratio = grid[250][20]
        assert prob == pytest.approx(1.9e-9, rel=0.05)
        assert ratio < 1
        # T=500, C=22: 5.9e-9 (0.7x)
        prob, ratio = grid[500][22]
        assert prob == pytest.approx(5.9e-9, rel=0.05)
        assert 0.5 < ratio < 1
        # T=500, C=23 exceeds budget (2x)
        _, ratio = grid[500][23]
        assert ratio > 1
        # T=1000, C=23: 1.08e-8 — the largest C within budget
        prob, _ = grid[1000][23]
        assert prob == pytest.approx(1.08e-8, rel=0.05)

    def test_grid_rows_monotone(self):
        grid = table6()
        for trh, rows in grid.items():
            values = [rows[c][0] for c in sorted(rows)]
            assert values == sorted(values)


class TestCriticalUpdates:
    def test_largest_safe_c(self):
        eps = epsilon_for(500)
        c = critical_updates(472, 1 / 8, eps)
        assert c == 22
        # one more would exceed the budget
        from repro.security.binomial import undercount_probability
        assert undercount_probability(c + 1, 472, 1 / 8) <= eps
        assert undercount_probability(c + 2, 472, 1 / 8) > eps

    def test_zero_when_budget_tiny(self):
        assert critical_updates(100, 0.5, 1e-300) == 0

    def test_bad_p(self):
        with pytest.raises(ValueError):
            critical_updates(100, 0, 1e-9)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            critical_updates(100, 0.5, 0)

    def test_c_grows_with_activations(self):
        eps = epsilon_for(500)
        c_small = critical_updates(200, 1 / 8, eps)
        c_large = critical_updates(800, 1 / 8, eps)
        assert c_large > c_small


class TestPaperNarrative:
    def test_updates_reduced_8x_at_default_trh(self):
        """Abstract: 'at T_RH of 500, MoPAC-C can reduce updates by 8x'."""
        assert 1 / mopac_c_params(500).p == 8

    def test_updates_reduced_16x_at_1000(self):
        assert 1 / mopac_c_params(1000).p == 16

    def test_ath_star_below_ath(self):
        for trh in (250, 500, 1000):
            params = mopac_c_params(trh)
            assert params.ath_star < params.ath
