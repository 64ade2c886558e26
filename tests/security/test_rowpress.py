"""Row-Press extension (Appendix A, Table 14)."""

import pytest

from repro.security.csearch import mopac_c_params, mopac_d_params
from repro.security.rowpress import (ROWPRESS_DAMAGE, RowPressDamage,
                                     rowpress_budget)


class TestTable14:
    @pytest.mark.parametrize("trh,ath_star", [(500, 80), (1000, 160)])
    def test_mopac_c_published(self, trh, ath_star):
        assert mopac_c_params(trh, rowpress=True).ath_star == ath_star

    @pytest.mark.parametrize("trh,ath_star", [(500, 64), (1000, 144)])
    def test_mopac_d_published(self, trh, ath_star):
        assert mopac_d_params(trh, rowpress=True).ath_star == ath_star


class TestDerating:
    def test_budget_is_ath_over_damage(self):
        assert rowpress_budget(500) == int(472 / 1.5)

    def test_rowpress_ath_star_below_plain(self):
        for trh in (500, 1000):
            assert mopac_c_params(trh, rowpress=True).ath_star < \
                mopac_c_params(trh).ath_star
            assert mopac_d_params(trh, rowpress=True).ath_star < \
                mopac_d_params(trh).ath_star

    def test_damage_factor_is_1_5(self):
        assert ROWPRESS_DAMAGE == 1.5

    def test_unity_damage_recovers_plain_budget(self):
        assert rowpress_budget(500, damage=1.0) == 472

    def test_low_threshold_budget_exhaustion(self):
        """Footnote 9: at very low T_RH the Row-Press budget collapses."""
        with pytest.raises(ValueError):
            mopac_d_params(250, tth=200, rowpress=True)


class TestSCtrIncrement:
    """Appendix A: SCtr += ceil(tON / 180 ns)."""

    @pytest.mark.parametrize("ton,inc", [
        (10, 1), (180, 1), (181, 2), (360, 2), (361, 3), (900, 5)])
    def test_increment(self, ton, inc):
        assert RowPressDamage(ton).sctr_increment == inc

    def test_minimum_one(self):
        assert RowPressDamage(0).sctr_increment == 1
