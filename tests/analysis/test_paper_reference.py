"""Cross-consistency: the rendering layer's PAPER reference dict must
agree with what the security modules actually derive.

If someone retunes a model, either the derivation still matches the
published value (fine) or this test forces them to update the reference
dict and EXPERIMENTS.md consciously.
"""

import pytest

from repro.analysis.tables import PAPER
from repro.security.attacks_model import attack_ath_star, mopac_d_attacks
from repro.security.csearch import (mopac_c_params, mopac_d_nup_params,
                                    mopac_d_params)
from repro.security.moat_model import moat_ath


class TestDerivedValuesMatchReference:
    @pytest.mark.parametrize("trh", [250, 500, 1000])
    def test_tab2(self, trh):
        assert moat_ath(trh) == PAPER["tab2_ath"][trh]

    @pytest.mark.parametrize("trh", [250, 500, 1000])
    def test_tab7(self, trh):
        params = mopac_c_params(trh)
        assert params.ath_star == PAPER["tab7_ath_star"][trh]
        assert params.critical_updates == PAPER["tab7_c"][trh]

    @pytest.mark.parametrize("trh", [250, 500, 1000])
    def test_tab8(self, trh):
        params = mopac_d_params(trh)
        assert params.ath_star == PAPER["tab8_ath_star"][trh]
        assert params.critical_updates == PAPER["tab8_c"][trh]

    @pytest.mark.parametrize("trh", [250, 500, 1000])
    def test_tab11(self, trh):
        assert mopac_d_nup_params(trh).nup_ath_star == \
            PAPER["tab11_nup"][trh]

    @pytest.mark.parametrize("trh", [250, 500, 1000])
    def test_tab10_within_half_point(self, trh):
        reports = mopac_d_attacks(trh)
        for pattern, published in PAPER["tab10"][trh].items():
            assert reports[pattern].slowdown == pytest.approx(
                published, abs=0.005)

    @pytest.mark.parametrize("trh,key", [(500, 500), (1000, 1000)])
    def test_tab14(self, trh, key):
        assert mopac_c_params(trh, rowpress=True).ath_star == \
            PAPER["tab14"][key]["mopac_c"]
        assert mopac_d_params(trh, rowpress=True).ath_star == \
            PAPER["tab14"][key]["mopac_d"]

    @pytest.mark.parametrize("trh", [250, 500, 1000])
    def test_attack_threshold_is_one_quantum_up(self, trh):
        c_params = mopac_c_params(trh)
        assert attack_ath_star(c_params) == \
            c_params.ath_star + c_params.inv_p
