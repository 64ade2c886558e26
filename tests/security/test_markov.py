"""NUP Markov chain: footnote-8 sanity check and Table 11."""

import numpy as np
import pytest
import scipy.stats

from repro.security.csearch import (critical_updates, mopac_d_nup_params,
                                    mopac_d_params)
from repro.security.failure import epsilon_for
from repro.security.markov import (counter_distribution,
                                   critical_updates_markov)


class TestChainBasics:
    def test_distribution_sums_to_one(self):
        y = counter_distribution(100, 1 / 8)
        assert float(y.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_zero_steps(self):
        y = counter_distribution(0, 1 / 8)
        assert y[0] == 1.0

    def test_uniform_chain_is_binomial(self):
        """Footnote 8: with uniform edges the chain equals the binomial."""
        y = counter_distribution(50, 1 / 4, p_first=1 / 4)
        ref = scipy.stats.binom.pmf(np.arange(51), 50, 1 / 4)
        assert np.allclose(y, ref, atol=1e-12)

    def test_nup_shifts_mass_down(self):
        uniform = counter_distribution(200, 1 / 8, p_first=1 / 8)
        nup = counter_distribution(200, 1 / 8, p_first=1 / 16)
        mean_uniform = float((np.arange(201) * uniform).sum())
        mean_nup = float((np.arange(201) * nup).sum())
        assert mean_nup < mean_uniform
        # Only the first update is slowed: the mean drops by about one
        # extra waiting period = 1/(p/2) - 1/p = 8 activations * p = 1.
        assert mean_uniform - mean_nup == pytest.approx(1.0, abs=0.15)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            counter_distribution(-1, 0.5)
        with pytest.raises(ValueError):
            counter_distribution(10, 0)


class TestFootnote8:
    """Uniform-edge Markov search must equal the binomial search."""

    @pytest.mark.parametrize("trh", [250, 500, 1000])
    def test_uniform_markov_equals_binomial(self, trh):
        params = mopac_d_params(trh)
        eps = epsilon_for(trh)
        c_markov = critical_updates_markov(
            params.effective_acts, params.p, eps, p_first=params.p)
        assert c_markov == params.critical_updates

    def test_uniform_markov_equals_binomial_generic(self):
        eps = 1e-8
        for acts, p in ((100, 1 / 4), (300, 1 / 8), (50, 1 / 2)):
            assert critical_updates_markov(acts, p, eps, p_first=p) == \
                critical_updates(acts, p, eps)


class TestTable11:
    @pytest.mark.parametrize("trh,uniform,nup", [
        (1000, 336, 288), (500, 152, 136), (250, 60, 56)])
    def test_published_ath_star(self, trh, uniform, nup):
        params = mopac_d_nup_params(trh)
        assert params.uniform_ath_star == uniform
        assert params.nup_ath_star == nup

    def test_nup_always_at_most_uniform(self):
        for trh in (250, 500, 1000):
            params = mopac_d_nup_params(trh)
            assert params.nup_ath_star <= params.uniform_ath_star

    def test_conversion_to_common_shape(self):
        nup = mopac_d_nup_params(500)
        params = mopac_d_params(500, nup=True)
        assert params.ath_star == nup.nup_ath_star
        assert params.trh == 500

    def test_tth_exhausts_budget(self):
        with pytest.raises(ValueError):
            mopac_d_nup_params(250, tth=250)
