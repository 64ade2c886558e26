"""Security analysis for MoPAC (paper Sections 5.3, 6.4, 7, 8.2, App. A).

This subpackage is pure math — no simulator state — and reproduces every
analytical table in the paper:

* Table 2 (MOAT ATH): :mod:`repro.security.moat_model`
* Table 5 (F, epsilon): :mod:`repro.security.failure`
* Tables 6-8, 11 and 14 (C search, ATH*): :mod:`repro.security.csearch`,
  over the NUP Markov chain of :mod:`repro.security.markov` (Table 11)
  and the Row-Press derating of :mod:`repro.security.rowpress` (Table 14)
* Tables 9-10 (performance attacks): :mod:`repro.security.attacks_model`
* Table 13 (MINT / PrIDE comparison): :mod:`repro.security.tolerated`
"""

from .binomial import (binomial_pmf, escape_probability_bernoulli,
                       survival_probability, undercount_probability)
from .csearch import (DEFAULT_TTH, MoPACParams, NUPParams, critical_updates,
                      default_p, drain_on_ref_default, mopac_c_params,
                      mopac_d_nup_params, mopac_d_params, table6)
from .failure import FailureBudget, budget_for, epsilon_for, \
    failure_probability, table5
from .markov import counter_distribution, critical_updates_markov
from .moat_model import moat_ath, moat_eth, moat_slack
from .attacks_model import (ABO_STALL_ACTS, PAPER_ALPHA, AttackReport,
                            abo_slowdown, attack_ath_star, estimate_alpha,
                            mopac_c_attack, mopac_d_attacks,
                            single_bank_slowdown)
from .rowpress import ROWPRESS_DAMAGE, rowpress_budget
from .tolerated import (ToleratedRow, mint_tolerated, mopac_d_tolerated,
                        pride_tolerated, table13)

__all__ = [
    "ABO_STALL_ACTS", "AttackReport", "DEFAULT_TTH", "FailureBudget",
    "MoPACParams", "NUPParams", "PAPER_ALPHA", "ROWPRESS_DAMAGE",
    "ToleratedRow", "abo_slowdown", "attack_ath_star", "binomial_pmf",
    "budget_for", "counter_distribution", "critical_updates",
    "critical_updates_markov", "default_p", "drain_on_ref_default",
    "epsilon_for", "escape_probability_bernoulli", "estimate_alpha",
    "failure_probability", "mint_tolerated", "moat_ath", "moat_eth",
    "moat_slack", "mopac_c_attack", "mopac_c_params", "mopac_d_attacks",
    "mopac_d_nup_params", "mopac_d_params", "mopac_d_tolerated",
    "pride_tolerated", "rowpress_budget", "single_bank_slowdown",
    "survival_probability", "table5", "table6", "table13",
    "undercount_probability",
]
