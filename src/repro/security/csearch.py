"""Critical-update search and MoPAC parameter derivation (Sections 5.3-5.4,
6.3-6.5, 8.2, Appendix A; Tables 6, 7, 8, 11, 14).

Every MoPAC threshold comes from one rule. Given a Rowhammer threshold T:

1. epsilon = sqrt(T * tRC / 3.2e20)                       (Table 5)
2. the activation budget A, from MOAT's ATH(T): ATH for MoPAC-C,
   ATH - TTH for MoPAC-D (tardiness), ATH for MoPAC-D with NUP;
   Row-Press derates it to floor(A / 1.5)                (Appendix A)
3. C = the largest count with P(N <= C) <= epsilon, where N is the
   number of updates over A activations: Binomial(A, p), or NUP's
   Markov chain whose first update comes with p/2   (Tables 6, 11)
4. ATH* = C / p                                           (Eq. 7)

:func:`mopac_c_params` and :func:`mopac_d_params` are the two entry
points; both run the one derivation, :func:`_derive`.

The sampling probability p is restricted to powers of two. The paper's
choices (1/4 at 250, 1/8 at 500, 1/16 at 1000, ..., 1/64 at 4000) follow
p = 62.5 / T rounded to a power of two, with a floor keeping ATH* >= 10
to avoid frequent ABO (Section 5.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binomial import undercount_probability
from .failure import epsilon_for
from .markov import counter_distribution, critical_updates_markov
from .moat_model import moat_ath
from .rowpress import ROWPRESS_DAMAGE

#: Default tardiness threshold (Section 6.3).
DEFAULT_TTH = 32


@dataclass(frozen=True)
class MoPACParams:
    """Derived parameters for one (design, T_RH) point."""

    trh: int
    ath: int  #: MOAT ALERT threshold without MoPAC
    effective_acts: int  #: A (MoPAC-C) or A' = ATH - TTH (MoPAC-D)
    p: float
    critical_updates: int  #: C
    ath_star: int  #: ATH* = C / p
    epsilon: float
    undercount_probability: float  #: failure probability P(N <= C)

    @property
    def inv_p(self) -> int:
        return round(1 / self.p)

    @property
    def update_reduction(self) -> float:
        """How many x fewer counter updates than PRAC (= 1/p)."""
        return 1 / self.p


def default_p(trh: int) -> float:
    """Power-of-two sampling probability for a threshold (Section 5.4).

    Matches the paper's menu: T_RH 250 -> 1/4, 500 -> 1/8, 1000 -> 1/16,
    2000 -> 1/32, 4000 -> 1/64. Clamped to at most 1/2.
    """
    if trh <= 0:
        raise ValueError("trh must be positive")
    exponent = max(round(math.log2(trh / 62.5)), 1)
    return 2.0 ** -exponent


def critical_updates(effective_acts: int, p: float, epsilon: float) -> int:
    """Largest C whose failure probability stays within epsilon (Sec. 5.3).

    The paper's Table 6 numbers correspond to a failure event of "at most C
    updates" — ABO fires once the update count *exceeds* C — so the search
    finds the largest C with P(N <= C) <= epsilon. (Reading Eq. 2 literally
    as P(N < C) shifts every table entry by one row; the published C and
    ATH* values match the <= convention, which we therefore use.)
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    best = 0
    for c in range(effective_acts + 1):
        if undercount_probability(c + 1, effective_acts, p) <= epsilon:
            best = c
        else:
            break
    return best


def _derive(trh: int, budget: int, p: float | None, *, nup: bool,
            rowpress: bool) -> MoPACParams:
    """The one ATH* derivation: C over ``budget`` activations, ATH* = C / p.

    Row-Press first derates the budget. The update count is
    Binomial(budget, p), or with ``nup`` the Markov chain whose first
    update comes with p/2 (Section 8.2). C = 0 makes ATH* 0, an ALERT at
    every counter update, so a chosen p or a Row-Press budget that
    leaves C = 0 is refused (footnote 9 recommends circuit-level
    mitigation there). The default p can still leave C = 0 at low
    thresholds, as for MoPAC-D at T_RH 100.
    """
    chosen = p is not None
    p = default_p(trh) if p is None else p
    if rowpress:
        budget = int(budget / ROWPRESS_DAMAGE)
    eps = epsilon_for(trh)
    if nup:
        c = critical_updates_markov(budget, p, eps, p_first=p / 2)
        tail = float(np.cumsum(counter_distribution(budget, p, p / 2))[c])
    else:
        c = critical_updates(budget, p, eps)
        tail = undercount_probability(c + 1, budget, p)
    if c < 1 and (chosen or rowpress):
        kind = "Row-Press budget" if rowpress else "Activation budget"
        raise ValueError(
            f"{kind} at T_RH {trh} yields C = 0 with p = {p:g}, so ATH* "
            "would be 0; use a larger p or circuit-level mitigation "
            "(paper footnote 9)")
    return MoPACParams(
        trh=trh, ath=moat_ath(trh), effective_acts=budget, p=p,
        critical_updates=c, ath_star=round(c / p), epsilon=eps,
        undercount_probability=tail,
    )


def mopac_c_params(trh: int, p: float | None = None, *,
                   rowpress: bool = False) -> MoPACParams:
    """MoPAC-C parameters (Table 7; Table 14 with ``rowpress``).

    The search runs over A = ATH.
    """
    return _derive(trh, moat_ath(trh), p, nup=False, rowpress=rowpress)


def mopac_d_params(trh: int, p: float | None = None, tth: int = DEFAULT_TTH,
                   *, nup: bool = False, rowpress: bool = False
                   ) -> MoPACParams:
    """MoPAC-D parameters (Table 8; Table 11 with ``nup``; Table 14 with
    ``rowpress``).

    Tardiness (Section 6.3) lets a buffered row take up to TTH extra
    activations before its update lands, so the binomial search runs
    over A' = ATH - TTH (Eq. 8). NUP's chain runs over the full ATH
    window ("the likelihood that the PRAC counter reaches a particular
    value after receiving ATH activations", Section 8.2), which
    reproduces Table 11. The paper gives NUP no Row-Press analysis, so
    the two are refused together.
    """
    if nup and rowpress:
        raise ValueError("NUP has no Row-Press-derated ATH* (the paper "
                         "derives none); nup and rowpress are refused "
                         "together")
    ath = moat_ath(trh)
    if ath - tth <= 0:
        raise ValueError(f"TTH {tth} leaves no activation budget at "
                         f"T_RH {trh}")
    return _derive(trh, ath if nup else ath - tth, p, nup=nup,
                   rowpress=rowpress)


@dataclass(frozen=True)
class NUPParams:
    """MoPAC-D's ATH* with uniform sampling and with NUP (Table 11)."""

    trh: int
    p: float
    uniform_ath_star: int
    nup_ath_star: int
    uniform_c: int
    nup_c: int


def mopac_d_nup_params(trh: int, p: float | None = None,
                       tth: int = DEFAULT_TTH) -> NUPParams:
    """One Table 11 row: :func:`mopac_d_params` without and with NUP."""
    uniform = mopac_d_params(trh, p, tth)
    nup = mopac_d_params(trh, p, tth, nup=True)
    return NUPParams(
        trh=trh, p=uniform.p,
        uniform_ath_star=uniform.ath_star, nup_ath_star=nup.ath_star,
        uniform_c=uniform.critical_updates, nup_c=nup.critical_updates,
    )


def drain_on_ref_default(trh: int) -> int:
    """Paper's drain-on-REF rate for a threshold (Table 8: 4 at 250, 2 at
    500, 1 at 1000); lower thresholds sample more and drain faster."""
    return 4 if trh < 500 else 2 if trh < 1000 else 1


def table6(c_values: range = range(20, 26),
           thresholds: tuple[int, ...] = (250, 500, 1000)) -> dict:
    """Reproduce paper Table 6: P(N < C) grid, normalised to epsilon.

    Returns ``{trh: {c: (probability, ratio_to_epsilon)}}`` using each
    threshold's default p and A = ATH (the MoPAC-C setting).
    """
    grid: dict[int, dict[int, tuple[float, float]]] = {}
    for trh in thresholds:
        eps = epsilon_for(trh)
        ath = moat_ath(trh)
        p = default_p(trh)
        grid[trh] = {
            c: (undercount_probability(c + 1, ath, p),
                undercount_probability(c + 1, ath, p) / eps)
            for c in c_values
        }
    return grid
