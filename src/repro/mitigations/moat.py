"""MOAT with sweepable ALERT/eligibility thresholds (Section 9.2).

:class:`~repro.mitigations.prac.PRACMoatPolicy` pins its thresholds to
the paper's Table 2 model (ATH from :func:`repro.security.moat_model.moat_ath`,
ETH = ATH / 2). MOAT itself [Qureshi & Qazi, 2024] treats both as free
design parameters: a lower ATH trades extra ALERTs for a larger security
margin, and ETH controls how eagerly banks piggyback mitigations on a
neighbour's RFM. :class:`MOATPolicy` exposes both as constructor knobs so
ETH/ATH sweeps (the paper's §9.2 comparison axis) are one loop, while the
defaults reproduce the PRAC+MOAT baseline exactly.

The design stays *exact*: a counter update on every precharge, full PRAC
timings, zero drift against the shadow truth.
"""

from __future__ import annotations

from ..dram.timing import TimingSet
from .prac import PRACMoatPolicy


class MOATPolicy(PRACMoatPolicy):
    """PRAC + MOAT with explicitly sweepable ATH/ETH thresholds."""

    name = "moat"

    def __init__(self, trh: int, banks: int = 32, rows: int = 65536,
                 refresh_groups: int = 8192,
                 ath: int | None = None, eth: int | None = None,
                 timing: TimingSet | None = None):
        super().__init__(trh, banks, rows, refresh_groups, timing=timing)
        if ath is not None:
            if not 0 < ath <= trh:
                raise ValueError(f"ath must be in (0, trh={trh}]")
            self.ath = ath
        if eth is not None:
            if not 0 < eth <= self.ath:
                raise ValueError(f"eth must be in (0, ath={self.ath}]")
            self.eth = eth
        elif ath is not None:
            # the footnote-3 relation follows a swept ATH by default
            self.eth = max(self.ath // 2, 1)
