"""MoPAC-C: memory-controller-side probabilistic counting (Section 5).

The memory controller decides with probability p, at activation time,
whether the episode will be closed with PREcu (counter-update precharge,
PRAC latency) or a plain PRE (baseline latency). Selected episodes
increment the row's PRAC counter by 1/p; MOAT operates on the revised
ALERT threshold ATH* = C / p derived in :mod:`repro.security.csearch`.

Only a fraction p of episodes pays the PRAC timing tax, which is the whole
point of the design: at T_RH = 500 (p = 1/8) seven out of eight precharges
complete in 14 ns instead of 36 ns.
"""

from __future__ import annotations

import random

from ..dram.timing import MoPACTimings
from ..security.csearch import MoPACParams, mopac_c_params
from .base import EpisodeDecision
from .prac import PRACMoatPolicy


class MoPACCPolicy(PRACMoatPolicy):
    """MoPAC-C: probabilistic PREcu selection at the memory controller."""

    name = "mopac-c"

    def __init__(self, trh: int, banks: int = 32, rows: int = 65536,
                 p: float | None = None, refresh_groups: int = 8192,
                 timings: MoPACTimings | None = None,
                 rng: random.Random | None = None,
                 params: MoPACParams | None = None,
                 rowpress: bool = False):
        self.params = params or mopac_c_params(trh, p, rowpress=rowpress)
        self.timings = timings or MoPACTimings.default()
        super().__init__(trh, banks, rows, refresh_groups,
                         timing=self.timings.normal)
        # MOAT thresholds are replaced by the revised probabilistic ones.
        self.ath = self.params.ath_star
        self.eth = max(self.params.ath_star // 2, 1)
        self.p = self.params.p
        self.increment = round(1 / self.p)
        self.rng = rng or random.Random(0x40AC)
        # The per-ACT coin flip picks between exactly two decisions, so
        # both flavours are prebuilt (EpisodeDecision is frozen).
        normal, cu = self.timings.normal, self.timings.counter_update
        self._plain_decision = EpisodeDecision(normal, normal, False)
        self._cu_decision = EpisodeDecision(cu, cu, True)

    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        self.stats.activations += 1
        self.security.on_activate(bank, row)
        if self.rng.random() < self.p:
            return self._cu_decision
        return self._plain_decision

    def timing_pair(self):
        return self.timings.normal, self.timings.counter_update
