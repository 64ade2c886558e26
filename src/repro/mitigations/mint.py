"""MINT baseline tracker (Qureshi+, MICRO'24; paper Section 9.2).

MINT is a minimalist in-DRAM tracker: per bank, exactly one activation out
of every sampling window of W activations is selected uniformly at random,
and the selected row is mitigated (victim-refreshed) at the next refresh
opportunity. The DRAM vendor grants one mitigation every
``refs_per_mitigation`` REF commands (Table 13 varies this from 1 to 4).

MINT never asserts ALERT and runs at baseline timings; its security is
analysed in :mod:`repro.security.tolerated`.
"""

from __future__ import annotations

import random

from ..dram.timing import TimingSet, ddr5_base
from .base import EpisodeDecision, RefMitigationPolicy
from .mopac_d import MintSampler

#: Activations a bank can perform per tREFI (3900 ns / 46 ns).
DEFAULT_WINDOW = 84


class MINTPolicy(RefMitigationPolicy):
    """Per-bank MINT sampling with mitigate-on-REF."""

    name = "mint"

    def __init__(self, banks: int = 32, window: int = DEFAULT_WINDOW,
                 rows: int = 65536, refresh_groups: int = 8192,
                 refs_per_mitigation: int = 1,
                 timing: TimingSet | None = None,
                 rng: random.Random | None = None):
        # MINT has no counters, but the shadow truth still tracks the
        # per-row disturbance its sampling leaves unmitigated
        super().__init__(timing or ddr5_base(), banks, rows, refresh_groups,
                         refs_per_mitigation)
        rng = rng or random.Random(0x414E54)
        self.samplers = [
            MintSampler(window, random.Random(rng.getrandbits(64)))
            for _ in range(banks)
        ]
        self.pending: list[int | None] = [None] * banks

    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        self.stats.activations += 1
        self.security.on_activate(bank, row)
        selected = self.samplers[bank].observe(row)
        if selected is not None:
            # A new selection replaces an unserviced one (single register).
            self.pending[bank] = selected
        return self._plain_decision

    def _mitigate_on_ref(self, bank: int, now: int) -> None:
        row = self.pending[bank]
        if row is not None:
            self._record_mitigation(bank, row, now)
            self.pending[bank] = None
