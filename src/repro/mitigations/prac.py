"""PRAC + ABO with the MOAT tracker (paper Sections 2.5-2.6).

``PRACMoatPolicy`` is the paper's baseline mitigation: every activation
episode performs a counter read-modify-write during the precharge, so every
episode pays the inflated PRAC timings (tRP 36 ns, tRC 52 ns). MOAT asserts
ALERT when the hottest tracked counter reaches ATH, and each bank mitigates
its tracked row under the resulting RFM if the value is at least ETH.
"""

from __future__ import annotations

from ..dram.timing import TimingSet, ddr5_base, ddr5_prac
from ..security.moat_model import moat_ath, moat_eth
from .base import EpisodeDecision, MitigationPolicy
from .prac_state import PRACCounters


class PRACMoatPolicy(MitigationPolicy):
    """Deterministic PRAC: counter update on every precharge.

    Also the MOAT service the PRAC family shares (MOAT, MoPAC-C, QPRAC,
    CnC-PRAC): under each RFM every bank whose tracked counter is at
    least ETH mitigates that row, and ALERT stays raised while a
    tracked counter is still at ATH.
    """

    name = "prac"

    #: counter increment per counter-update precharge
    increment = 1

    def __init__(self, trh: int, banks: int = 32, rows: int = 65536,
                 refresh_groups: int = 8192,
                 timing: TimingSet | None = None):
        super().__init__(timing or ddr5_prac(), banks, rows, refresh_groups)
        if trh <= 0:
            raise ValueError("trh must be positive")
        self.trh = trh
        self.ath = moat_ath(trh)
        self.eth = moat_eth(trh)
        self.state = PRACCounters(banks, rows)

    # -- activation path --------------------------------------------------
    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        self.stats.activations += 1
        self.security.on_activate(bank, row)
        return self._cu_decision

    def on_precharge(self, bank: int, row: int, now: int,
                     counter_update: bool) -> None:
        if not counter_update:
            return
        self.stats.counter_updates += 1
        value = self.state.update(bank, row, self.increment)
        self.security.on_counter_update(bank, row, value)
        if value >= self.ath:
            self._alert = True

    # -- maintenance path --------------------------------------------------
    def _refresh_bank(self, bank: int, start: int, stop: int,
                      now: int) -> None:
        self.state.refresh_rows(bank, start, stop)

    def _serve_rfm(self, now: int) -> bool:
        """All banks of the sub-channel mitigate their tracked row."""
        self.stats.alerts_mitigation += 1
        eth = self.eth
        for bank, tracker in enumerate(self.state.trackers):
            if tracker.valid and tracker.value >= eth:
                self._mitigate_tracked(bank, now)
        return any(tracker.value >= self.ath
                   for tracker in self.state.trackers)

    def _mitigate_tracked(self, bank: int, now: int) -> int:
        """Victim-refresh the bank's tracked row; returns the row."""
        row = self.state.mitigate(bank)
        self._record_mitigation(bank, row, now)
        return row

    # -- introspection -----------------------------------------------------
    def counter_value(self, bank: int, row: int) -> int:
        return self.state.value(bank, row)


class BaselinePolicy(MitigationPolicy):
    """Unprotected DDR5: baseline timings, no tracking, no mitigation."""

    name = "baseline"

    def __init__(self, timing: TimingSet | None = None):
        super().__init__(timing or ddr5_base())
