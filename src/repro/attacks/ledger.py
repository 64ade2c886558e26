"""Ground-truth security ledger.

The threat model (Section 2.1) declares an attack successful when any row
receives more than T_RH activations *without an intervening mitigation or
refresh*. The ledger is the omniscient referee: it counts activations per
(bank, row) independently of whatever the mitigation believes, resets a
row's count when the policy mitigates it (its victims are refreshed) or
when periodic refresh reaches it, and records the maximum count ever
observed.

The ledger is aggressor-centric and deliberately *conservative*: a victim
refresh triggered by mitigating row r clears only r's ledger count, even
though it also freshens rows that other aggressors were hammering. The
mitigations therefore face a slightly stronger adversary here than in
reality — if they pass, they pass with margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mitigations.prac_state import RefreshSchedule


@dataclass
class LedgerReport:
    """Outcome of a security run."""

    max_count: int
    max_bank: int
    max_row: int
    total_activations: int
    trh: int

    @property
    def attack_succeeded(self) -> bool:
        return self.max_count > self.trh


class HammerLedger:
    """Per-(bank, row) unmitigated-activation counts."""

    def __init__(self, banks: int, rows: int, trh: int,
                 refresh_groups: int = 8192):
        if banks <= 0 or rows <= 0 or trh <= 0:
            raise ValueError("banks, rows, trh must be positive")
        self.banks = banks
        self.rows = rows
        self.trh = trh
        # lists, not prac_state.zeros arrays: the ledger lives only in
        # the attack harness, where list indexing is the fastest
        self.counts = [[0] * rows for _ in range(banks)]
        self.refresh_schedule = RefreshSchedule(rows, refresh_groups)
        self.max_count = 0
        self.max_bank = 0
        self.max_row = 0
        self.total_activations = 0

    def on_activate(self, bank: int, row: int) -> int:
        """Count one activation; returns the row's running count."""
        self.total_activations += 1
        counts = self.counts[bank]
        value = counts[row] + 1
        counts[row] = value
        if value > self.max_count:
            self.max_count = value
            self.max_bank = bank
            self.max_row = row
        return value

    def on_mitigation(self, bank: int, row: int) -> None:
        """The policy victim-refreshed around ``row``: its slate is clean."""
        if 0 <= row < self.rows:
            self.counts[bank][row] = 0

    def on_refresh(self) -> None:
        """One REF: the next refresh group's rows are freshened."""
        start, stop = self.refresh_schedule.advance()
        cleared = [0] * (stop - start)
        for counts in self.counts:
            counts[start:stop] = cleared

    def report(self) -> LedgerReport:
        return LedgerReport(
            max_count=self.max_count, max_bank=self.max_bank,
            max_row=self.max_row, total_activations=self.total_activations,
            trh=self.trh,
        )
