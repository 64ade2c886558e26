"""TRR-style small tracker (paper Section 2.3 — the broken DDR4 strawman).

Commercial Target-Row-Refresh trackers keep a handful of counter entries
per bank (1-32) and mitigate the hottest entry under the shadow of REF.
Because the table is tiny, patterns with more aggressor rows than entries
(TRRespass / Blacksmith style) evict the real aggressors and hammer
through. We implement a Misra-Gries frequent-item tracker — a *charitable*
reconstruction of TRR — and the attack tests show it still breaks, which
is exactly the paper's motivation for PRAC.
"""

from __future__ import annotations

from ..dram.timing import TimingSet, ddr5_base
from .base import EpisodeDecision, RefMitigationPolicy


class TRRPolicy(RefMitigationPolicy):
    """Misra-Gries tracker with ``entries`` counters per bank."""

    name = "trr"

    def __init__(self, banks: int = 32, entries: int = 16,
                 rows: int = 65536, refresh_groups: int = 8192,
                 mitigation_threshold: int = 64,
                 refs_per_mitigation: int = 4,
                 timing: TimingSet | None = None):
        # the shadow truth makes the strawman's escapes measurable
        super().__init__(timing or ddr5_base(), banks, rows, refresh_groups,
                         refs_per_mitigation)
        if entries < 1:
            raise ValueError("entries must be >= 1")
        self.entries = entries
        self.mitigation_threshold = mitigation_threshold
        self.tables: list[dict[int, int]] = [{} for _ in range(banks)]

    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        self.stats.activations += 1
        self.security.on_activate(bank, row)
        table = self.tables[bank]
        if row in table:
            table[row] += 1
        elif len(table) < self.entries:
            table[row] = 1
        else:
            # Misra-Gries decrement: all counters shrink by one.
            for key in list(table):
                table[key] -= 1
                if table[key] <= 0:
                    del table[key]
        return self._plain_decision

    def _mitigate_on_ref(self, bank: int, now: int) -> None:
        table = self.tables[bank]
        if not table:
            return
        row, count = max(table.items(), key=lambda item: item[1])
        if count >= self.mitigation_threshold:
            self._record_mitigation(bank, row, now)
            del table[row]

    def tracked_rows(self, bank: int) -> dict[int, int]:
        return dict(self.tables[bank])
