"""CnC-PRAC: coalescing per-row counter updates (related work, §9.2).

CnC-PRAC observes that PRAC's per-precharge read-modify-write is mostly
redundant: consecutive episodes often reopen the same few rows, so their
counter increments can be *coalesced* in a small per-bank buffer and
written back in one update. Episodes then run at baseline timings — the
counter write rides maintenance windows instead of inflating every
precharge — while the coalescing buffer keeps exact per-row accounting.

Semantics implemented here:

* every closed episode adds +1 to the row's entry in the bank's
  coalescing buffer (allocating one if needed);
* **flush-on-pressure** — an entry is written back to the PRAC counter
  array immediately when (1) its pending count reaches
  ``flush_threshold`` (bounding how stale the MOAT tracker can be), or
  (2) the buffer is full and a new row needs a slot (the largest
  pending entry is evicted, preserving the hottest-row signal);
* all remaining entries flush under REF and ABO-RFM shadows, where the
  batched write is architecturally free;
* periodic refresh *forgives* buffered increments of the refreshed rows
  (their activations are erased along with the committed counter), and
  a mitigation forgives the aggressor's pending increments — both
  mirror the exact-PRAC shadow semantics, which is what keeps the
  design bit-exact under the counter-conservation audit.

Because the tracker only sees flushed values, ALERT detection can lag a
row by at most ``flush_threshold - 1`` activations; the ALERT threshold
is derated by exactly that staleness bound, so the tolerated threshold
is unchanged (MOAT's argument applies to the derated ATH).
"""

from __future__ import annotations

from ..dram.timing import TimingSet, ddr5_base
from ..security.moat_model import moat_ath
from .base import EpisodeDecision
from .prac import PRACMoatPolicy

#: Default coalescing-buffer capacity per bank (entries).
DEFAULT_BUFFER_SIZE = 8

#: Default flush-on-pressure bound: pending increments per entry.
DEFAULT_FLUSH_THRESHOLD = 8


class CnCPRACPolicy(PRACMoatPolicy):
    """PRAC with a per-bank coalescing buffer for counter updates."""

    name = "cnc-prac"

    def __init__(self, trh: int, banks: int = 32, rows: int = 65536,
                 refresh_groups: int = 8192,
                 buffer_size: int = DEFAULT_BUFFER_SIZE,
                 flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
                 timing: TimingSet | None = None):
        super().__init__(trh, banks, rows, refresh_groups,
                         timing=timing or ddr5_base())
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        if flush_threshold < 1:
            raise ValueError("flush_threshold must be >= 1")
        self.buffer_size = buffer_size
        self.flush_threshold = flush_threshold
        # ALERT detection lags a hammered row by the entry's unflushed
        # pending count, so the threshold is derated by that staleness.
        self.ath = max(moat_ath(trh) - (flush_threshold - 1), 1)
        self.eth = max(self.ath // 2, 1)
        #: per-bank coalescing buffers: row -> pending increments
        self.buffers: list[dict[int, int]] = [{} for _ in range(banks)]
        self.coalesced_updates = 0
        self.buffer_evictions = 0

    # -- activation path --------------------------------------------------
    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        self.stats.activations += 1
        return self._plain_decision

    def on_precharge(self, bank: int, row: int, now: int,
                     counter_update: bool) -> None:
        # The shadow truth advances at the buffering site (not the ACT):
        # an RFM flush can interleave with an open episode, and pairing
        # the truth with the increment it accounts keeps every flushed
        # value bit-equal to the truth — the design's exactness claim.
        self.security.on_activate(bank, row)
        buffer = self.buffers[bank]
        pending = buffer.get(row)
        if pending is not None:
            buffer[row] = pending + 1
            self.coalesced_updates += 1
            if pending + 1 >= self.flush_threshold:
                self._flush_entry(bank, row)
            return
        if len(buffer) >= self.buffer_size:
            # pressure: evict the largest pending entry to make room
            victim = max(buffer, key=lambda r: (buffer[r], -r))
            self._flush_entry(bank, victim)
            self.buffer_evictions += 1
        buffer[row] = 1

    # -- flush machinery ---------------------------------------------------
    def _flush_entry(self, bank: int, row: int) -> None:
        """Write one buffered entry back to the PRAC counter array."""
        increment = self.buffers[bank].pop(row)
        value = self.state.update(bank, row, increment)
        self.security.on_counter_update(bank, row, value)
        self.stats.counter_updates += 1
        if value >= self.ath:
            self._alert = True

    def _flush_bank(self, bank: int) -> None:
        for row in sorted(self.buffers[bank]):
            self._flush_entry(bank, row)

    # -- maintenance path --------------------------------------------------
    def _refresh_bank(self, bank: int, start: int, stop: int,
                      now: int) -> None:
        # refreshed rows are forgiven: their buffered increments
        # vanish with the committed counter, exactly like the shadow
        buffer = self.buffers[bank]
        for row in [r for r in buffer if start <= r < stop]:
            del buffer[row]
        super()._refresh_bank(bank, start, stop, now)
        # the REF shadow pays for writing back everything else
        self._flush_bank(bank)

    def _serve_rfm(self, now: int) -> bool:
        """Flush every buffer, then MOAT-mitigate under the RFM."""
        for bank in range(self.state.banks):
            self._flush_bank(bank)
        return super()._serve_rfm(now)

    def _mitigate_tracked(self, bank: int, now: int) -> int:
        row = super()._mitigate_tracked(bank, now)
        # the victim refresh forgives the aggressor's not-yet-recorded
        # increments too
        self.buffers[bank].pop(row, None)
        return row

    # -- introspection -----------------------------------------------------
    def counter_value(self, bank: int, row: int) -> int:
        """Logical counter value: committed plus buffered increments."""
        return self.state.value(bank, row) + self.buffers[bank].get(row, 0)
