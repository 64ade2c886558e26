"""PRACtical: subarray-level counter update, bank-level recovery (§9.2).

PRACtical attacks PRAC's two throughput sinks independently:

* **Subarray-level counter update.** The per-row counter read-modify-write
  only serialises against the *subarray* holding the row, not the whole
  bank. When consecutive episodes in a bank land in different subarrays the
  previous episode's counter write overlaps the next activation, so the
  episode runs at baseline timings; only a same-subarray back-to-back pair
  pays the full PRAC tRC. Counting stays exact — every precharge still
  adds +1 — the knob is purely *when the write is on the critical path*.

* **Bank-level recovery isolation.** On ABO the DRAM only needs the RFM to
  cover the bank(s) whose counters crossed ATH; activations to the other
  banks may proceed during the recovery window. The policy exposes
  ``recovery_scope = "bank"`` plus :meth:`alert_banks`, and the memory
  controller / attack harness stall exactly those banks while the rest of
  the sub-channel keeps issuing.

The tracker is per-(bank, subarray): each subarray remembers its hottest
counter value since its last mitigation, an RFM mitigates every eligible
subarray of the recovery banks, and ALERT fires when any subarray tracker
reaches ATH. MOAT's security argument is unchanged — the per-subarray
tracker dominates the per-bank one (it can only mitigate *more* rows per
RFM), and counting is exact — so the Table 2 thresholds apply as-is.
"""

from __future__ import annotations

from ..dram.timing import MoPACTimings, TimingSet
from ..security.moat_model import moat_ath, moat_eth
from .base import EpisodeDecision, MitigationPolicy
from .prac_state import BLAST_RADIUS, MoatTracker, RefreshSchedule, zeros
from .security import SecurityTelemetry

#: Default subarrays per bank (real parts have 32-128; the scaled-down
#: geometries used in tests keep the ratio rows/subarray meaningful).
DEFAULT_SUBARRAYS = 8


class SubarrayState:
    """Per-bank PRAC counters with one MOAT tracker per subarray."""

    def __init__(self, banks: int, rows: int, subarrays: int):
        if banks <= 0 or rows <= 0:
            raise ValueError("banks and rows must be positive")
        if not 0 < subarrays <= rows:
            raise ValueError("subarrays must be in (0, rows]")
        self.banks = banks
        self.rows = rows
        self.subarrays = subarrays
        self.counters = [zeros(rows) for _ in range(banks)]
        self.trackers = [[MoatTracker() for _ in range(subarrays)]
                         for _ in range(banks)]

    def subarray_of(self, row: int) -> int:
        """Contiguous row blocks: subarray k holds rows [k*R/S, (k+1)*R/S)."""
        return row * self.subarrays // self.rows

    def update(self, bank: int, row: int, increment: int) -> int:
        counters = self.counters[bank]
        value = counters[row] + increment
        counters[row] = value
        self.trackers[bank][self.subarray_of(row)].observe(row, value)
        return value

    def value(self, bank: int, row: int) -> int:
        return self.counters[bank][row]

    def max_tracked(self, bank: int) -> int:
        """Hottest tracked value across the bank's subarrays."""
        return max(t.value for t in self.trackers[bank])

    def mitigate_subarray(self, bank: int, subarray: int) -> int | None:
        """Mitigate the subarray's tracked row (PRACCounters semantics).

        The aggressor's counter resets and each blast-radius victim gains
        +1 (the victim refresh activates it); victims near a subarray edge
        are observed into *their own* subarray's tracker.
        """
        tracker = self.trackers[bank][subarray]
        if not tracker.valid:
            return None
        row = tracker.row
        counters = self.counters[bank]
        counters[row] = 0
        tracker.invalidate()
        for offset in range(1, BLAST_RADIUS + 1):
            for victim in (row - offset, row + offset):
                if 0 <= victim < self.rows:
                    counters[victim] += 1
                    self.trackers[bank][self.subarray_of(victim)].observe(
                        victim, counters[victim])
        return row

    def refresh_rows(self, bank: int, start: int, stop: int) -> None:
        self.counters[bank][start:stop] = zeros(stop - start)
        for tracker in self.trackers[bank]:
            if tracker.valid and start <= tracker.row < stop:
                tracker.invalidate()


class PRACticalPolicy(MitigationPolicy):
    """Exact PRAC with subarray-overlapped updates and bank-scoped ABO."""

    name = "practical"

    #: The harness/MC stall only :meth:`alert_banks` during recovery.
    recovery_scope = "bank"

    def __init__(self, trh: int, banks: int = 32, rows: int = 65536,
                 refresh_groups: int = 8192,
                 subarrays: int = DEFAULT_SUBARRAYS,
                 timings: MoPACTimings | None = None):
        self.timings = timings or MoPACTimings.default()
        super().__init__(self.timings.normal)
        if trh <= 0:
            raise ValueError("trh must be positive")
        self.trh = trh
        self.ath = moat_ath(trh)
        self.eth = moat_eth(trh)
        self.state = SubarrayState(banks, rows, min(subarrays, rows))
        self.refresh_schedules = [RefreshSchedule(rows, refresh_groups)
                                  for _ in range(banks)]
        self.security = SecurityTelemetry(banks, rows)
        #: last-activated subarray per bank; -1 = counter write retired
        self._busy_subarray = [-1] * banks
        self._alert_banks: set[int] = set()
        self._alert = False
        self._acts_since_rfm = 1
        self.overlapped_updates = 0
        # the cu flag encodes which timing set the episode ran at (the
        # oracle's contract); counting itself is unconditional — see
        # on_precharge
        normal, cu = self.timings.normal, self.timings.counter_update
        self._plain_decision = EpisodeDecision(normal, normal, False)
        self._cu_decision = EpisodeDecision(cu, cu, True)

    # -- activation path --------------------------------------------------
    def on_activate(self, bank: int, row: int, now: int) -> EpisodeDecision:
        self.stats.activations += 1
        self._acts_since_rfm += 1
        self.security.on_activate(bank, row)
        subarray = self.state.subarray_of(row)
        previous = self._busy_subarray[bank]
        self._busy_subarray[bank] = subarray
        if previous == subarray:
            # same-subarray back-to-back: the pending counter write is on
            # the critical path, so this episode pays the PRAC timings
            return self._cu_decision
        self.overlapped_updates += 1
        return self._plain_decision

    def timing_pair(self) -> tuple[TimingSet, TimingSet]:
        return self.timings.normal, self.timings.counter_update

    def on_precharge(self, bank: int, row: int, now: int,
                     counter_update: bool) -> None:
        # counting is exact regardless of which timing set the episode
        # used — the decision flag only encodes critical-path placement
        self.stats.counter_updates += 1
        value = self.state.update(bank, row, 1)
        self.security.on_counter_update(bank, row, value)
        if value >= self.ath:
            self._alert = True
            self._alert_banks.add(bank)

    # -- maintenance path --------------------------------------------------
    def on_refresh(self, now: int, bank: int | None = None) -> None:
        banks = (range(self.state.banks) if bank is None else (bank,))
        for index in banks:
            start, stop = self.refresh_schedules[index].advance()
            self.state.refresh_rows(index, start, stop)
            self.security.on_refresh_range(index, start, stop)
            # REF closes the bank; the pending write retires under it
            self._busy_subarray[index] = -1

    def alert_requested(self) -> bool:
        return self._alert and self._acts_since_rfm > 0

    def alert_banks(self) -> tuple[int, ...]:
        """Banks the pending ALERT needs recovery on (sorted)."""
        return tuple(sorted(self._alert_banks))

    def on_rfm(self, now: int) -> None:
        """Mitigate every eligible subarray of the recovery banks only."""
        self.stats.alerts += 1
        self.stats.alerts_mitigation += 1
        if self._acts_since_rfm > 0:  # first RFM of this ALERT episode
            self.security.on_rfm(self.stats.activations)
        for bank in sorted(self._alert_banks):
            for subarray in range(self.state.subarrays):
                tracker = self.state.trackers[bank][subarray]
                if tracker.valid and tracker.value >= self.eth:
                    row = self.state.mitigate_subarray(bank, subarray)
                    if row is not None:
                        self._record_mitigation(bank, row, now)
            self._busy_subarray[bank] = -1
        self._alert_banks.clear()
        self._alert = False
        self._acts_since_rfm = 0
        for bank in range(self.state.banks):
            if self.state.max_tracked(bank) >= self.ath:
                self._alert = True
                self._alert_banks.add(bank)

    # -- introspection -----------------------------------------------------
    def counter_value(self, bank: int, row: int) -> int:
        return self.state.value(bank, row)
