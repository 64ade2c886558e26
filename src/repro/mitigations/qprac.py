"""QPRAC-style priority-queue PRAC service (paper Section 9.1).

QPRAC [Woo+, HPCA'25] keeps PRAC's per-row counters and deterministic
updates but services mitigations *proactively*: each bank maintains a
small priority queue of hot rows (enqueued when their counter crosses an
eligibility threshold at precharge time) and mitigates the hottest entry
during every REF, reserving ABO as a rarely-used backstop for rows that
still manage to reach the ALERT threshold.

This is a simplified reconstruction (the HPCA paper has additional
service opportunities); it exists as the second secure PRAC servicing
discipline next to MOAT, to compare ABO rates —
``benchmarks/bench_ablation_qprac.py``.

Like PRAC+MOAT it pays the full inflated PRAC timings, so its benign
slowdown matches PRAC's; the interesting difference is *when* mitigations
are served.
"""

from __future__ import annotations

import heapq

from ..dram.timing import TimingSet
from .prac import PRACMoatPolicy

#: Default per-bank priority-queue capacity.
DEFAULT_QUEUE_SIZE = 8


class QPRACPolicy(PRACMoatPolicy):
    """PRAC with proactive priority-queue mitigation service."""

    name = "qprac"

    #: queued rows each REF may mitigate per bank
    mitigations_per_ref = 1
    #: an idle REF slot mitigates the MOAT-tracked row anyway
    opportunistic = False

    def __init__(self, trh: int, banks: int = 32, rows: int = 65536,
                 refresh_groups: int = 8192,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 timing: TimingSet | None = None):
        super().__init__(trh, banks, rows, refresh_groups, timing=timing)
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        # self.eth is the enqueue threshold
        self.queue_size = queue_size
        # per-bank max-heaps of (-value, row); membership via sets
        self._heaps: list[list[tuple[int, int]]] = [[] for _ in range(banks)]
        self._queued: list[set[int]] = [set() for _ in range(banks)]
        self.proactive_mitigations = 0
        self.opportunistic_mitigations = 0

    # ------------------------------------------------------------------
    def on_precharge(self, bank: int, row: int, now: int,
                     counter_update: bool) -> None:
        if not counter_update:
            return
        self.stats.counter_updates += 1
        value = self.state.update(bank, row, 1)
        self.security.on_counter_update(bank, row, value)
        if value >= self.eth:
            self._enqueue(bank, row, value)
        if value >= self.ath:
            self._alert = True

    def _enqueue(self, bank: int, row: int, value: int) -> None:
        if row in self._queued[bank]:
            return  # stale heap entries are refreshed lazily at pop time
        if len(self._queued[bank]) >= self.queue_size:
            return  # full queue: the row keeps counting toward ATH
        heapq.heappush(self._heaps[bank], (-value, row))
        self._queued[bank].add(row)

    # ------------------------------------------------------------------
    def _refresh_bank(self, bank: int, start: int, stop: int,
                      now: int) -> None:
        super()._refresh_bank(bank, start, stop, now)
        served = 0
        while (served < self.mitigations_per_ref
               and self._service_queue(bank, now)):
            served += 1
            self.proactive_mitigations += 1
        if served == 0 and self.opportunistic:
            tracker = self.state.trackers[bank]
            if tracker.valid and tracker.value > 0:
                self._mitigate_tracked(bank, now)
                self.opportunistic_mitigations += 1

    def _service_queue(self, bank: int, now: int) -> bool:
        """Mitigate the hottest queued row of ``bank``; True if served."""
        heap = self._heaps[bank]
        while heap:
            _, row = heapq.heappop(heap)
            if row not in self._queued[bank]:
                continue  # stale
            self._queued[bank].discard(row)
            value = self.state.value(bank, row)
            if value <= 0:
                continue  # refreshed in the meantime
            # reuse the counter machinery: point the tracker at the row
            tracker = self.state.trackers[bank]
            tracker.row = row
            tracker.value = value
            self._mitigate_tracked(bank, now)
            return True
        return False

    def _mitigate_tracked(self, bank: int, now: int) -> int:
        row = super()._mitigate_tracked(bank, now)
        self._queued[bank].discard(row)
        return row

    # ------------------------------------------------------------------
    def queue_occupancy(self, bank: int) -> int:
        return len(self._queued[bank])


#: Default proactive service budget per REF (the HPCA paper's QPRAC-2).
DEFAULT_MITIGATIONS_PER_REF = 2


class QPRACProactivePolicy(QPRACPolicy):
    """QPRAC with the paper's full proactive-service discipline.

    Two additions over the baseline queue service:

    * **multiple mitigations per REF** — each REF shadow is long enough to
      serve up to ``mitigations_per_ref`` queued rows per bank (QPRAC-k in
      the HPCA paper), draining bursts before they approach ATH;
    * **opportunistic service** — when a bank's queue is empty at REF time
      the bank mitigates its MOAT-tracked hottest row anyway (even below
      ETH), so the service slot is never wasted and steady-state counters
      stay far from the ALERT threshold.

    Together these make the ABO backstop essentially unreachable for
    benign workloads while keeping counting exact (+1 per precharge).
    """

    name = "qprac-proactive"

    def __init__(self, trh: int, banks: int = 32, rows: int = 65536,
                 refresh_groups: int = 8192,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 mitigations_per_ref: int = DEFAULT_MITIGATIONS_PER_REF,
                 opportunistic: bool = True,
                 timing: TimingSet | None = None):
        super().__init__(trh, banks, rows, refresh_groups,
                         queue_size=queue_size, timing=timing)
        if mitigations_per_ref < 1:
            raise ValueError("mitigations_per_ref must be >= 1")
        self.mitigations_per_ref = mitigations_per_ref
        self.opportunistic = opportunistic
