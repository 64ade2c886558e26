"""Shared PRAC state: per-row counters and the MOAT tracker.

PRAC (Per-Row Activation Counting) stores one activation counter per DRAM
row, physically inlined with the row. MOAT [Qureshi & Qazi] is the provably
secure single-entry tracker built on top: each bank remembers only the row
with the *highest counter value observed since the bank's last mitigation*;
when that value reaches the ALERT threshold the DRAM asserts ALERT, and
under the resulting RFM every bank mitigates its tracked row if the value
is at least the Eligibility Threshold (ETH = ATH / 2).

All MoPAC variants reuse this machinery — they differ only in *when* and
*by how much* the counters are updated.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

#: Victim rows refreshed around a mitigated aggressor (blast radius 2).
BLAST_RADIUS = 2

_ZERO = array("q", [0])


def zeros(n: int) -> array:
    """``n`` zeroed int64 counters (none when ``n`` <= 0).

    Indexing reads and writes plain Python ints. An ``array`` rather
    than a list because the simulator builds these for every bank of
    every point: a list's slots would each be set, freed and traversed
    by the cyclic GC (about 4.5 ms per point at 32 banks x 4,096 rows).
    docs/performance.md weighs this against the attack harness's speed.
    """
    return _ZERO * n


@dataclass
class MoatTracker:
    """Single-entry per-bank tracker: (row, counter value)."""

    row: int = -1
    value: int = 0

    def observe(self, row: int, value: int) -> None:
        """Track the row if its counter exceeds the current maximum."""
        if value > self.value or self.row < 0:
            self.row = row
            self.value = value

    def invalidate(self) -> None:
        self.row = -1
        self.value = 0

    @property
    def valid(self) -> bool:
        return self.row >= 0


class _SubarrayRouter:
    """A bank's per-subarray trackers behind one ``observe``: each row's
    value goes to its own subarray's tracker."""

    __slots__ = ("trackers", "subarray_of")

    def __init__(self, trackers: list[MoatTracker], subarray_of) -> None:
        self.trackers = trackers
        self.subarray_of = subarray_of

    def observe(self, row: int, value: int) -> None:
        self.trackers[self.subarray_of(row)].observe(row, value)


class PRACCounters:
    """Per-bank PRAC counter arrays with MOAT trackers.

    One instance models one DRAM chip's view of a sub-channel: ``banks``
    counter arrays of ``rows`` entries each. A bank's rows form
    ``subarrays`` contiguous blocks, each with its own
    :class:`MoatTracker` (PRACtical tracks per subarray; every other
    design has one subarray, so one tracker per bank). Counter updates
    feed the row's tracker; refreshes clear counters.
    """

    def __init__(self, banks: int, rows: int, subarrays: int = 1):
        if banks <= 0 or rows <= 0:
            raise ValueError("banks and rows must be positive")
        if not 0 < subarrays <= rows:
            raise ValueError("subarrays must be in (0, rows]")
        self.banks = banks
        self.rows = rows
        self.subarrays = subarrays
        self.counters = [zeros(rows) for _ in range(banks)]
        #: ``subarray_trackers[bank][k]`` tracks subarray k of ``bank``
        self.subarray_trackers = [[MoatTracker() for _ in range(subarrays)]
                                  for _ in range(banks)]
        #: per bank, what its updates feed: with one subarray the bank's
        #: tracker itself, so :meth:`update` looks up no subarray
        self.trackers = [
            own[0] if subarrays == 1
            else _SubarrayRouter(own, self.subarray_of)
            for own in self.subarray_trackers]

    def subarray_of(self, row: int) -> int:
        """Contiguous row blocks: subarray k holds rows [k*R/S, (k+1)*R/S)."""
        return row * self.subarrays // self.rows

    def update(self, bank: int, row: int, increment: int) -> int:
        """Apply a counter update and inform the MOAT tracker.

        Returns the new counter value.
        """
        counters = self.counters[bank]
        value = counters[row] + increment
        counters[row] = value
        self.trackers[bank].observe(row, value)
        return value

    def value(self, bank: int, row: int) -> int:
        return self.counters[bank][row]

    def tracker(self, bank: int) -> MoatTracker:
        return self.trackers[bank]

    def mitigate(self, bank: int, subarray: int = 0) -> int | None:
        """Mitigate the tracked row of ``bank``'s ``subarray``.

        Performs the victim refresh bookkeeping: the aggressor's counter is
        reset (its victims are now fresh) and each victim row's counter is
        incremented by one, because a victim refresh activates the victim
        (paper footnote 5); a victim feeds its own subarray's tracker.
        Returns the mitigated row, or None if the tracker was empty.
        """
        tracker = self.subarray_trackers[bank][subarray]
        if not tracker.valid:
            return None
        row = tracker.row
        counters = self.counters[bank]
        counters[row] = 0
        tracker.invalidate()
        observe = self.trackers[bank].observe
        for offset in range(1, BLAST_RADIUS + 1):
            for victim in (row - offset, row + offset):
                if 0 <= victim < self.rows:
                    counters[victim] += 1
                    observe(victim, counters[victim])
        return row

    def refresh_rows(self, bank: int, start: int, stop: int) -> None:
        """Periodic refresh of rows [start, stop): counters reset.

        A tracker whose row falls in the refreshed range is invalidated
        (its counter is now zero).
        """
        self.counters[bank][start:stop] = zeros(stop - start)
        for tracker in self.subarray_trackers[bank]:
            if tracker.valid and start <= tracker.row < stop:
                tracker.invalidate()


class PRACShadow:
    """Exact-PRAC true activation counts, kept apart from any policy.

    +1 per activation, aggressor reset plus blast-radius victim
    increments per mitigation (paper footnote 5), row ranges cleared by
    refresh; ``peak`` keeps the highest count each bank's rows ever
    reached, raised as counts rise so that reading it scans no rows.
    Two feeders each own an instance: the differential harness's
    :class:`~repro.check.differential.CounterConservationAuditor` (fed
    from the harness's observer stream, with its own refresh schedule)
    and every policy's
    :class:`~repro.mitigations.security.SecurityTelemetry` (fed by the
    policy from the sites where it mutates its own counters).
    """

    __slots__ = ("banks", "rows", "counts", "peak")

    def __init__(self, banks: int, rows: int):
        if banks <= 0 or rows <= 0:
            raise ValueError("banks and rows must be positive")
        self.banks = banks
        self.rows = rows
        self.counts = [zeros(rows) for _ in range(banks)]
        self.peak = [0] * banks

    def on_activate(self, bank: int, row: int) -> None:
        """One true activation of (bank, row)."""
        counts = self.counts[bank]
        value = counts[row] + 1
        counts[row] = value
        if value > self.peak[bank]:
            self.peak[bank] = value

    def on_mitigation(self, bank: int, row: int) -> None:
        """Victim refresh of ``row``: truth resets, neighbours +1."""
        counts = self.counts[bank]
        counts[row] = 0
        for offset in range(1, BLAST_RADIUS + 1):
            for victim in (row - offset, row + offset):
                if 0 <= victim < self.rows:
                    value = counts[victim] + 1
                    counts[victim] = value
                    if value > self.peak[bank]:
                        self.peak[bank] = value

    def on_refresh_range(self, bank: int, start: int, stop: int) -> None:
        """Periodic refresh cleared rows [start, stop) of ``bank``."""
        self.counts[bank][start:stop] = zeros(stop - start)

    def true_count(self, bank: int, row: int) -> int:
        return self.counts[bank][row]

    def max_disturbance(self, bank: int) -> int:
        """Highest true count any row of ``bank`` ever reached."""
        return self.peak[bank]


@dataclass
class RefreshSchedule:
    """Round-robin group refresh: REF k refreshes group k mod groups.

    The paper divides memory into 8192 groups refreshed once per tREFW.
    Scaled-down geometries use fewer groups so that every row is still
    refreshed exactly once per (scaled) refresh window.
    """

    rows: int
    groups: int = 8192
    next_group: int = 0
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError("rows must be positive")
        self.groups = max(1, min(self.groups, self.rows))

    @property
    def rows_per_group(self) -> int:
        return (self.rows + self.groups - 1) // self.groups

    def advance(self) -> tuple[int, int]:
        """Return the [start, stop) row range refreshed by the next REF."""
        start = self.next_group * self.rows_per_group
        stop = min(start + self.rows_per_group, self.rows)
        self.next_group += 1
        if self.next_group >= self.groups:
            self.next_group = 0
            self.rounds += 1
        return start, stop
