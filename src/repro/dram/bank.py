"""Per-bank DRAM state: event counters and timing readiness.

A bank is either *precharged* (idle) or has one *open row*. The memory
controller keeps the timing state of all banks of a sub-channel as
parallel per-bank lists (:class:`TimingSoA`) so its hot path reads
list slots by index and the maintenance events (REF / RFM) sweep every
bank in one loop. Legality is not re-checked here: the controller dates
every command at its earliest legal time, and
:mod:`repro.check`'s conformance oracle and fuzzer re-verify the JEDEC
rules from the traced command stream.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BankStats:
    activations: int = 0
    reads: int = 0
    writes: int = 0
    precharges: int = 0
    counter_update_precharges: int = 0
    #: column accesses to the open row, the first after an ACT among
    #: them: unlike the controller's ``mc.{sc}.row_hits``, which counts
    #: only requests that found their row already open
    row_hits: int = 0
    row_conflicts: int = 0


class TimingSoA:
    """Per-bank timing state as parallel lists (times in ps).

    * ``open_row`` — the open row, ``-1`` for a closed bank;
    * ``ready_act`` — earliest next ACT (tRP / tRC after the last PRE);
    * ``ready_col`` — earliest column command (tRCD after the ACT);
    * ``ready_pre`` — earliest PRE (tRAS after the ACT, read burst /
      write recovery after a column command);
    * ``last_act`` — time of the most recent ACT;
    * ``blocked_until`` — REF / RFM stall end.
    """

    def __init__(self, banks: int):
        self.n = banks
        self.open_row = [-1] * banks
        self.ready_act = [0] * banks
        self.ready_col = [0] * banks
        self.ready_pre = [0] * banks
        self.last_act = [-(10 ** 18)] * banks
        self.blocked_until = [0] * banks

    def block_all(self, until: int) -> None:
        """``blocked_until[i] = max(blocked_until[i], until)`` for all banks
        (the REF / RFM mass block)."""
        blocked = self.blocked_until
        for i in range(self.n):
            if blocked[i] < until:
                blocked[i] = until

    def earliest_precharge(self, index: int) -> int:
        ready_pre = self.ready_pre[index]
        blocked = self.blocked_until[index]
        return ready_pre if ready_pre >= blocked else blocked

    def close_bound(self, now: int) -> int:
        """Latest earliest-precharge over all *open* banks, floored at now.

        The refresh/ALERT collision check needs the last instant a
        refresh's forced closes could be dated.
        """
        bound = now
        open_row = self.open_row
        ready_pre = self.ready_pre
        blocked = self.blocked_until
        for i in range(self.n):
            if open_row[i] >= 0:
                rp, bu = ready_pre[i], blocked[i]
                ep = rp if rp >= bu else bu
                if ep > bound:
                    bound = ep
        return bound
