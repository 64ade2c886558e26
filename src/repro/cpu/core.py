"""ROB-window out-of-order core model (paper Table 3: 4 GHz, 4-wide,
256-entry ROB).

This is the standard limit-study approximation of an OoO core for DRAM
studies: the core dispatches instructions at full width (4 IPC) and issues
every LLC miss it encounters, overlapping as many misses as fit inside the
reorder-buffer window. Dispatch stalls only when the *next* instruction is
more than ``rob_entries`` instructions younger than the oldest incomplete
miss — the ROB cannot retire past a pending load.

The model preserves exactly the distinction the paper's results hinge on:

* bandwidth-bound streams (a miss every ~20 instructions) keep ~12 misses
  in flight and hide extra precharge latency, while
* latency-bound workloads (a miss every 100-500 instructions) have an MLP
  near 1 and feel every nanosecond PRAC adds to tRP.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from ..config import SystemConfig
from ..mc.request import MemRequest
from .trace import TraceItem

#: Accesses staged per ``next_block`` refill. Per-core RNG means pulling
#: ahead cannot change the stream; the only waste is up to one block of
#: draws past the instruction budget.
TRACE_BLOCK = 256


def item_blocks(items: Iterator[TraceItem]
                ) -> Callable[[int], list[tuple[int, int, bool]]]:
    """A ``next_block(n)`` over any :class:`TraceItem` iterator: the
    next ``n`` items as raw ``(gap, address, is_write)`` tuples, fewer
    at the end of a finite trace, and an empty block once it has
    ended."""
    def next_block(n: int) -> list[tuple[int, int, bool]]:
        return [(item.gap, item.address, item.is_write)
                for item in islice(items, n)]
    return next_block


@dataclass
class CoreStats:
    instructions: int = 0
    requests: int = 0
    finish_ps: int = 0

    def ipc(self, core_ghz: float) -> float:
        """Retired instructions per core cycle."""
        if self.finish_ps <= 0:
            return 0.0
        cycles = self.finish_ps * core_ghz / 1000.0
        return self.instructions / cycles


class Core:
    """One trace-driven core: dispatch cursor, trace and miss window.

    The :class:`~repro.sim.system.System` drives it (the dispatch,
    ROB-stall and completion rules live in ``System._drive_core`` and
    ``System._complete``); the core owns its trace, which it stages in
    blocks of raw ``(gap, address, is_write)`` tuples and hands out one
    access at a time with :meth:`pull`. A trace with a ``next_block(n)``
    method (:class:`~repro.workloads.synthetic.TraceGenerator`) draws
    the blocks itself; any other iterable of :class:`TraceItem` goes
    through :func:`item_blocks`.

    The miss window ``_order`` holds the core's unretired reads, as
    :class:`~repro.mc.request.MemRequest` objects, oldest first. A read
    leaves it lazily: the next time the core is driven, every read at
    the head whose return stamp lies before the driving event retires.
    The core gets a completion event only for the read it is stalled on
    (``_waiting_on``) and, once ``draining``, for every read still out.
    """

    def __init__(self, core_id: int, trace: Iterable[TraceItem],
                 config: SystemConfig, instruction_limit: int,
                 window: int | None = None):
        self.core_id = core_id
        #: ``n -> block``: the trace's next ``n`` accesses, an empty
        #: block once a finite trace has ended
        self._next_block = getattr(trace, "next_block", None) \
            or item_blocks(iter(trace))
        self.config = config
        self.instruction_limit = instruction_limit
        self.pspi = config.ps_per_instruction
        #: miss-overlap window in instructions: the ROB, widened by the
        #: workload's prefetch model (WorkloadSpec.mlp_boost)
        self.rob = window if window is not None else config.rob_entries

        self.inst_index = 0  # instructions dispatched so far
        self.dispatch_ps = 0.0  # time the dispatch cursor has reached
        #: unretired reads, oldest first
        self._order: collections.deque[MemRequest] = collections.deque()
        #: the staged access as a raw ``(gap, address, is_write)`` tuple
        self._next_item: tuple[int, int, bool] | None = None
        #: return time -> the first read stamped to return then. An
        #: entry for a time still ahead is a read not yet returned; a
        #: wake due at that time defers to it (see System._drive_core).
        self._returning: dict[int, MemRequest] = {}
        #: the read a ROB stall waits on
        self._waiting_on: MemRequest | None = None
        #: set once the core can issue nothing more (budget spent or
        #: trace exhausted) and only waits for its reads to return
        self.draining = False
        self._resume_floor = 0.0
        self._last_completion = 0.0
        #: set by the system once the core has nothing left to do
        self.done = False
        self._block: list[tuple[int, int, bool]] = []
        self._pos = 0
        self.stats = CoreStats()

    def pull(self) -> tuple[int, int, bool] | None:
        """Stage the next trace access in ``_next_item`` and return it;
        None once the trace has ended."""
        pos = self._pos
        block = self._block
        if pos >= len(block):
            block = self._block = self._next_block(TRACE_BLOCK)
            if not block:
                return None
            pos = 0
        item = self._next_item = block[pos]
        self._pos = pos + 1
        return item

    def stamp(self, request: MemRequest, ret: int, rseq: int) -> bool:
        """Stamp ``request``'s return at ``ret`` with sequence number
        ``rseq``; True when the core needs the completion event: it is
        stalled on this read or draining."""
        request.ret = ret
        request.rseq = rseq
        if ret > self._last_completion:
            self._last_completion = ret
        self._returning.setdefault(ret, request)
        return self._waiting_on is request or self.draining

    def finalize(self) -> CoreStats:
        budget_left = max(self.instruction_limit - self.inst_index, 0)
        self.stats.instructions = self.inst_index + budget_left
        self.stats.finish_ps = int(self._finish_time())
        return self.stats

    def _finish_time(self) -> float:
        """Retirement of the last instruction: the dispatch cursor plus the
        non-memory tail, but never before the last miss returns."""
        budget_left = max(self.instruction_limit - self.inst_index, 0)
        tail = budget_left * self.pspi
        return max(self.dispatch_ps + tail, self._last_completion)
