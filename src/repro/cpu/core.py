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
from typing import Iterator

from ..config import SystemConfig
from .trace import TraceItem

#: Accesses pulled per ``TraceGenerator.next_block`` refill. Per-core RNG
#: means pulling ahead cannot change the stream; the only waste is up to
#: one block of draws past the instruction budget.
TRACE_BLOCK = 256


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
    ``System._complete``); the core owns its trace, which it stages one
    access at a time with :meth:`pull`.
    """

    def __init__(self, core_id: int, trace: Iterator[TraceItem],
                 config: SystemConfig, instruction_limit: int,
                 window: int | None = None):
        self.core_id = core_id
        self.trace = iter(trace)
        self.config = config
        self.instruction_limit = instruction_limit
        self.pspi = config.ps_per_instruction
        #: miss-overlap window in instructions: the ROB, widened by the
        #: workload's prefetch model (WorkloadSpec.mlp_boost)
        self.rob = window if window is not None else config.rob_entries

        self.inst_index = 0  # instructions dispatched so far
        self.dispatch_ps = 0.0  # time the dispatch cursor has reached
        #: outstanding misses: request_id -> instruction index
        self.outstanding: dict[int, int] = {}
        self._order: collections.deque[tuple[int, int]] = collections.deque()
        #: the staged access as a raw ``(gap, address, is_write)`` tuple
        self._next_item: tuple[int, int, bool] | None = None
        self._exhausted = False
        self._waiting_on: int | None = None
        self._resume_floor = 0.0
        self._last_completion = 0.0
        #: set by the system once the core has nothing left to do
        self.done = False
        #: a block source (``next_block(n)``) for the trace, set by the
        #: system for synthetic traces; otherwise items are pulled one
        #: by one from the iterator
        self._gen = None
        self._block: list[tuple[int, int, bool]] = []
        self._pos = 0
        self.stats = CoreStats()

    def pull(self) -> tuple[int, int, bool] | None:
        """Stage the next trace access in ``_next_item`` and return it;
        None once the trace is exhausted."""
        gen = self._gen
        if gen is not None:
            pos = self._pos
            block = self._block
            if pos >= len(block):
                block = self._block = gen.next_block(TRACE_BLOCK)
                pos = 0
            item = self._next_item = block[pos]
            self._pos = pos + 1
            return item
        if self._exhausted:
            return None
        try:
            nxt = next(self.trace)
        except StopIteration:
            self._exhausted = True
            return None
        item = self._next_item = (nxt.gap, nxt.address, nxt.is_write)
        return item

    def track(self, request_id: int) -> None:
        """Hold a read in the miss window until it completes."""
        self.outstanding[request_id] = self.inst_index
        self._order.append((request_id, self.inst_index))

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
