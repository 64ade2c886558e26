"""The simulator's event heap: time-ordered opcode tuples.

Every event is a ``(time_ps, seq, opcode, target, arg)`` tuple; the
sequence number breaks time ties in push order, so two runs that push
the same events pop them in the same order. Dispatch is an integer
switch on the opcode instead of a closure call per event.

:class:`~repro.sim.system.System` drives the heap with its own inlined
loop (it adds the core-side opcodes); :meth:`EventLoop.run` is the small
standalone loop that drives memory controllers alone — the scheduler
fuzzer, the Figure 4 latency bench and the controller unit tests.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

# Event opcodes, ordered roughly by frequency for the dispatch switch.
OP_SERVICE = 0   # (controller, bank_index)
OP_COMPLETE = 1  # (core, request_id)
OP_DRIVE = 2     # (core, 0)
OP_TIMEOUT = 3   # (controller, (bank_index, access_stamp))
OP_REF = 4       # (controller, 0)
OP_REFSB = 5     # (controller, 0)
OP_RFM = 6       # (controller, 0)

#: Event-time jumps at least this large (ps) count as fast-forwarded
#: idle time in the ``sim.fastforward_ps`` stat. The loop always jumps
#: straight to the next event — there is no tick — so the stat measures
#: *simulated* idle time crossed in one hop, not wall time.
FASTFORWARD_MIN_GAP_PS = 100_000


class EventLoop:
    """One simulation's event heap plus the request-return bookkeeping.

    ``owners`` maps the id of every read a core waits on to that core;
    a controller that finishes such a read pushes the core's completion
    event ``return_ps`` after the data burst. Requests nobody waits on
    (writebacks, a standalone controller's traffic) just complete.
    """

    def __init__(self, return_ps: int = 0):
        self.heap: list[tuple] = []
        self.seq = itertools.count()
        self.owners: dict = {}
        self.return_ps = return_ps
        #: simulated idle time crossed in jumps of at least
        #: FASTFORWARD_MIN_GAP_PS, by the loop or an inlined service chain
        self.fastforward_ps = 0

    def push(self, when: int, op: int, target, arg) -> None:
        heapq.heappush(self.heap, (int(when), next(self.seq), op, target,
                                   arg))

    def run(self, until: int | None = None,
            stop: Callable[[int], bool] | None = None,
            max_events: int | None = None) -> int:
        """Dispatch controller events in time order; returns how many ran.

        Stops when the heap is empty, when the next event lies past
        ``until``, when ``stop(next_event_time)`` is true, or once
        ``max_events`` events have run.
        """
        heap = self.heap
        count = 0
        while heap:
            time_ps = heap[0][0]
            if until is not None and time_ps > until:
                break
            if stop is not None and stop(time_ps):
                break
            if max_events is not None and count >= max_events:
                break
            _, _, op, controller, arg = heapq.heappop(heap)
            count += 1
            if op == OP_SERVICE:
                controller.service(arg, time_ps)
            else:
                controller.maintain(op, arg, time_ps)
        return count
