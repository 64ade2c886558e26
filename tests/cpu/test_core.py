"""ROB-window core model: dispatch pacing, MLP limits, finish times.

The dispatch, ROB-stall and completion rules live in
:class:`~repro.sim.system.System`; these tests drive one core through
them and observe the requests it puts in the controllers' queues.

A read retires lazily: ``System._drive_core(core, now, seq)`` first
retires every read at the head of the miss window whose return stamp
``(ret, rseq)`` is at or before the driving event ``(now, seq)``. The
tests stamp reads by hand where no controller has serviced them.
"""

import heapq

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.cpu.core import Core
from repro.cpu.trace import TraceItem, format_trace_item, read_trace
from repro.dram.timing import ddr5_base
from repro.mc.events import FASTFORWARD_MIN_GAP_PS, OP_COMPLETE
from repro.mc.request import MemRequest
from repro.mitigations.prac import BaselinePolicy
from repro.obs.tracer import EventTracer
from repro.sim import system as system_module
from repro.sim.system import System

NEVER = 10 ** 15


def make_system(items, limit=10**9, window=None, use_llc=False,
                tracer=None):
    dram = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                      rows_per_bank=256,
                      timing=ddr5_base().scaled_refresh(1 / 256))
    config = SystemConfig(dram=dram, cores=1)
    system = System(config, lambda i: BaselinePolicy(dram.timing),
                    [iter(items)], limit,
                    windows=None if window is None else [window],
                    use_llc=use_llc, tracer=tracer)
    return system, system.cores[0]


def drive(system, core, now, seq=-1):
    """Drive ``core`` as the event ``(now, seq)`` would; the default
    seq sorts before every stamp."""
    return system._drive_core(core, now, seq)


def stamp(system, request, ret):
    """Stamp ``request`` as the controller does at its column command."""
    request.ret = ret
    request.rseq = next(system.events.seq)


def complete(system, core, request):
    """Pop ``request``'s completion event."""
    return system._complete(core, request, request.ret, request.rseq)


@pytest.fixture
def pops(monkeypatch):
    """Every event the system loop pops, in order."""
    popped = []

    class Recording:
        heappush = staticmethod(heapq.heappush)

        @staticmethod
        def heappop(heap):
            popped.append(heapq.heappop(heap))
            return popped[-1]

    monkeypatch.setattr(system_module, "heapq", Recording)
    return popped


@pytest.fixture
def born(monkeypatch):
    """Every request the system creates."""
    created = []

    class Recording(MemRequest):
        def __init__(self, *args):
            super().__init__(*args)
            created.append(self)

    monkeypatch.setattr(system_module, "MemRequest", Recording)
    return created


def queued(system):
    """Requests waiting in the controllers, oldest first."""
    return sorted((r for mc in system.controllers for q in mc.queues
                   for r in q), key=lambda r: r.request_id)


def issue_times(system):
    return [r.arrival_ps - system.config.llc_hit_ps for r in queued(system)]


class TestDispatchPacing:
    def test_first_issue_time(self):
        system, core = make_system([TraceItem(40, 0)])
        drive(system, core, NEVER)
        # 40 instructions at 4-wide 4 GHz = 2.5 ns
        assert issue_times(system) == [int(40 * 62.5)]

    def test_back_to_back_gap_zero(self):
        system, core = make_system([TraceItem(0, 0), TraceItem(0, 64)])
        drive(system, core, NEVER)
        first, second = issue_times(system)
        assert second == first

    def test_future_issue_waits_for_its_time(self):
        system, core = make_system([TraceItem(0, 0), TraceItem(4, 64)])
        drive(system, core, 0)
        assert issue_times(system) == [0]  # the second is not due yet
        drive(system, core, 1000)
        assert issue_times(system) == [0, int(4 * 62.5)]

    def test_cursor_advances_with_issue_time(self):
        # an access issued late (the core was driven late) moves the
        # dispatch cursor, and the next gap counts from there
        system, core = make_system([TraceItem(0, 0), TraceItem(4, 64)])
        core.dispatch_ps = 1000.0
        drive(system, core, NEVER)
        assert issue_times(system) == [1000, int(1000 + 4 * 62.5)]


class TestROBBlocking:
    def items(self):
        # gap 15 -> one miss per 16 instructions; window 64 -> 4 misses
        return [TraceItem(15, i * 64 * 4096) for i in range(20)]

    def test_window_limits_outstanding(self):
        system, core = make_system(self.items(), window=64)
        assert not drive(system, core, NEVER)
        requests = queued(system)
        assert len(requests) == 4
        assert list(core._order) == requests  # 4 unretired reads
        # blocked on the oldest miss
        assert core._waiting_on is requests[0]

    def test_completion_unblocks(self):
        system, core = make_system(self.items(), window=64)
        drive(system, core, NEVER)
        oldest = queued(system)[0]
        stamp(system, oldest, 50_000)
        complete(system, core, oldest)
        fifth = queued(system)[-1]
        assert len(queued(system)) == 5
        assert fifth.arrival_ps - system.config.llc_hit_ps >= 50_000

    def test_out_of_order_completion_keeps_blocking(self):
        system, core = make_system(self.items(), window=64)
        drive(system, core, NEVER)
        requests = queued(system)
        # a younger miss returns first: it stays behind the head
        stamp(system, requests[2], 10_000)
        assert not drive(system, core, 10_000, requests[2].rseq)
        assert len(queued(system)) == 4
        assert len(core._order) == 4
        assert core._waiting_on is requests[0]

    @pytest.mark.parametrize("offset, retires", [(1, True), (-1, False)])
    def test_same_time_stamp_retires_by_seq(self, offset, retires):
        # at the head's return time, the head retires before the ROB
        # check only if its stamp precedes the driving event
        system, core = make_system(self.items(), window=64)
        drive(system, core, NEVER)
        requests = queued(system)
        stamp(system, requests[0], 50_000)
        drive(system, core, 50_000, requests[0].rseq + offset)
        if retires:
            assert len(queued(system)) == 5
            assert core._waiting_on is requests[1]
        else:
            assert len(queued(system)) == 4
            assert core._waiting_on is requests[0]

    def test_writes_never_block_retirement(self):
        items = [TraceItem(15, i * 64 * 4096, is_write=True)
                 for i in range(20)]
        system, core = make_system(items, window=64)
        assert drive(system, core, NEVER)  # done: nothing to wait on
        assert len(queued(system)) == 20
        assert not core._order


class TestFinish:
    def test_finish_includes_tail_instructions(self):
        system, core = make_system([TraceItem(0, 0, is_write=True)],
                                   limit=1000)
        result = system.run()
        # 999 remaining instructions at 62.5 ps each
        assert result.stats["core.0.finish_ps"] == \
            pytest.approx(999 * 62.5, rel=0.01)

    def test_finish_waits_for_last_completion(self):
        system, core = make_system([TraceItem(0, 0)], limit=10)
        result = system.run()
        stats = system.controllers[0].stats
        assert stats.read_serviced == 1
        # the read's data returns after arrival + its DRAM latency
        assert result.stats["core.0.finish_ps"] \
            >= stats.read_latency_ps + 2 * system.config.llc_hit_ps

    def test_done_requires_no_outstanding(self):
        system, core = make_system([TraceItem(0, 0)], limit=1)
        assert not drive(system, core, NEVER)  # the read is out
        assert core.draining
        request = queued(system)[0]
        stamp(system, request, 100)
        assert complete(system, core, request)

    def test_finalize_reports_full_budget(self):
        system, core = make_system([TraceItem(0, 0)], limit=500)
        result = system.run()
        assert result.stats["core.0.instructions"] == 500

    # the core stages its trace in blocks of TRACE_BLOCK (256) accesses:
    # lengths on both sides of one and two block boundaries
    @pytest.mark.parametrize("length", [1, 255, 256, 257, 513])
    @pytest.mark.parametrize("source", ["list", "read_trace"])
    def test_exhausted_trace_finishes(self, length, source):
        items = [TraceItem(3, i * 64, is_write=True) for i in range(length)]
        if source == "read_trace":
            items = read_trace(format_trace_item(item) for item in items)
        system, core = make_system(items, limit=10**6)
        assert drive(system, core, NEVER)
        assert core.stats.requests == length
        assert core.pull() is None


class TestIPC:
    def test_ipc_computation(self):
        core = Core(0, iter([]), SystemConfig(), 0)
        stats = core.finalize()
        stats.instructions = 4000
        stats.finish_ps = 1000 * 1000  # 1 us at 4 GHz = 4000 cycles
        assert stats.ipc(4.0) == pytest.approx(1.0)

    def test_zero_time_ipc(self):
        core = Core(0, iter([]), SystemConfig(), 0)
        stats = core.finalize()
        assert stats.ipc(4.0) == 0.0


class TestBudget:
    def test_trace_cut_at_instruction_limit(self):
        items = [TraceItem(99, i * 64) for i in range(100)]
        system, core = make_system(items, limit=250)  # room for 2 only
        drive(system, core, NEVER)
        assert len(queued(system)) == 2
        assert core.stats.requests == 2


def spaced_reads(count, gap=4000):
    """Reads ``gap`` instructions apart (250 ns at 4 GHz, 4-wide: each
    returns before the next issues), then a closing write."""
    return [TraceItem(gap, i * 64 * 4096) for i in range(count)] \
        + [TraceItem(gap, count * 64 * 4096, is_write=True)]


class TestCompletionEvents:
    def test_reads_of_an_unstalled_core_get_no_event(self, pops):
        system, core = make_system(spaced_reads(4), window=8192)
        result = system.run()
        assert system.controllers[0].stats.read_serviced == 4
        assert result.census == system.events.census()
        assert sum(result.census.values()) == len(pops)
        assert result.census["complete"] == 0
        assert not any(event[2] == OP_COMPLETE for event in pops)
        assert core.done and not core._order

    def test_a_stall_gets_exactly_one_event(self, pops):
        # the write sits 71 instructions past the read: the 64-entry
        # window stalls on it until it returns
        items = [TraceItem(15, 0), TraceItem(70, 64 * 4096, is_write=True)]
        system, core = make_system(items, window=64)
        system.run()
        completions = [event for event in pops if event[2] == OP_COMPLETE]
        assert len(completions) == 1
        assert completions[0][4].index == 16  # the stalled-on read
        assert system.events.census()["complete"] == 1
        # the write issued only once the read was back
        assert issue_times(system) == [completions[0][0]]

    def test_budget_spent_core_is_done_at_its_last_return(self, pops):
        # six reads issue at once; the seventh access is past the budget
        items = [TraceItem(0, i * 64 * 4096) for i in range(10)]
        system, core = make_system(items, limit=6)
        result = system.run()
        assert core.draining and core.done
        completions = [event for event in pops if event[2] == OP_COMPLETE]
        assert len(completions) == 6  # every read was out at the drain
        last = pops[-1]  # the loop stops at the core's last return
        assert last[2] == OP_COMPLETE
        assert (last[0], last[1]) == max((e[0], e[1]) for e in completions)
        assert last[0] == core._last_completion
        assert result.stats["core.0.finish_ps"] == last[0]


class TestLazyRetirement:
    def test_jump_over_a_return_is_split(self, pops, born):
        # the loop jumps from each read's service to the next wake,
        # 225 ns later, over the read's return: fastforward_ps counts
        # the pieces a completion pop there would have cut
        system, core = make_system(spaced_reads(4), window=8192)
        system.run()
        times = [event[0] for event in pops]
        returns = [r.ret for r in born if r.owner is not None]

        def fastforward(points):
            points = sorted(set(points) | {0})
            return sum(b - a for a, b in zip(points, points[1:])
                       if b - a >= FASTFORWARD_MIN_GAP_PS)

        assert system.events.census()["complete"] == 0
        assert system.events.fastforward_ps == fastforward(times + returns)
        assert system.events.fastforward_ps != fastforward(times)

    def test_read_returning_at_the_wake_issues_first(self):
        # An LLC hit returns 25 ns after issue, exactly when the access
        # 400 instructions later is due. Its completion would pop before
        # that wake and issue the access; the wake takes its stamp, so
        # the access Q is queued when the service of P (queued after the
        # hit, due at the same instant) runs, and FR-FCFS picks Q's row
        # hit first.
        mapper = make_system([])[0].mapper
        rows = {}
        for line in range(mapper.total_lines()):
            rows.setdefault(mapper.map_line_raw(line), []).append(line * 64)
        opened, q = rows[(0, 0, 5)][:2]
        p = rows[(0, 0, 9)][0]
        items = [TraceItem(0, opened), TraceItem(4000, opened),
                 TraceItem(0, p), TraceItem(400, q)]
        tracer = EventTracer()
        system, _ = make_system(items, window=1024, use_llc=True,
                                tracer=tracer)
        system.run()
        assert [e.row for e in tracer.events("RD")] == [5, 5, 9]
