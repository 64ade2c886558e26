"""ROB-window core model: dispatch pacing, MLP limits, finish times.

The dispatch, ROB-stall and completion rules live in
:class:`~repro.sim.system.System`; these tests drive one core through
them and observe the requests it puts in the controllers' queues.
"""

import pytest

from repro.config import DRAMConfig, SystemConfig
from repro.cpu.core import Core
from repro.cpu.trace import TraceItem
from repro.dram.timing import ddr5_base
from repro.mitigations.prac import BaselinePolicy
from repro.sim.system import System

NEVER = 10 ** 15


def make_system(items, limit=10**9, window=None):
    dram = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                      rows_per_bank=256,
                      timing=ddr5_base().scaled_refresh(1 / 256))
    config = SystemConfig(dram=dram, cores=1)
    system = System(config, lambda i: BaselinePolicy(dram.timing),
                    [iter(items)], limit,
                    windows=None if window is None else [window])
    return system, system.cores[0]


def queued(system):
    """Requests waiting in the controllers, oldest first."""
    return sorted((r for mc in system.controllers for q in mc.queues
                   for r in q), key=lambda r: r.request_id)


def issue_times(system):
    return [r.arrival_ps - system.config.llc_hit_ps for r in queued(system)]


class TestDispatchPacing:
    def test_first_issue_time(self):
        system, core = make_system([TraceItem(40, 0)])
        system._drive_core(core, NEVER)
        # 40 instructions at 4-wide 4 GHz = 2.5 ns
        assert issue_times(system) == [int(40 * 62.5)]

    def test_back_to_back_gap_zero(self):
        system, core = make_system([TraceItem(0, 0), TraceItem(0, 64)])
        system._drive_core(core, NEVER)
        first, second = issue_times(system)
        assert second == first

    def test_future_issue_waits_for_its_time(self):
        system, core = make_system([TraceItem(0, 0), TraceItem(4, 64)])
        system._drive_core(core, 0)
        assert issue_times(system) == [0]  # the second is not due yet
        system._drive_core(core, 1000)
        assert issue_times(system) == [0, int(4 * 62.5)]

    def test_cursor_advances_with_issue_time(self):
        # an access issued late (the core was driven late) moves the
        # dispatch cursor, and the next gap counts from there
        system, core = make_system([TraceItem(0, 0), TraceItem(4, 64)])
        core.dispatch_ps = 1000.0
        system._drive_core(core, NEVER)
        assert issue_times(system) == [1000, int(1000 + 4 * 62.5)]


class TestROBBlocking:
    def items(self):
        # gap 15 -> one miss per 16 instructions; window 64 -> 4 misses
        return [TraceItem(15, i * 64 * 4096) for i in range(20)]

    def test_window_limits_outstanding(self):
        system, core = make_system(self.items(), window=64)
        assert not system._drive_core(core, NEVER)
        requests = queued(system)
        assert len(requests) == 4
        assert len(core.outstanding) == 4
        # blocked on the oldest miss
        assert core._waiting_on == requests[0].request_id

    def test_completion_unblocks(self):
        system, core = make_system(self.items(), window=64)
        system._drive_core(core, NEVER)
        oldest = queued(system)[0].request_id
        system._complete(core, oldest, 50_000)
        fifth = queued(system)[-1]
        assert len(queued(system)) == 5
        assert fifth.arrival_ps - system.config.llc_hit_ps >= 50_000

    def test_out_of_order_completion_keeps_blocking(self):
        system, core = make_system(self.items(), window=64)
        system._drive_core(core, NEVER)
        requests = queued(system)
        # a younger miss returns first
        assert not system._complete(core, requests[2].request_id, 10_000)
        assert len(queued(system)) == 4
        assert core._waiting_on == requests[0].request_id

    def test_writes_never_block_retirement(self):
        items = [TraceItem(15, i * 64 * 4096, is_write=True)
                 for i in range(20)]
        system, core = make_system(items, window=64)
        assert system._drive_core(core, NEVER)  # done: nothing to wait on
        assert len(queued(system)) == 20
        assert not core.outstanding


class TestFinish:
    def test_finish_includes_tail_instructions(self):
        system, core = make_system([TraceItem(0, 0, is_write=True)],
                                   limit=1000)
        result = system.run()
        # 999 remaining instructions at 62.5 ps each
        assert result.core_stats[0].finish_ps == \
            pytest.approx(999 * 62.5, rel=0.01)

    def test_finish_waits_for_last_completion(self):
        system, core = make_system([TraceItem(0, 0)], limit=10)
        result = system.run()
        stats = system.controllers[0].stats
        assert stats.read_serviced == 1
        # the read's data returns after arrival + its DRAM latency
        assert result.core_stats[0].finish_ps \
            >= stats.read_latency_ps + 2 * system.config.llc_hit_ps

    def test_done_requires_no_outstanding(self):
        system, core = make_system([TraceItem(0, 0)], limit=1)
        assert not system._drive_core(core, NEVER)  # the read is out
        request = queued(system)[0]
        assert system._complete(core, request.request_id, 100)

    def test_finalize_reports_full_budget(self):
        system, core = make_system([TraceItem(0, 0)], limit=500)
        result = system.run()
        assert result.core_stats[0].instructions == 500

    def test_exhausted_trace_finishes(self):
        system, core = make_system([TraceItem(3, 0, is_write=True)],
                                   limit=10**6)
        assert system._drive_core(core, NEVER)
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
        system._drive_core(core, NEVER)
        assert len(queued(system)) == 2
        assert core.stats.requests == 2
