"""Bank timing rules: kept by the controller, enforced by the oracle.

The controller dates every ACT / column / PRE at its earliest legal time
from its per-bank timing state; the first half of this module checks
those dates on traced controller runs. The controller does not re-check
legality itself, so the second half pins each bank rule in the
conformance oracle, which re-verifies every traced command stream.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.oracle import ConformanceOracle, OracleConfig
from repro.config import DRAMConfig
from repro.dram.bank import TimingSoA
from repro.dram.timing import ddr5_base, ddr5_prac
from repro.mc.controller import MemoryController
from repro.mc.events import EventLoop
from repro.mc.pagepolicy import ClosePagePolicy
from repro.mc.request import MemRequest
from repro.mitigations.mopac_c import MoPACCPolicy
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy
from repro.obs.tracer import EventTracer, TraceEvent

NS = 1000


def run_bank(requests, policy=None, page_policy=None, timing=None):
    """Drive one controller with ``(arrival, bank, row, is_write)``
    requests; returns ``(controller, traced events)``. The refresh
    stream is not armed, so every arrival must precede tREFI."""
    timing = timing or ddr5_base()
    config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                        rows_per_bank=128, timing=timing)
    events = EventLoop()
    mc = MemoryController(0, config, policy or BaselinePolicy(timing),
                          events, page_policy)
    mc.tracer = EventTracer()
    for arrival, bank, row, is_write in requests:
        mc.enqueue(MemRequest(0, 0, bank, row, arrival, is_write), arrival)
    events.run()
    return mc, mc.tracer.events()


def times(events, kind):
    return [e.time_ps for e in events if e.kind == kind]


class TestControllerTiming:
    def test_column_waits_trcd_after_act(self):
        timing = ddr5_base()
        _, events = run_bank([(0, 0, 7, False)])
        assert times(events, "RD")[0] - times(events, "ACT")[0] \
            == timing.tRCD

    def test_prac_episode_uses_prac_trcd(self):
        prac = ddr5_prac()
        policy = PRACMoatPolicy(500, 4, 128, 32, timing=prac)
        _, events = run_bank([(0, 0, 7, False)], policy=policy,
                             timing=prac)
        assert times(events, "RD")[0] - times(events, "ACT")[0] \
            == prac.tRCD

    def test_conflict_respects_tras_trp_and_trc(self):
        timing = ddr5_base()
        _, events = run_bank([(0, 0, 7, False), (1, 0, 9, False)])
        act1, act2 = times(events, "ACT")
        (pre,) = times(events, "PRE")
        assert pre >= act1 + timing.tRAS
        assert act2 == max(pre + timing.tRP, act1 + timing.tRC)

    def test_write_recovery_delays_the_close(self):
        timing = ddr5_base()
        _, events = run_bank([(0, 0, 7, True)],
                             page_policy=ClosePagePolicy())
        (wr,) = times(events, "WR")
        (pre,) = times(events, "PRE")
        assert pre >= wr + timing.tBURST + timing.tWR

    def test_read_burst_leaves_before_the_close(self):
        timing = ddr5_base()
        _, events = run_bank([(0, 0, 7, False)],
                             page_policy=ClosePagePolicy())
        (rd,) = times(events, "RD")
        (pre,) = times(events, "PRE")
        assert pre >= rd + timing.tBURST
        assert pre >= times(events, "ACT")[0] + timing.tRAS

    def test_counter_update_precharge_pays_prac_trp(self):
        """MoPAC-C closes a selected episode with the PRAC tRP."""
        base, prac = ddr5_base(), ddr5_prac()
        policy = MoPACCPolicy(500, banks=4, rows=128, p=1.0,
                              refresh_groups=32, rng=random.Random(0))
        mc, events = run_bank([(0, 0, 5, False), (500 * NS, 0, 9, False)],
                              policy=policy)
        (pre,) = [e for e in events if e.kind == "PRE"]
        assert pre.cu
        act2 = times(events, "ACT")[1]
        assert act2 >= pre.time_ps + prac.tRP > pre.time_ps + base.tRP
        assert mc.bank_stats[0].counter_update_precharges == 1

    def test_bank_stats_count_commands(self):
        mc, _ = run_bank([(0, 0, 7, False), (1, 0, 7, True),
                          (2, 0, 9, False)])
        stats = mc.bank_stats[0]
        assert (stats.activations, stats.precharges) == (2, 1)
        assert (stats.reads, stats.writes) == (2, 1)
        assert stats.row_hits == 3  # every column access
        assert stats.row_conflicts == 1

    def test_mixed_episodes(self):
        """Counter-update and plain episodes interleave (MoPAC-C at
        p=0.5): each ACT's tRCD follows its own episode's timing set."""
        base, prac = ddr5_base(), ddr5_prac()
        policy = MoPACCPolicy(500, banks=4, rows=128, p=0.5,
                              refresh_groups=32, rng=random.Random(3))
        _, events = run_bank([(i * 200 * NS, 0, 5 + i % 2, False)
                              for i in range(16)], policy=policy)
        commands = [e for e in events if e.kind in ("ACT", "RD")]
        pairs = [(a, b) for a, b in zip(commands, commands[1:])
                 if a.kind == "ACT"]
        assert {a.cu for a, _ in pairs} == {True, False}
        for act, rd in pairs:
            assert rd.time_ps - act.time_ps == \
                (prac.tRCD if act.cu else base.tRCD)


class TestTimingSoA:
    def test_block_all_is_monotonic(self):
        soa = TimingSoA(4)
        soa.block_all(5000)
        soa.block_all(1000)
        assert soa.blocked_until == [5000] * 4

    def test_close_bound_covers_open_banks_only(self):
        soa = TimingSoA(3)
        soa.open_row[:] = [-1, 4, 7]
        soa.ready_pre[:] = [900, 300, 100]
        soa.blocked_until[:] = [0, 0, 500]
        assert soa.close_bound(0) == 500
        assert soa.close_bound(800) == 800
        assert soa.earliest_precharge(1) == 300


def config():
    return OracleConfig(normal=ddr5_base(), counter_update=ddr5_prac(),
                        banks=4)


def ev(time_ns, kind, row=0, bank=0):
    return TraceEvent(time_ps=time_ns * NS, kind=kind, subchannel=0,
                      bank=bank, row=row, cause="")


def rules(events):
    return [v.rule for v in ConformanceOracle(config()).verify(events)]


class TestOracleBankRules:
    """The legality rules a bank state machine would assert."""

    def test_double_activate(self):
        assert "act.open" in rules([ev(0, "ACT", 1), ev(200, "ACT", 2)])

    def test_read_before_trcd(self):
        trcd = ddr5_base().tRCD // NS
        assert "col.early" in rules([ev(0, "ACT", 7),
                                     ev(trcd - 1, "RD", 7)])
        assert rules([ev(0, "ACT", 7), ev(trcd, "RD", 7)]) == []

    def test_read_wrong_row(self):
        assert "col.row" in rules([ev(0, "ACT", 7), ev(20, "RD", 8)])

    def test_read_while_idle(self):
        assert "col.closed" in rules([ev(0, "RD", 7)])

    def test_precharge_before_tras(self):
        tras = ddr5_base().tRAS // NS
        assert "pre.early" in rules([ev(0, "ACT", 7),
                                     ev(tras - 1, "PRE", 7)])

    def test_precharge_while_idle(self):
        assert "pre.idle" in rules([ev(0, "PRE", 7)])

    def test_precharge_inside_write_recovery(self):
        timing = ddr5_base()
        wr = timing.tRCD // NS
        early = wr + (timing.tBURST + timing.tWR) // NS - 1
        assert "pre.early" in rules([ev(0, "ACT", 7), ev(wr, "WR", 7),
                                     ev(early, "PRE", 7)])

    def test_activate_before_trp(self):
        assert "act.early" in rules([ev(0, "ACT", 1), ev(40, "PRE", 1),
                                     ev(45, "ACT", 2)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 400),   # arrival, ns
                          st.integers(0, 3),     # bank
                          st.integers(0, 5),     # row
                          st.booleans()),        # write
                min_size=1, max_size=40),
       st.booleans(), st.booleans())
def test_controller_commands_are_legal(requests, use_prac, close_page):
    """Property: whatever the stream, the controller's commands pass the
    oracle, and each bank's ACT/PRE pairing matches its open state."""
    timing = ddr5_prac() if use_prac else ddr5_base()
    policy = (PRACMoatPolicy(500, 4, 128, 32, timing=timing) if use_prac
              else BaselinePolicy(timing))
    requests = sorted((a * NS, b, r, w) for a, b, r, w in requests)
    mc, events = run_bank(requests, policy=policy, timing=timing,
                          page_policy=ClosePagePolicy() if close_page
                          else None)
    assert ConformanceOracle(OracleConfig.from_policy(
        policy, banks=4)).verify(events) == []
    for index, stats in enumerate(mc.bank_stats):
        open_now = mc.soa.open_row[index] >= 0
        assert stats.activations - stats.precharges == int(open_now)
