"""Memory controller: FR-FCFS behaviour, timing, REF, ABO, PREcu."""

import pytest

from repro.config import DRAMConfig
from repro.dram.timing import ddr5_base, ddr5_prac
from repro.mc.controller import MemoryController
from repro.mc.events import EventLoop
from repro.mc.request import MemRequest
from repro.mitigations.mopac_c import MoPACCPolicy
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy
from repro.units import ns


class MiniSim:
    """One controller on a standalone event loop."""

    def __init__(self, policy=None, page_policy=None, config=None):
        self.config = config or DRAMConfig(
            subchannels=1, banks_per_subchannel=4, rows_per_bank=128,
            timing=ddr5_base().scaled_refresh(1 / 256))
        self.policy = policy or BaselinePolicy(self.config.timing)
        self.events = EventLoop()
        self.mc = MemoryController(
            0, self.config, self.policy, self.events, page_policy)

    def submit(self, bank, row, at=0, is_write=False):
        request = MemRequest(0, 0, bank, row, at, is_write)
        self.mc.enqueue(request, at)
        return request

    def run(self, until=10**15):
        self.events.run(until=until)

    def run_all(self):
        self.events.run(max_events=100_000)

    def is_open(self, bank):
        return self.mc.soa.open_row[bank] >= 0


class TestSingleRequestLatency:
    def test_cold_read_latency(self):
        sim = MiniSim()
        request = sim.submit(0, 5, at=0)
        sim.run_all()
        timing = sim.config.timing
        expected = timing.tRCD + timing.tCAS + timing.tBURST
        assert request.completion_ps == expected

    def test_row_hit_is_fast(self):
        sim = MiniSim()
        first = sim.submit(0, 5, at=0)
        sim.run_all()
        hit = sim.submit(0, 5, at=ns(1000))
        sim.run_all()
        timing = sim.config.timing
        assert hit.latency_ps == timing.tCAS + timing.tBURST
        assert sim.mc.stats.row_hits == 1

    def test_row_conflict_pays_precharge(self):
        sim = MiniSim()
        sim.submit(0, 5, at=0)
        sim.run_all()
        conflict = sim.submit(0, 9, at=ns(1000))
        sim.run_all()
        timing = sim.config.timing
        expected = timing.tRP + timing.tRCD + timing.tCAS + timing.tBURST
        assert conflict.latency_ps == expected
        assert sim.mc.stats.row_conflicts == 1

    def test_prac_conflict_is_55pct_slower(self):
        """Figure 4 reproduced through the full controller."""
        base = MiniSim()
        base.submit(0, 5, at=0)
        base.run_all()
        conflict_base = base.submit(0, 9, at=ns(1000))
        base.run_all()

        config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                            rows_per_bank=128,
                            timing=ddr5_prac().scaled_refresh(1 / 256))
        prac = MiniSim(policy=PRACMoatPolicy(
            500, 4, 128, 32, timing=config.timing), config=config)
        prac.submit(0, 5, at=0)
        prac.run_all()
        conflict_prac = prac.submit(0, 9, at=ns(1000))
        prac.run_all()

        data_portion = base.config.timing.tCAS + base.config.timing.tBURST
        base_core = conflict_base.latency_ps - data_portion
        prac_core = conflict_prac.latency_ps - data_portion
        # PRE + ACT: 28 ns -> 52 ns
        assert base_core == ns(28)
        assert prac_core == ns(52)


class TestFRFCFS:
    def test_hit_served_before_older_conflict(self):
        sim = MiniSim()
        sim.submit(0, 5, at=0)
        sim.run(until=ns(100))
        conflict = sim.submit(0, 9, at=ns(100))
        hit = sim.submit(0, 5, at=ns(101))
        sim.run_all()
        assert hit.completion_ps < conflict.completion_ps

    def test_banks_progress_in_parallel(self):
        sim = MiniSim()
        a = sim.submit(0, 5, at=0)
        b = sim.submit(1, 5, at=0)
        sim.run_all()
        # second bank must not wait a full row cycle behind the first
        assert abs(a.completion_ps - b.completion_ps) < ns(46)

    def test_fifth_act_respects_tfaw(self):
        sim = MiniSim(config=DRAMConfig(
            subchannels=1, banks_per_subchannel=8, rows_per_bank=128,
            timing=ddr5_base().scaled_refresh(1 / 256)))
        requests = [sim.submit(bank, 5, at=0) for bank in range(5)]
        sim.run_all()
        timing = sim.config.timing
        first_col = min(r.completion_ps for r in requests)
        fifth_col = max(r.completion_ps for r in requests)
        # ACT #5 cannot start before ACT #1 + tFAW
        assert fifth_col - first_col >= timing.tFAW - timing.tRRD


class TestRefresh:
    def test_refresh_closes_open_rows(self):
        sim = MiniSim()
        sim.mc.start()  # arm the periodic REF stream
        sim.submit(0, 5, at=0)
        trefi = sim.config.timing.tREFI
        sim.run(until=trefi + ns(1000))
        assert not sim.is_open(0)
        assert sim.mc.stats.refreshes >= 1

    def test_request_after_ref_waits(self):
        sim = MiniSim()
        sim.mc.start()
        trefi = sim.config.timing.tREFI
        request = sim.submit(0, 5, at=trefi + 1)
        sim.run(until=trefi * 2)
        assert request.completion_ps > trefi + sim.config.timing.tRFC


class TestPREcu:
    def test_counter_updates_flow_through_precharge(self):
        config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                            rows_per_bank=128,
                            timing=ddr5_base().scaled_refresh(1 / 256))
        import random
        policy = MoPACCPolicy(500, banks=4, rows=128, p=1.0,
                              refresh_groups=32,
                              rng=random.Random(0))
        sim = MiniSim(policy=policy, config=config)
        sim.submit(0, 5, at=0)
        sim.run_all()
        sim.submit(0, 9, at=ns(500))  # conflict forces the PREcu
        sim.run_all()
        # p = 1.0: every episode selected; increment is 1/p = 1
        assert policy.counter_value(0, 5) == 1
        assert sim.mc.bank_stats[0].counter_update_precharges >= 1


class TestAlertFlow:
    def test_alert_blocks_banks(self):
        policy = PRACMoatPolicy(500, 4, 128, 32)
        config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                            rows_per_bank=128,
                            timing=ddr5_prac().scaled_refresh(1 / 256))
        sim = MiniSim(policy=policy, config=config)
        # Force the tracker over ATH directly, then trigger the check
        # through a normal request cycle.
        policy.state.update(0, 64, policy.ath)
        policy._alert = True
        request = sim.submit(1, 3, at=0)
        sim.run_all()
        sim.run(until=10**9)
        assert sim.mc.stats.alerts >= 1
        assert policy.stats.mitigations >= 1


class TestActHook:
    def test_hook_sees_activations(self):
        sim = MiniSim()
        seen = []
        sim.mc.act_hook = lambda t, bank, row: seen.append((bank, row))
        sim.submit(2, 7, at=0)
        sim.run_all()
        assert seen == [(2, 7)]


class TestClosePagePolicy:
    def test_close_page_precharges_idle_row(self):
        from repro.mc.pagepolicy import ClosePagePolicy
        sim = MiniSim(page_policy=ClosePagePolicy())
        sim.submit(0, 5, at=0)
        sim.run_all()
        sim.run(until=ns(500))
        assert not sim.is_open(0)

    def test_open_page_keeps_row(self):
        sim = MiniSim()
        sim.submit(0, 5, at=0)
        sim.run_all()
        assert sim.is_open(0)
