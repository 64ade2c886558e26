"""ABO protocol timing (paper Figure 3).

When ALERT asserts, the memory controller may keep operating for 180 ns,
then must stall and issue RFM; with mitigation level 1 the DRAM is
unavailable for 350 ns. Total ALERT wall time: 530 ns (Table 3).
"""

import pytest

from repro.config import DRAMConfig
from repro.dram.timing import ddr5_prac
from repro.mc.controller import MemoryController
from repro.mc.events import EventLoop
from repro.mc.request import MemRequest
from repro.mitigations.prac import PRACMoatPolicy
from repro.units import ns


class AboSim:
    def __init__(self, abo_level=1):
        timing = ddr5_prac().scaled_refresh(1 / 256)
        self.config = DRAMConfig(subchannels=1, banks_per_subchannel=4,
                                 rows_per_bank=128, timing=timing)
        self.policy = PRACMoatPolicy(500, 4, 128, 32, timing=timing)
        self.policy.abo_level = abo_level
        self.events = EventLoop()
        self.mc = MemoryController(0, self.config, self.policy,
                                   self.events)

    def force_alert(self):
        """Put a row at ATH and assert ALERT directly."""
        self.policy.state.update(0, 64, self.policy.ath)
        self.policy._alert = True

    def submit(self, bank, row, at):
        request = MemRequest(0, 0, bank, row, at)
        self.mc.enqueue(request, at)
        return request

    def run(self, until=10**12):
        self.events.run(until=until)


class TestAboWindow:
    def test_operations_continue_during_180ns_window(self):
        sim = AboSim()
        sim.force_alert()
        # a request right after the ALERT observation still gets served
        # inside the 180 ns window
        early = sim.submit(1, 3, at=0)
        sim.run()
        assert early.completion_ps < ns(180)

    def test_rfm_blocks_banks_for_350ns(self):
        sim = AboSim()
        sim.force_alert()
        sim.submit(1, 3, at=0)  # triggers the alert check path
        sim.run()
        # the RFM window: banks blocked from ~180 ns to ~530 ns
        blocked_until = sim.mc.soa.blocked_until[2]
        assert blocked_until >= ns(180 + 350)
        assert blocked_until <= ns(180 + 350) + ns(60)

    def test_request_landing_in_stall_waits(self):
        sim = AboSim()
        sim.force_alert()
        sim.submit(1, 3, at=0)
        late = sim.submit(2, 7, at=ns(200))  # mid-stall
        sim.run()
        assert late.completion_ps >= ns(530)

    def test_mitigation_happens_during_rfm(self):
        sim = AboSim()
        sim.force_alert()
        sim.submit(1, 3, at=0)
        sim.run()
        assert sim.policy.stats.mitigations >= 1
        assert sim.policy.counter_value(0, 64) == 0

    def test_level_two_stalls_twice_as_long(self):
        one = AboSim(abo_level=1)
        two = AboSim(abo_level=2)
        for sim in (one, two):
            sim.force_alert()
            sim.submit(1, 3, at=0)
            sim.run()
        assert two.mc.soa.blocked_until[2] - \
            one.mc.soa.blocked_until[2] == pytest.approx(ns(350), abs=1)

    def test_alert_counted_once(self):
        sim = AboSim()
        sim.force_alert()
        sim.submit(1, 3, at=0)
        sim.run()
        assert sim.mc.stats.alerts == 1
