"""Same-bank refresh (DDR5 REFsb) support."""

import pytest

from repro.sim.runner import DesignPoint, simulate, slowdown

FAST = dict(instructions=15_000, rows_per_bank=512, refresh_scale=1 / 256)


class TestRefsbMode:
    def test_unknown_mode_rejected(self):
        from repro.config import DRAMConfig
        from repro.mc.controller import MemoryController
        from repro.mc.events import EventLoop
        from repro.mitigations.prac import BaselinePolicy
        with pytest.raises(ValueError, match="refresh_mode"):
            MemoryController(0, DRAMConfig(), BaselinePolicy(),
                             EventLoop(), refresh_mode="checkerboard")

    def test_same_bank_run_completes(self):
        point = DesignPoint(workload="mcf", design="baseline",
                            refresh_mode="same-bank", **FAST)
        result = simulate(point)
        assert result.total_requests > 0
        assert all(ipc > 0 for ipc in result.ipcs)

    def test_refsb_issues_more_ref_commands(self):
        allb = simulate(DesignPoint(workload="mcf", design="baseline",
                                    **FAST))
        sameb = simulate(DesignPoint(workload="mcf", design="baseline",
                                     refresh_mode="same-bank", **FAST))
        refs_all = allb.total("refreshes")
        refs_same = sameb.total("refreshes")
        # one REFsb per bank per tREFI vs one REFab per tREFI
        assert refs_same > 8 * refs_all

    def test_refsb_blocks_less(self):
        """Latency-bound work suffers less from REFsb's short stalls."""
        allb = simulate(DesignPoint(workload="mcf", design="baseline",
                                    **FAST))
        sameb = simulate(DesignPoint(workload="mcf", design="baseline",
                                     refresh_mode="same-bank", **FAST))
        # no hard dominance claim at tiny scale — but within a few %
        ratio = sameb.elapsed_ps / allb.elapsed_ps
        assert 0.85 < ratio < 1.1

    def test_mopac_d_under_refsb_still_cheap(self):
        sd = slowdown(DesignPoint(workload="mcf", design="mopac-d",
                                  trh=500, refresh_mode="same-bank",
                                  **FAST))
        assert sd < 0.05

    def test_baseline_projection_keeps_mode(self):
        point = DesignPoint(workload="mcf", design="mopac-d",
                            refresh_mode="same-bank", **FAST)
        assert point.baseline().refresh_mode == "same-bank"


class TestRefsbCadence:
    """Regression: the k-th REFsb must fire at ``(k*tREFI)//banks``.

    Accumulating ``tREFI // banks`` per event drops the integer-division
    remainder every step, so with a tREFI that is not a multiple of the
    bank count the refresh stream drifts ahead of the tREFI cadence.
    """

    def fire_times(self, trefi, banks, count):
        from dataclasses import replace
        from repro.config import DRAMConfig
        from repro.dram.timing import ddr5_base
        from repro.mc.controller import MemoryController
        from repro.mc.events import EventLoop
        from repro.mitigations.prac import BaselinePolicy
        from repro.obs.tracer import EventTracer
        timing = replace(ddr5_base(), tREFI=trefi,
                         tREFW=8192 * trefi)
        config = DRAMConfig(subchannels=1, banks_per_subchannel=banks,
                            rows_per_bank=256, timing=timing)
        events = EventLoop()
        mc = MemoryController(0, config, BaselinePolicy(timing), events,
                              refresh_mode="same-bank")
        mc.tracer = EventTracer()
        mc.start()
        events.run(max_events=count)
        return [event.time_ps for event in mc.tracer.events("REF")]

    def test_full_rotation_lands_on_trefi_boundary(self):
        trefi, banks = 1_000_003, 4  # tREFI not divisible by banks
        times = self.fire_times(trefi, banks, 8)
        # the 4th REFsb (one full rotation) fires at exactly tREFI;
        # the drifting accumulator gave 4*(tREFI//4) = tREFI - 3
        assert times[3] == trefi
        assert times[7] == 2 * trefi

    def test_no_long_run_drift(self):
        trefi, banks = 999_999, 32
        times = self.fire_times(trefi, banks, 32 * 100)
        assert times[-1] == 100 * trefi
        # every event stays within one remainder of the ideal cadence
        for k, when in enumerate(times, start=1):
            assert abs(when - k * trefi / banks) < banks

    def test_divisible_trefi_unchanged(self):
        trefi, banks = 1_000_000, 4
        times = self.fire_times(trefi, banks, 8)
        assert times == [trefi // 4 * k for k in range(1, 9)]


class TestPerBankRefreshHooks:
    def test_policy_sees_per_bank_refresh(self):
        from repro.mitigations.mopac_d import MoPACDPolicy
        policy = MoPACDPolicy(500, banks=4, rows=512, refresh_groups=32,
                              drain_on_ref=2)
        # buffer entries in bank 0 and bank 1
        for bank in (0, 1):
            for row in (100, 101):
                for i in range(8):
                    policy.on_activate(bank, row, i)
        occ0 = policy.srq_occupancy(0)
        occ1 = policy.srq_occupancy(1)
        policy.on_refresh(1000, bank=0)
        assert policy.srq_occupancy(0) == max(occ0 - 2, 0)
        assert policy.srq_occupancy(1) == occ1  # untouched

    def test_prac_per_bank_counter_refresh(self):
        from repro.mitigations.prac import PRACMoatPolicy
        policy = PRACMoatPolicy(500, banks=2, rows=64, refresh_groups=4)
        policy.state.update(0, 5, 9)
        policy.state.update(1, 5, 9)
        # refresh bank 0's first group (rows 0-15) only
        policy.on_refresh(0, bank=0)
        assert policy.counter_value(0, 5) == 0
        assert policy.counter_value(1, 5) == 9
