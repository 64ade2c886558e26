"""DDR5 timing sets: paper Table 1 values and structural invariants."""

import dataclasses

import pytest

from repro.dram.timing import MoPACTimings, TimingSet, ddr5_base, ddr5_prac
from repro.units import ns, to_ns


class TestTable1Values:
    """The exact numbers of paper Table 1."""

    def test_base_trcd(self, base_timing):
        assert to_ns(base_timing.tRCD) == 14

    def test_base_trp(self, base_timing):
        assert to_ns(base_timing.tRP) == 14

    def test_base_tras(self, base_timing):
        assert to_ns(base_timing.tRAS) == 32

    def test_base_trc(self, base_timing):
        assert to_ns(base_timing.tRC) == 46

    def test_base_trefw_is_32ms(self, base_timing):
        assert to_ns(base_timing.tREFW) == 32_000_000

    def test_base_trefi(self, base_timing):
        assert to_ns(base_timing.tREFI) == 3900

    def test_base_trfc(self, base_timing):
        assert to_ns(base_timing.tRFC) == 410

    def test_prac_trcd(self, prac_timing):
        assert to_ns(prac_timing.tRCD) == 16

    def test_prac_trp_inflated_2_57x(self, prac_timing, base_timing):
        assert to_ns(prac_timing.tRP) == 36
        assert prac_timing.tRP / base_timing.tRP == pytest.approx(36 / 14)

    def test_prac_tras_halved(self, prac_timing):
        assert to_ns(prac_timing.tRAS) == 16

    def test_prac_trc_13pct_higher(self, prac_timing, base_timing):
        assert to_ns(prac_timing.tRC) == 52
        assert prac_timing.tRC / base_timing.tRC == pytest.approx(52 / 46)

    def test_refresh_unchanged_by_prac(self, prac_timing, base_timing):
        assert prac_timing.tREFW == base_timing.tREFW
        assert prac_timing.tREFI == base_timing.tREFI
        assert prac_timing.tRFC == base_timing.tRFC


class TestStructuralInvariants:
    def test_trc_equals_tras_plus_trp(self, base_timing, prac_timing):
        for t in (base_timing, prac_timing):
            assert t.tRC == t.tRAS + t.tRP

    def test_inconsistent_trc_rejected(self, base_timing):
        with pytest.raises(ValueError, match="tRC"):
            dataclasses.replace(base_timing, tRC=base_timing.tRC + 1)

    def test_nonpositive_field_rejected(self, base_timing):
        with pytest.raises(ValueError):
            dataclasses.replace(base_timing, tRCD=0,
                                tRC=base_timing.tRC)

    def test_alert_stall_is_350ns(self, base_timing):
        assert to_ns(base_timing.alert_stall) == 350

    def test_alert_total_is_530ns(self, base_timing):
        # Table 3: tALERT = 180 (normal) + 350 (RFM) = 530 ns.
        assert to_ns(base_timing.alert_total) == 530

    def test_refs_per_refw(self, base_timing):
        assert base_timing.refs_per_refw == 32_000_000 // 3900

    def test_act_spacing_constants(self, base_timing):
        # DDR5-6000: tRRD 2.5 ns, tFAW 13.333 ns
        assert to_ns(base_timing.tRRD) == 2.5
        assert to_ns(base_timing.tFAW) == pytest.approx(13.333, abs=0.001)

    def test_tfaw_binds_beyond_trrd(self, base_timing):
        # four ACTs at tRRD pace finish before tFAW: the window matters
        assert 3 * base_timing.tRRD < base_timing.tFAW


class TestFigure4Latency:
    """Figure 4: row-buffer-conflict service latency."""

    def test_baseline_conflict_read_is_40ns(self, base_timing):
        assert to_ns(base_timing.row_conflict_read_latency()) == 40

    def test_prac_conflict_read(self, prac_timing):
        # Paper quotes 62 ns using the pre-PRAC tRCD of 14 ns; with
        # PRAC's tRCD of 16 ns the analytical number is 64 ns.
        assert to_ns(prac_timing.row_conflict_read_latency()) == 64

    def test_prac_at_least_55pct_worse(self, base_timing, prac_timing):
        ratio = (prac_timing.row_conflict_read_latency()
                 / base_timing.row_conflict_read_latency())
        assert ratio >= 1.55


class TestScaledRefresh:
    @pytest.mark.parametrize("scale", [1, 0.5, 1 / 64, 1 / 256, 1e-4])
    def test_scaling_shrinks_trefw_only(self, base_timing, prac_timing,
                                        scale):
        # tREFI keeps its paper value: a scaled window holds fewer REFs
        for timing in (base_timing, prac_timing):
            scaled = timing.scaled_refresh(scale)
            assert scaled.tREFW == max(int(timing.tREFW * scale),
                                       timing.tREFI)
            assert scaled.tREFI == timing.tREFI
            assert dataclasses.replace(
                scaled, name=timing.name, tREFW=timing.tREFW) == timing

    def test_scale_one_is_identity_values(self, base_timing):
        scaled = base_timing.scaled_refresh(1)
        assert scaled.tREFW == base_timing.tREFW

    def test_scale_never_below_trefi(self, base_timing):
        scaled = base_timing.scaled_refresh(1e-9)
        assert scaled.tREFW == scaled.tREFI
        assert scaled.refs_per_refw == 1

    @pytest.mark.parametrize("bad", [0, -0.5, 1.5, float("nan"),
                                     float("inf")])
    def test_bad_scale_rejected(self, base_timing, bad):
        with pytest.raises(ValueError):
            base_timing.scaled_refresh(bad)


class TestMoPACTimings:
    def test_default_pairing(self):
        pair = MoPACTimings.default()
        assert pair.normal.tRP == ns(14)
        assert pair.counter_update.tRP == ns(36)

    def test_for_update_selects(self):
        pair = MoPACTimings.default()
        assert pair.for_update(True) is pair.counter_update
        assert pair.for_update(False) is pair.normal
