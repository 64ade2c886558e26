"""The conformance oracle: clean traces pass, broken traces don't."""

import random

import pytest

from repro.check import (ConformanceOracle, OracleConfig, events_from_jsonl,
                         oracle_config_for, verify_point)
from repro.check.mutations import (MutationError, drop_pre, shrink_trc,
                                   skip_rfm)
from repro.check.driver import trace_point
from repro.dram.timing import ddr5_base, ddr5_prac
from repro.obs.tracer import TraceEvent
from repro.sim.runner import DesignPoint

NS = 1000

#: ABO-heavy point: 13+ ALERT/RFM pairs in its trace, so every mutation
#: (including skip-rfm) has sites to hit
ABO_POINT = DesignPoint(
    workload="hammer", design="mopac-d", trh=250, instructions=12_000,
    rows_per_bank=128, refresh_scale=1 / 256, p=1.0, srq_size=5,
    drain_on_ref=0)


@pytest.fixture(scope="module")
def abo_tracer():
    return trace_point(ABO_POINT)


@pytest.fixture(scope="module")
def abo_trace(abo_tracer):
    return abo_tracer.events()


@pytest.fixture(scope="module")
def abo_config():
    return oracle_config_for(ABO_POINT)


def base_config(banks=4):
    return OracleConfig(normal=ddr5_base(), counter_update=ddr5_prac(),
                        banks=banks)


def ev(time_ns, kind, bank=0, row=0, cu=False):
    return TraceEvent(time_ps=time_ns * NS, kind=kind, subchannel=0,
                      bank=bank, row=row, cause="", cu=cu)


class TestCleanTraces:
    def test_campaign_point_verifies_clean(self, abo_tracer, abo_trace,
                                           abo_config):
        assert abo_tracer.dropped == 0  # a truncated trace proves nothing
        oracle = ConformanceOracle(abo_config)
        assert oracle.verify(abo_trace) == []
        assert oracle.ok
        assert oracle.events_checked == len(abo_trace)

    def test_trace_exercises_the_abo_protocol(self, abo_trace):
        kinds = {e.kind for e in abo_trace}
        assert {"ACT", "PRE", "REF", "ALERT", "RFM"} <= kinds

    def test_default_point_verifies_clean(self):
        verdict = verify_point(DesignPoint(
            workload="mcf", design="mopac-c", instructions=20_000,
            rows_per_bank=256, refresh_scale=1 / 128))
        assert verdict.ok, verdict.describe()


class TestHandCraftedViolations:
    """Tiny synthetic traces pinning individual rules."""

    def test_act_on_open_bank(self):
        events = [ev(0, "ACT", row=1), ev(100, "ACT", row=2)]
        rules = [v.rule for v in
                 ConformanceOracle(base_config()).verify(events)]
        assert "act.open" in rules

    def test_act_too_soon_after_pre(self):
        events = [ev(0, "ACT", row=1), ev(40, "PRE", row=1),
                  ev(45, "ACT", row=2)]  # tRP is 14 ns but tRC is 46 ns
        rules = [v.rule for v in
                 ConformanceOracle(base_config()).verify(events)]
        assert "act.early" in rules

    def test_prac_episode_uses_counter_update_timing(self):
        # 40 ns open time is legal for the base episode (tRAS 32) but
        # illegal for a PRAC counter-update episode... the cu episode's
        # tRAS is 16, so instead pin the PRE->ACT gap: cu tRP is 36 ns.
        events = [ev(0, "ACT", row=1, cu=True), ev(40, "PRE", row=1,
                                                   cu=True),
                  ev(60, "ACT", row=2)]  # 20 ns < PRAC tRP (36 ns)
        rules = [v.rule for v in
                 ConformanceOracle(base_config()).verify(events)]
        assert "act.early" in rules
        # same gap under a plain episode is legal (base tRP is 14 ns,
        # ACT->ACT 60 ns > tRC 46 ns)
        legal = [ev(0, "ACT", row=1), ev(40, "PRE", row=1),
                 ev(60, "ACT", row=2)]
        assert ConformanceOracle(base_config()).verify(legal) == []

    def test_column_to_closed_bank(self):
        rules = [v.rule for v in
                 ConformanceOracle(base_config()).verify([ev(0, "RD")])]
        assert "col.closed" in rules

    def test_column_to_wrong_row(self):
        events = [ev(0, "ACT", row=1), ev(20, "RD", row=2)]
        rules = [v.rule for v in
                 ConformanceOracle(base_config()).verify(events)]
        assert "col.row" in rules

    def test_trrd_between_banks(self):
        events = [ev(0, "ACT", bank=0, row=1),
                  ev(1, "ACT", bank=1, row=1)]  # 1 ns < tRRD (2.5 ns)
        rules = [v.rule for v in
                 ConformanceOracle(base_config()).verify(events)]
        assert "act.trrd" in rules

    def test_command_past_unserviced_alert(self):
        events = [ev(0, "ACT", row=1),
                  ev(10, "ALERT", bank=-1, row=-1),
                  ev(300, "PRE", row=1)]  # deadline was 10 + 180 ns
        rules = [v.rule for v in
                 ConformanceOracle(base_config()).verify(events)]
        assert "abo.window" in rules

    def test_trailing_alert_is_tolerated(self):
        events = [ev(0, "ACT", row=1), ev(50, "PRE", row=1),
                  ev(60, "ALERT", bank=-1, row=-1)]
        assert ConformanceOracle(base_config()).verify(events) == []

    def test_unprompted_rfm(self):
        rules = [v.rule for v in ConformanceOracle(base_config()).verify(
            [ev(0, "RFM", bank=-1, row=-1)])]
        assert "abo.unprompted" in rules

    def test_command_inside_rfm_stall(self):
        events = [ev(0, "ACT", row=1), ev(50, "PRE", row=1),
                  ev(60, "ALERT", bank=-1, row=-1),
                  ev(240, "RFM", bank=-1, row=-1),
                  ev(300, "ACT", row=2)]  # stall runs until 240+350 ns
        rules = [v.rule for v in
                 ConformanceOracle(base_config()).verify(events)]
        assert "abo.stall" in rules


class TestMutationsCaught:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_drop_pre(self, abo_trace, abo_config, seed):
        mutant = drop_pre(abo_trace, random.Random(seed))
        assert len(mutant) == len(abo_trace) - 1
        rules = {v.rule for v in
                 ConformanceOracle(abo_config).verify(mutant)}
        # a dropped ordinary PRE shows up as an ACT on an open bank; a
        # dropped refresh forced-close leaves the refresh window stuck
        # and floods the refblock rules instead
        assert rules & {"act.open", "act.refblock"}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shrink_trc(self, abo_trace, abo_config, seed):
        mutant = shrink_trc(abo_trace, abo_config, random.Random(seed))
        rules = {v.rule for v in
                 ConformanceOracle(abo_config).verify(mutant)}
        assert "act.early" in rules

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_skip_rfm(self, abo_trace, abo_config, seed):
        mutant = skip_rfm(abo_trace, random.Random(seed))
        assert len(mutant) < len(abo_trace)
        rules = {v.rule for v in
                 ConformanceOracle(abo_config).verify(mutant)}
        assert "abo.window" in rules

    def test_mutation_without_site_raises(self):
        with pytest.raises(MutationError):
            skip_rfm([ev(0, "ACT", row=1)], random.Random(0))


class TestJsonlRoundTrip:
    def test_events_survive_jsonl(self, abo_trace, abo_config, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = trace_point(ABO_POINT)
        tracer.to_jsonl(str(path))
        reloaded = events_from_jsonl(str(path))
        assert reloaded == tracer.events()
        assert ConformanceOracle(abo_config).verify(reloaded) == []
