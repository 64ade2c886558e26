"""Activation-level harness: pacing, REF injection, ABO servicing."""

import pytest

from repro.attacks.harness import AttackHarness, measure_slowdown, run_attack
from repro.attacks.patterns import multi_bank_single_row, single_sided
from repro.mitigations.prac import BaselinePolicy, PRACMoatPolicy
from repro.units import ns

GEO = dict(banks=4, rows=256, refresh_groups=16)


class TestPacing:
    def test_single_bank_paced_at_trc(self):
        policy = BaselinePolicy()
        result = run_attack(policy, single_sided(0, 5), 1000, trh=10**9,
                            enable_refresh=False, **GEO)
        # each episode costs one row cycle (46 ns)
        assert result.elapsed_ps == pytest.approx(1000 * ns(46), rel=0.01)

    def test_multi_bank_runs_parallel(self):
        policy = BaselinePolicy()
        serial = run_attack(BaselinePolicy(), single_sided(0, 5), 1000,
                            trh=10**9, enable_refresh=False, **GEO)
        parallel = run_attack(policy,
                              multi_bank_single_row(range(4), 5), 1000,
                              trh=10**9, enable_refresh=False, **GEO)
        assert parallel.elapsed_ps < serial.elapsed_ps

    def test_multi_bank_respects_trrd_and_tfaw(self):
        policy = BaselinePolicy()
        result = run_attack(policy, multi_bank_single_row(range(4), 5),
                            1000, trh=10**9, enable_refresh=False, **GEO)
        # tRRD = 2.5 ns and tFAW = 13.333 ns/4 ACTs are hard floors
        timing = policy.timing
        floor = max(1000 * timing.tRRD, (1000 // 4) * timing.tFAW)
        assert result.elapsed_ps >= floor


class TestRefresh:
    def test_refresh_consumes_time(self):
        with_ref = run_attack(BaselinePolicy(), single_sided(0, 5), 2000,
                              trh=10**9, enable_refresh=True, **GEO)
        without = run_attack(BaselinePolicy(), single_sided(0, 5), 2000,
                             trh=10**9, enable_refresh=False, **GEO)
        assert with_ref.elapsed_ps > without.elapsed_ps

    def test_refresh_resets_ledger_rows(self):
        policy = BaselinePolicy()
        harness = AttackHarness(policy, trh=10**9, enable_refresh=True,
                                **GEO)
        # enough activations to cycle all 16 refresh groups
        harness.run(single_sided(0, 5), 50_000)
        # the hot row got refreshed at least once, so its current count
        # is lower than the total issued
        assert harness.ledger.counts[0][5] < 50_000


class TestAlertServicing:
    def test_prac_alerts_fire_and_stall(self):
        policy = PRACMoatPolicy(500, banks=4, rows=256, refresh_groups=16)
        result = run_attack(policy, single_sided(0, 5), 20_000, trh=500,
                            **GEO)
        assert result.alerts > 0
        # MOAT fires roughly every ATH activations; periodic refresh of
        # the hot row occasionally restarts the climb, so the interval is
        # bounded below by ATH and stretched somewhat above it.
        assert 472 * 0.95 <= result.acts_per_alert <= 472 * 1.5

    def test_alert_consumes_stall_time(self):
        protected = run_attack(
            PRACMoatPolicy(500, banks=4, rows=256, refresh_groups=16),
            single_sided(0, 5), 20_000, trh=500, **GEO)
        base = run_attack(BaselinePolicy(), single_sided(0, 5), 20_000,
                          trh=10**9, **GEO)
        assert protected.elapsed_ps > base.elapsed_ps


class TestMeasureSlowdown:
    def test_baseline_vs_itself_is_zero(self):
        slowdown = measure_slowdown(
            BaselinePolicy(), lambda: single_sided(0, 5), 5000,
            trh=10**9, **GEO)
        assert slowdown == pytest.approx(0.0, abs=1e-9)

    def test_prac_positive_slowdown(self):
        slowdown = measure_slowdown(
            PRACMoatPolicy(500, banks=4, rows=256, refresh_groups=16),
            lambda: single_sided(0, 5), 20_000, trh=500, **GEO)
        assert slowdown > 0.05


class TestStopOnFailure:
    def test_stops_early_when_broken(self):
        result = run_attack(BaselinePolicy(), single_sided(0, 5), 10_000,
                            trh=100, stop_on_failure=True,
                            enable_refresh=False, **GEO)
        assert result.attack_succeeded
        assert result.activations < 10_000


class TestBadInput:
    @pytest.mark.parametrize("activations", [0, -5])
    def test_non_positive_activations_raise(self, activations):
        harness = AttackHarness(BaselinePolicy(), trh=100, **GEO)
        with pytest.raises(ValueError, match="activations"):
            harness.run(single_sided(0, 5), activations)
