"""Speedup / fairness metrics."""

import dataclasses

import pytest

from repro.config import SystemConfig
from repro.cpu.core import CoreStats
from repro.sim.runner import (DesignPoint, fairness, harmonic_speedup,
                              simulate, weighted_speedup)
from repro.sim.system import SystemResult

FAST = dict(instructions=12_000, rows_per_bank=512, refresh_scale=1 / 256)


def synthetic_result(ipcs):
    """A SystemResult whose per-core IPCs are exactly ``ipcs``."""
    config = dataclasses.replace(SystemConfig.reduced(rows_per_bank=512),
                                 cores=len(ipcs))
    finish = 1_000_000  # 1 us
    cores = [CoreStats(instructions=round(ipc * finish * config.core_ghz
                                          / 1000.0),
                       requests=0, finish_ps=finish)
             for ipc in ipcs]
    stats = {f"core.{i}.ipc": core.ipc(config.core_ghz)
             for i, core in enumerate(cores)}
    result = SystemResult(config=config,
                          stats={**stats, "sim.elapsed_ps": finish})
    for want, got in zip(ipcs, result.ipcs):
        assert got == pytest.approx(want, rel=1e-6)
    return result


@pytest.fixture(scope="module")
def pair():
    base = simulate(DesignPoint(workload="mcf", design="baseline", **FAST))
    prac = simulate(DesignPoint(workload="mcf", design="prac", trh=500,
                                **FAST))
    return base, prac


class TestMetrics:
    def test_identity_values(self, pair):
        base, _ = pair
        assert weighted_speedup(base, base) == pytest.approx(1.0)
        assert harmonic_speedup(base, base) == pytest.approx(1.0)
        assert fairness(base, base) == pytest.approx(1.0)

    def test_prac_below_unity(self, pair):
        base, prac = pair
        assert weighted_speedup(prac, base) < 1.0
        assert harmonic_speedup(prac, base) < 1.0

    def test_harmonic_at_most_arithmetic(self, pair):
        base, prac = pair
        assert harmonic_speedup(prac, base) <= \
            weighted_speedup(prac, base) + 1e-9

    def test_fairness_in_unit_interval(self, pair):
        base, prac = pair
        assert 0 < fairness(prac, base) <= 1.0

    def test_rate_mode_is_fair(self, pair):
        """Eight identical copies should progress nearly equally."""
        base, prac = pair
        assert fairness(prac, base) > 0.85


class TestZeroBaselineCores:
    """Regression: cores with zero baseline IPC must be excluded from
    both the sum *and* the divisor, not only the sum."""

    def test_weighted_speedup_ignores_idle_cores(self):
        result = synthetic_result([0.5, 0.0])
        baseline = synthetic_result([1.0, 0.0])
        # only core 0 carries signal: WS is 0.5, not 0.5 / 2
        assert weighted_speedup(result, baseline) == pytest.approx(0.5)

    def test_matches_harmonic_filtering(self):
        result = synthetic_result([1.0, 0.0])
        baseline = synthetic_result([1.0, 0.0])
        assert weighted_speedup(result, baseline) == pytest.approx(1.0)
        assert harmonic_speedup(result, baseline) == pytest.approx(1.0)

    def test_all_zero_baseline(self):
        result = synthetic_result([1.0, 1.0])
        baseline = synthetic_result([0.0, 0.0])
        assert weighted_speedup(result, baseline) == 0.0
