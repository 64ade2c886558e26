"""DDR5 energy model (extension)."""

import pytest

from repro.dram.energy import EnergyBreakdown, energy_of, energy_overhead
from repro.sim.runner import DesignPoint, simulate

FAST = dict(instructions=20_000, rows_per_bank=512, refresh_scale=1 / 256)


@pytest.fixture(scope="module")
def runs():
    base = simulate(DesignPoint(workload="mcf", design="baseline", **FAST))
    prac = simulate(DesignPoint(workload="mcf", design="prac", trh=500,
                                **FAST))
    mopac_c = simulate(DesignPoint(workload="mcf", design="mopac-c",
                                   trh=500, **FAST))
    return base, prac, mopac_c


class TestBreakdown:
    def test_all_components_non_negative(self, runs):
        for result in runs:
            breakdown = energy_of(result)
            assert all(v >= 0 for v in breakdown.as_dict().values())

    def test_total_is_sum(self, runs):
        breakdown = energy_of(runs[0])
        parts = breakdown.as_dict()
        total = parts.pop("total")
        assert total == pytest.approx(sum(parts.values()))

    def test_baseline_has_no_counter_energy(self, runs):
        assert energy_of(runs[0]).counter_update_mj == 0

    def test_prac_pays_counter_energy_on_every_episode(self, runs):
        base, prac, _ = runs
        breakdown = energy_of(prac)
        assert breakdown.counter_update_mj > 0
        # one update per closed episode (rows still open at run end have
        # not paid their PREcu yet)
        updates = sum(prac.stats[f"mitigation.{sc}.counter_updates"]
                      for sc in range(prac.config.dram.subchannels))
        assert breakdown.counter_update_mj == pytest.approx(
            updates * 1.1e-6, rel=1e-9)
        assert updates == pytest.approx(prac.total_activations, rel=0.05)

    def test_mopac_c_counter_energy_scaled_by_p(self, runs):
        _, prac, mopac_c = runs
        ratio = (energy_of(mopac_c).counter_update_mj
                 / energy_of(prac).counter_update_mj)
        assert ratio == pytest.approx(1 / 8, rel=0.3)


class TestOverhead:
    def test_baseline_vs_itself_zero(self, runs):
        assert energy_overhead(runs[0], runs[0]) == pytest.approx(0.0)

    def test_prac_energy_overhead_positive(self, runs):
        base, prac, _ = runs
        assert energy_overhead(prac, base) > 0

    def test_mopac_c_cheaper_than_prac(self, runs):
        base, prac, mopac_c = runs
        assert energy_overhead(mopac_c, base) < \
            energy_overhead(prac, base)
