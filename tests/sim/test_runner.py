"""Experiment runner: design points, caching, slowdown, sweeps."""

import pytest

from repro.sim.runner import (DesignPoint, clear_cache, simulate, slowdown,
                              sweep, weighted_speedup)

FAST = dict(instructions=8_000, rows_per_bank=512, refresh_scale=1 / 256)


class TestDesignPoint:
    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            DesignPoint(workload="mcf", design="magic")

    @pytest.mark.parametrize("instructions", [0, -5])
    def test_non_positive_instruction_budget_rejected(self, instructions):
        with pytest.raises(ValueError, match="instructions must be positive"):
            DesignPoint(workload="mcf", design="prac",
                        instructions=instructions)

    def test_baseline_projection(self):
        point = DesignPoint(workload="mcf", design="mopac-d", trh=250,
                            drain_on_ref=4, chips=8, **FAST)
        base = point.baseline()
        assert base.design == "baseline"
        assert base.workload == point.workload
        assert base.instructions == point.instructions
        # mitigation-only knobs are dropped
        assert base.chips == 1

    @pytest.mark.parametrize("knob,value", [
        ("srq_size", 8), ("drain_on_ref", 4), ("chips", 8), ("p", 0.25),
        ("sampler", "para"), ("abo_level", 2), ("rowpress", True)])
    def test_knob_the_design_does_not_take_is_rejected(self, knob, value):
        # PRAC takes none of them; a silently ignored knob would still
        # get its own cache key and re-simulate plain PRAC
        with pytest.raises(ValueError,
                           match=f"design 'prac' does not take {knob}"):
            DesignPoint(workload="mcf", design="prac", **{knob: value})

    def test_mopac_c_takes_only_p_and_rowpress(self):
        DesignPoint(workload="mcf", design="mopac-c", p=0.25, rowpress=True)
        with pytest.raises(ValueError, match="'mopac-c' does not take chips"):
            DesignPoint(workload="mcf", design="mopac-c", chips=2)

    @pytest.mark.parametrize("design", ["mopac-d", "mopac-d-nup"])
    def test_mopac_d_takes_every_design_field(self, design):
        DesignPoint(workload="mcf", design=design, p=0.25, srq_size=8,
                    drain_on_ref=4, chips=2, sampler="para", abo_level=2,
                    rowpress=True)

    def test_baseline_keeps_row_activity_collection(self):
        point = DesignPoint(workload="mcf", design="prac", trh=500,
                            collect_row_activity=True, **FAST)
        assert point.baseline().collect_row_activity

    def test_hashable(self):
        a = DesignPoint(workload="mcf", design="prac")
        b = DesignPoint(workload="mcf", design="prac")
        assert a == b
        assert len({a, b}) == 1


class TestSimulateAndCache:
    def test_cache_returns_same_object(self):
        clear_cache()
        point = DesignPoint(workload="xalancbmk", design="baseline", **FAST)
        a = simulate(point)
        b = simulate(point)
        assert a is b

    def test_cache_bypass(self):
        point = DesignPoint(workload="xalancbmk", design="baseline", **FAST)
        a = simulate(point)
        b = simulate(point, use_cache=False)
        assert a is not b
        assert a.elapsed_ps == b.elapsed_ps  # still deterministic


class TestSlowdown:
    def test_baseline_slowdown_is_zero(self):
        point = DesignPoint(workload="xalancbmk", design="baseline", **FAST)
        assert slowdown(point) == pytest.approx(0.0, abs=1e-9)

    def test_prac_slowdown_positive(self):
        point = DesignPoint(workload="mcf", design="prac", trh=500,
                            instructions=30_000)
        assert slowdown(point) > 0.02

    def test_mopac_c_cheaper_than_prac(self):
        prac = DesignPoint(workload="mcf", design="prac", trh=500,
                           instructions=30_000)
        mopac = DesignPoint(workload="mcf", design="mopac-c", trh=500,
                            instructions=30_000)
        assert slowdown(mopac) < slowdown(prac)


class TestWeightedSpeedup:
    def test_identical_results_unity(self):
        point = DesignPoint(workload="xalancbmk", design="baseline", **FAST)
        result = simulate(point)
        assert weighted_speedup(result, result) == pytest.approx(1.0)


class TestSweep:
    def test_sweep_covers_workloads(self):
        result = sweep(["xalancbmk", "cam4"], "prac", 500, **FAST)
        assert set(result.slowdowns) == {"xalancbmk", "cam4"}
        assert result.design == "prac"
        assert isinstance(result.average, float)
        name, value = result.worst
        assert name in result.slowdowns
