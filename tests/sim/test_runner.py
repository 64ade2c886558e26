"""Experiment runner: design points, caching, slowdown, sweeps."""

import pytest

from repro.exec.engine import SweepEngine
from repro.sim import runner
from repro.sim.runner import (DesignPoint, clear_cache, run_point, simulate,
                              slowdown, slowdowns, sweep, weighted_speedup)

FAST = dict(instructions=8_000, rows_per_bank=512, refresh_scale=1 / 256)


class TestDesignPoint:
    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="unknown design"):
            DesignPoint(workload="mcf", design="magic")

    @pytest.mark.parametrize("value", [0, -5])
    def test_non_positive_instruction_budget_rejected(self, value):
        for field in ("instructions", "trh"):
            with pytest.raises(ValueError, match=f"{field} must be "
                                                 f"positive, got {value}"):
                DesignPoint(workload="mcf", design="prac", **{field: value})

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

    @pytest.mark.parametrize("knob,value,error", [
        ("abo_level", 3, "abo_level must be 1, 2 or 4"),
        ("srq_size", 0, "srq_size must be at least the ABO drain count"),
        ("chips", 0, "chips must be >= 1"),
        ("drain_on_ref", -1, "drain_on_ref must be >= 0"),
        ("p", 2.0, r"p must be in \(0, 1\]"),
        ("sampler", "magic", "unknown sampler 'magic'")])
    def test_knob_value_the_policy_refuses_is_rejected(self, knob, value,
                                                       error):
        # refused where the point is built, before it gets a cache key,
        # not when its policy is first built at simulation time
        with pytest.raises(ValueError, match=f"design 'mopac-d' refuses "
                                             f"{knob}={value!r}: {error}"):
            DesignPoint(workload="mcf", design="mopac-d", **{knob: value})

    def test_knob_values_the_policy_refuses_together_are_rejected(self):
        # each value builds on its own; Row-Press derating with p = 1/32
        # at T_RH 500 leaves no budget, so the point fails unkeyed
        with pytest.raises(ValueError, match=r"design 'mopac-c' refuses "
                                             r"p=0\.03125, rowpress=True: "
                                             r"Row-Press budget at T_RH 500 "
                                             r"yields C = 0"):
            DesignPoint("mcf", "mopac-c", trh=500, p=1 / 32, rowpress=True)

    def test_default_knobs_build_no_policy(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("built a policy")

        monkeypatch.setattr(runner, "make_policy_factory", no_build)
        DesignPoint(workload="mcf", design="mopac-d", trh=250)
        DesignPoint(workload="mcf", design="mopac-d").baseline()

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
        b = run_point(point)
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


class TestSlowdowns:
    #: base-timing designs (mopac-d, mint) ride their baseline's run
    POINTS = [DesignPoint(workload=workload, design=design, trh=500, **FAST)
              for workload in ("mcf", "mix3")
              for design in ("prac", "mopac-d", "mint", "mopac-c")]

    def test_equal_per_point_slowdown_riders_included(self, monkeypatch,
                                                      engine_runs):
        groups = []
        run_group = runner.run_group

        def spied(points, tracer=None):
            groups.append(len(points))
            return run_group(points, tracer)

        monkeypatch.setattr(runner, "run_group", spied)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        clear_cache()  # every point simulates
        together = slowdowns(self.POINTS, workers=1)
        assert len(engine_runs) == 1
        assert max(groups) > 1  # riders rode their baseline's run
        alone = [SweepEngine(workers=1, cache=None, use_memo=False).run(
            [point, point.baseline()]) for point in self.POINTS]
        assert together == [1.0 - weighted_speedup(run, base)
                            for run, base in alone]
        assert together == [
            1.0 - weighted_speedup(run_point(point),
                                   run_point(point.baseline()))
            for point in self.POINTS]

    def test_one_engine_run_resolves_points_and_baselines(self,
                                                          engine_runs):
        slowdowns(self.POINTS[:3], workers=1)
        (flat,) = engine_runs
        assert set(flat) == {*self.POINTS[:3], self.POINTS[0].baseline()}


class TestSweep:
    def test_one_engine_run(self, engine_runs):
        sweep(["xalancbmk", "cam4"], "prac", 500, workers=1, **FAST)
        assert len(engine_runs) == 1

    def test_sweep_covers_workloads(self):
        result = sweep(["xalancbmk", "cam4"], "prac", 500, **FAST)
        assert set(result.slowdowns) == {"xalancbmk", "cam4"}
        assert result.design == "prac"
        assert isinstance(result.average, float)
        name, value = result.worst
        assert name in result.slowdowns
