"""Sweep engine: inline/pool equivalence, caching, observability."""

import multiprocessing

import pytest

from repro.exec.cache import ResultCache
from repro.exec.engine import SweepEngine, run_points
from repro.sim import runner
from repro.sim.runner import DesignPoint, clear_cache, simulate, sweep

FAST = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)


def small_points():
    points = []
    for workload in ("add", "mcf"):
        for design in ("prac", "mopac-d"):
            point = DesignPoint(workload=workload, design=design,
                                trh=500, **FAST)
            points.append(point)
            points.append(point.baseline())
    return points


class TestInlinePoolEquivalence:
    def test_identical_results(self):
        points = small_points()
        inline = SweepEngine(workers=1, cache=None, use_memo=False)
        pool = SweepEngine(workers=2, cache=None, use_memo=False)
        rs = inline.run(points)
        rp = pool.run(points)
        assert [r.ipcs for r in rs] == [r.ipcs for r in rp]
        assert [r.elapsed_ps for r in rs] == [r.elapsed_ps for r in rp]
        assert [r.stats for r in rs] == [r.stats for r in rp]

    def test_merge_order_is_input_order(self):
        points = small_points()
        results = SweepEngine(workers=2, cache=None,
                              use_memo=False).run(points)
        for point, result in zip(points, results):
            total = sum(result.stats[f"core.{i}.instructions"]
                        for i in range(result.config.cores))
            assert total == point.instructions * result.config.cores

    def test_no_worker_outlives_a_run(self):
        engine = SweepEngine(workers=2, cache=None, use_memo=False)
        engine.run(small_points())
        assert engine.metrics.simulated == len(set(small_points()))
        assert multiprocessing.active_children() == []

    def test_pool_sized_to_the_misses(self):
        from concurrent.futures import ThreadPoolExecutor

        sizes = []

        def factory(n):
            sizes.append(n)
            return ThreadPoolExecutor(max_workers=n)

        engine = SweepEngine(workers=8, cache=None, use_memo=False,
                             simulate_fn=lambda point: (point.design, 0.0),
                             executor_factory=factory)
        points = [DesignPoint("mcf", design, **FAST)
                  for design in ("prac", "mopac-c", "mopac-d")]
        assert engine.run(points + points[:1]) == \
            ["prac", "mopac-c", "mopac-d", "prac"]
        assert sizes == [3]


class TestDeduplication:
    def test_duplicates_simulated_once(self):
        point = DesignPoint(workload="add", design="baseline", **FAST)
        engine = SweepEngine(workers=1, cache=None, use_memo=False)
        results = engine.run([point, point, point])
        assert engine.metrics.requested == 3
        assert engine.metrics.dedup_hits == 2
        assert engine.metrics.unique == 1
        assert engine.metrics.simulated == 1
        assert results[0] is results[1] is results[2]


class TestCacheBehaviour:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_warm_rerun_simulates_nothing(self, tmp_path, workers):
        points = small_points()
        cold = SweepEngine(workers=workers, cache=ResultCache(tmp_path),
                           use_memo=False)
        cold_results = cold.run(points)
        assert cold.metrics.simulated == len(set(points))
        assert cold.metrics.cache_hits == 0

        clear_cache()
        warm_engine = SweepEngine(workers=workers,
                                  cache=ResultCache(tmp_path),
                                  use_memo=False)
        warm_results = warm_engine.run(points)
        assert warm_engine.metrics.simulated == 0
        assert warm_engine.metrics.cache_hits == len(set(points))
        assert [r.ipcs for r in warm_results] == \
            [r.ipcs for r in cold_results]

    def test_corrupt_entry_resimulated(self, tmp_path):
        point = DesignPoint(workload="add", design="baseline", **FAST)
        cache = ResultCache(tmp_path)
        engine = SweepEngine(workers=1, cache=cache, use_memo=False)
        engine.run([point])
        cache.path_for(point).write_text("truncated {")
        again = SweepEngine(workers=1, cache=ResultCache(tmp_path),
                            use_memo=False)
        results = again.run([point])
        assert again.metrics.simulated == 1
        assert results[0].ipcs

    def test_memo_integration(self):
        clear_cache()
        point = DesignPoint(workload="add", design="baseline", **FAST)
        engine = SweepEngine(workers=1, cache=None, use_memo=True)
        (result,) = engine.run([point])
        # the engine populated the runner memo: simulate() is now free
        assert simulate(point) is result
        # and a second engine run is a memo hit, not a simulation
        rerun = SweepEngine(workers=1, cache=None, use_memo=True)
        rerun.run([point])
        assert rerun.metrics.memo_hits == 1
        assert rerun.metrics.simulated == 0

    def test_simulate_reads_disk_cache(self, tmp_path, monkeypatch):
        point = DesignPoint(workload="mcf", design="baseline", **FAST)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        first = simulate(point)
        assert ResultCache(tmp_path).path_for(point).exists()
        clear_cache()  # memo gone; disk remains

        def no_simulation(point):
            raise AssertionError("a disk hit must not simulate")

        monkeypatch.setattr(runner, "run_point", no_simulation)
        second = simulate(point)
        assert second is not first
        assert second.ipcs == first.ipcs
        assert runner.memo_get(point) is second

    def test_simulate_without_cache_stores_nothing(self, tmp_path,
                                                   monkeypatch):
        point = DesignPoint(workload="add", design="baseline", **FAST)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_cache()
        (result,) = SweepEngine(workers=1, cache=None,
                                use_memo=False).run([point])
        assert result.total_requests > 0
        assert runner.memo_get(point) is None
        assert len(ResultCache(tmp_path)) == 0

    def test_clear_cache_disk_empties_the_env_cache(self, tmp_path,
                                                    monkeypatch):
        point = DesignPoint(workload="add", design="baseline", **FAST)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        simulate(point)
        assert len(ResultCache(tmp_path)) == 1
        clear_cache(disk=True)
        assert len(ResultCache(tmp_path)) == 0
        assert runner.memo_get(point) is None


class TestObservability:
    def test_progress_hook_sees_every_unique_point(self, tmp_path):
        points = small_points()
        outcomes = []
        engine = SweepEngine(workers=1, cache=ResultCache(tmp_path),
                             use_memo=False, progress=outcomes.append)
        engine.run(points)
        assert len(outcomes) == len(set(points))
        assert {o.source for o in outcomes} == {"simulated"}
        assert all(o.wall_s > 0 for o in outcomes)

        hits = []
        rerun = SweepEngine(workers=1, cache=ResultCache(tmp_path),
                            use_memo=False, progress=hits.append)
        rerun.run(points)
        assert {o.source for o in hits} == {"cache"}

    def test_metrics_accumulate(self):
        point = DesignPoint(workload="add", design="baseline", **FAST)
        engine = SweepEngine(workers=1, cache=None, use_memo=False)
        engine.run([point])
        engine.run([point])
        assert engine.metrics.requested == 2
        assert engine.metrics.simulated == 2
        assert engine.metrics.wall_s > 0
        assert engine.metrics.sim_wall_s > 0
        summary = engine.metrics.summary()
        assert "2 points" in summary

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            SweepEngine(workers=0)


class TestConvenienceAPI:
    def test_run_points(self):
        point = DesignPoint(workload="add", design="baseline", **FAST)
        results = run_points([point], workers=1, cache=None)
        assert results[0].total_requests > 0

    def test_run_points_populates_memo(self):
        # a run_points result is what a later simulate() returns
        clear_cache()
        point = DesignPoint(workload="mcf", design="baseline", **FAST)
        (result,) = run_points([point], workers=1, cache=None)
        assert runner.memo_get(point) is result
        assert simulate(point) is result


class TestSweepIntegration:
    def test_sweep_pool_matches_inline(self):
        clear_cache()
        inline = sweep(["add", "mcf"], "prac", 500, workers=1, **FAST)
        clear_cache()
        pool = sweep(["add", "mcf"], "prac", 500, workers=2, **FAST)
        assert inline.slowdowns == pool.slowdowns
