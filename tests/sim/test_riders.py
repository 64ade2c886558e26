"""Riders: base-timing designs simulated on their baseline's run.

A design whose every episode runs on the base timings changes the
command stream only by asserting ALERT, so it can ride the run of its
baseline (``runner.run_group``) and drop out, to be simulated on its
own, the moment it could diverge. These tests hold the mechanism to
its one promise: every result is the solo run's, byte for byte.
"""

import hashlib
import json

import pytest

from repro.check import golden
from repro.exec.cache import ResultCache
from repro.exec.engine import SweepEngine
from repro.exec.resolver import PointFailed, group_misses, run_task
from repro.exec.serialize import result_to_dict
from repro.mitigations import registry
from repro.mitigations.mint import MINTPolicy
from repro.sim import runner
from repro.sim.runner import DesignPoint, rides_on, run_group, run_point
from repro.tools import campaign

#: every buildable design that can ride, i.e. runs on the base timings
RIDERS = tuple(name for name in registry.buildable()
               if name != "baseline"
               and registry.get(name).timing == "base")

SMALL = dict(instructions=8_000, rows_per_bank=512, refresh_scale=1 / 256)


def document(result) -> str:
    """sha256 of the result's cache document (what a cache entry holds)."""
    return hashlib.sha256(json.dumps(result_to_dict(result),
                                     sort_keys=True).encode()).hexdigest()


def test_the_riding_designs():
    assert set(RIDERS) == {"cnc-prac", "mopac-d", "mopac-d-nup", "mint",
                           "pride", "trr"}


class TestRiderEqualsSolo:
    @pytest.mark.parametrize("collect_row_activity", [False, True],
                             ids=["plain", "row-activity"])
    @pytest.mark.parametrize("workload", ["mcf", "mix3"])
    def test_every_rider_is_its_solo_run(self, workload,
                                         collect_row_activity):
        """All riders on one run, each equal to its solo run; with the
        row-activity census on, that includes the census, which the
        riders share with the lead."""
        base = DesignPoint(workload, "baseline", trh=500,
                           collect_row_activity=collect_row_activity,
                           **SMALL)
        riders = [DesignPoint(workload, design, trh=500,
                              collect_row_activity=collect_row_activity,
                              **SMALL) for design in RIDERS]
        group = run_group([base, *riders])
        assert all(result is not None for result in group)
        for point, result in zip([base, *riders], group):
            assert document(result) == document(run_point(point)), \
                point.design
        if collect_row_activity:
            assert group[0].stats["sim.row_activity.windows"] >= 1

    def test_rider_records_are_its_own(self):
        base = DesignPoint("mcf", "baseline", **SMALL)
        lead, rider = run_group([base, DesignPoint("mcf", "mint",
                                                   **SMALL)])
        def cores(result):
            return {key: value for key, value in result.stats.items()
                    if key.startswith("core.")}
        assert cores(rider) == cores(lead)
        assert rider.stats is not lead.stats
        assert rider.census == lead.census
        assert rider.census is not lead.census

    def test_only_its_baseline_leads_a_rider(self):
        point = DesignPoint("mcf", "mopac-d", **SMALL)
        other = DesignPoint("add", "baseline", **SMALL)
        with pytest.raises(ValueError, match="cannot ride"):
            run_group([other, point])
        with pytest.raises(ValueError, match="cannot ride"):
            run_group([point.baseline(),
                       DesignPoint("mcf", "prac", **SMALL)])

    def test_rides_on(self):
        point = DesignPoint("mcf", "mopac-d", trh=250, **SMALL)
        assert rides_on(point) == point.baseline()
        assert rides_on(point.baseline()) is None
        assert rides_on(DesignPoint("mcf", "mopac-c", **SMALL)) is None


class TestDivergence:
    #: mopac-d-nup asserts one ALERT here, so it cannot stay a rider
    POINT = DesignPoint("hammer", "mopac-d-nup", trh=250,
                        instructions=20_000)

    def test_an_alert_drops_the_rider(self):
        solo = run_point(self.POINT)
        assert solo.total_alerts >= 1
        lead, rider = run_group([self.POINT.baseline(), self.POINT])
        assert rider is None
        assert document(lead) == document(run_point(self.POINT.baseline()))

    def test_diverged_rider_is_counted_and_equals_its_solo_run(self):
        engine = SweepEngine(workers=1, cache=None, use_memo=False)
        result, _ = engine.run([self.POINT, self.POINT.baseline()])
        assert engine.metrics.riders == 1
        assert engine.metrics.riders_diverged == 1
        assert engine.metrics.simulated == 2
        assert document(result) == document(run_point(self.POINT))
        assert "1 riders, 1 diverged" in engine.metrics.summary()


class TestFailure:
    def test_a_raising_rider_fails_only_its_own_point(self, monkeypatch):
        def broken(self, now, bank=None):
            raise RuntimeError("refresh hook broke")

        monkeypatch.setattr(MINTPolicy, "on_refresh", broken)
        base = DesignPoint("add", "baseline", **SMALL)
        mint = DesignPoint("add", "mint", **SMALL)
        mopac = DesignPoint("add", "mopac-d", **SMALL)
        runner.clear_cache()
        engine = SweepEngine(workers=1, cache=None)
        with pytest.raises(PointFailed, match=r"^add\.mint: RuntimeError: "
                                              r"refresh hook broke$"):
            engine.run([base, mint, mopac])
        assert engine.metrics.failed == 1
        assert engine.metrics.simulated == 2
        assert engine.metrics.riders == 2
        assert engine.metrics.riders_diverged == 1
        assert document(runner.memo_get(mopac)) == document(run_point(mopac))
        assert runner.memo_get(base) is not None
        assert runner.memo_get(mint) is None
        runner.clear_cache()

    def test_a_raising_lead_lets_its_riders_run_solo(self, monkeypatch):
        base = DesignPoint("add", "baseline", **SMALL)
        mopac = DesignPoint("add", "mopac-d", **SMALL)
        real = runner.run_group

        def lead_raises(points, tracer=None):
            if len(points) > 1:
                raise RuntimeError("lead broke")
            return real(points, tracer)

        monkeypatch.setattr(runner, "run_group", lead_raises)
        (lead, _, how), (rider, _, rider_how) = run_task((base, mopac))
        assert isinstance(lead, RuntimeError) and how == "lead"
        assert rider_how == "diverged"
        assert document(rider) == document(run_point(mopac))


class TestGrouping:
    def test_riders_join_a_missing_baseline(self):
        points = [DesignPoint("mcf", design, **SMALL)
                  for design in ("mopac-d", "prac", "mint")]
        base = points[0].baseline()
        misses = list(enumerate(points + [base]))
        tasks = group_misses(misses)
        assert [[point.design for _, point in task] for task in tasks] == \
            [["baseline", "mopac-d", "mint"], ["prac"]]
        # without its baseline among the misses a point runs alone
        assert [len(task) for task in group_misses(misses[:3])] == [1, 1, 1]

    def test_campaign_pool_writes_the_inline_entry_bytes(self, tmp_path,
                                                         monkeypatch):
        """Two workers (riders in worker processes) and one worker write
        the same cache entries, byte for byte."""
        plan_dir = tmp_path / "camp"
        campaign.plan(plan_dir, ["add", "mcf"], ["mopac-d", "mint", "prac"],
                      [500], 6_000)
        entries = {}
        for workers in (1, 2):
            cache_dir = tmp_path / f"cache-{workers}"
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
            runner.clear_cache()
            campaign.run(plan_dir, workers=workers, verbose=False)
            entries[workers] = {
                path.relative_to(cache_dir): path.read_bytes()
                for path in sorted(cache_dir.rglob("*.json"))}
        runner.clear_cache()
        assert len(entries[1]) == 8
        assert entries[1] == entries[2]
        _, _, flat = campaign.planned_points(plan_dir)
        cache = ResultCache(tmp_path / "cache-1")
        assert all(cache.path_for(point).exists() for point in flat)


class TestGoldenRiders:
    """Each base-timing golden case, resolved as a rider of its
    baseline, reproduces its committed stats digest. At T_RH 100 on
    ``hammer`` every design that can assert ALERT does, so those cases
    take the solo fallback; MINT, PrIDE and TRR mitigate only at REF
    and ride to the end."""

    CASES = {name: point for name, point in golden._design_points().items()
             if point.design in RIDERS}
    NEVER_ALERT = {"mint", "pride", "trr"}

    def test_every_riding_design_has_a_case(self):
        assert {point.design for point in self.CASES.values()} == \
            set(RIDERS)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_the_golden_stats(self, name):
        point = self.CASES[name]
        _, (result, _, how) = run_task((point.baseline(), point))
        assert how == ("rider" if point.design in self.NEVER_ALERT
                       else "diverged")
        assert golden.stats_digest(result) == \
            golden.load_goldens()[name].stats
