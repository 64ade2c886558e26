"""``campaign run`` on the one resolver: the API the campaign benchmark
drives, and crash tolerance on the CLI's pool path."""

import os

import pytest

from repro.exec import resolver
from repro.exec.cache import ResultCache
from repro.exec.engine import SweepEngine
from repro.sim import runner
from repro.tools import campaign

#: Set per test; forked pool workers inherit it.
CRASH_MARKER = None


def crash_once(point):
    """Kill the first worker that gets here; simulate everywhere else."""
    try:
        os.close(os.open(CRASH_MARKER, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return resolver.simulate_point(point)
    os._exit(1)


@pytest.fixture
def plan_dir(tmp_path):
    directory = tmp_path / "camp"
    # two designs share one baseline: 4 planned, 3 unique points
    campaign.plan(directory, ["add"], ["prac", "mopac-d"], [500], 6_000)
    return directory


@pytest.fixture
def recorded(monkeypatch):
    """Engines ``campaign.run`` builds through ``campaign.SweepEngine``."""
    engines = []

    def record(*args, **kwargs):
        engines.append(SweepEngine(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(campaign, "SweepEngine", record)
    return engines


def test_benchmark_api(plan_dir, tmp_path, monkeypatch, recorded):
    """The names ``campaign_bench/workloads.py`` calls keep working."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    runner.clear_cache()
    runner.resolve_engine()

    csv_path = campaign.run(plan_dir, workers=2, verbose=False)

    assert csv_path.read_text().count("\n") == 3  # header + 2 rows
    (engine,) = recorded
    assert engine.workers == 2
    assert engine.metrics.wall_s > 0
    assert engine.metrics.sim_wall_s > 0
    _, _, flat = campaign.planned_points(plan_dir)
    unique = list(dict.fromkeys(flat))
    assert len(unique) == 3
    cache = ResultCache(cache_dir)
    for point in unique:
        result = runner.memo_get(point)
        assert result is not None
        assert cache.get(point).ipcs == result.ipcs
        assert cache.path_for(point).exists()
        config = runner.build_config(point)
        assert len(runner.build_traces(point, config)) == config.cores
    runner.clear_cache()
    assert all(runner.memo_get(point) is None for point in unique)


def test_cli_pool_survives_a_worker_crash(plan_dir, tmp_path, monkeypatch,
                                          recorded):
    runner.clear_cache()
    reference = campaign.run(plan_dir, workers=1,
                             verbose=False).read_bytes()
    runner.clear_cache()
    monkeypatch.setattr(resolver, "RETRY_BACKOFF_S", 0.01)
    monkeypatch.setitem(globals(), "CRASH_MARKER",
                        str(tmp_path / "crashed"))
    recorded.clear()

    def crashing(*args, **kwargs):
        engine = SweepEngine(*args, simulate_fn=crash_once, **kwargs)
        recorded.append(engine)
        return engine

    monkeypatch.setattr(campaign, "SweepEngine", crashing)
    csv_path = campaign.run(plan_dir, workers=2, verbose=False)

    assert csv_path.read_bytes() == reference
    (engine,) = recorded
    assert (tmp_path / "crashed").exists()
    assert engine.metrics.worker_restarts >= 1
    assert engine.metrics.retries >= 1
    assert engine.metrics.failed == 0
    assert engine.metrics.simulated == 3
    runner.clear_cache()
