"""A daemon job resolves its points as ``campaign run`` does: riders.

The daemon runs one resolver pass per job, so a base-timing design
rides its baseline's run there too, and a key that a running grouped
task holds is joined, not simulated again, by any later job.
"""

import asyncio
import threading

from repro.config_io import save_design_point
from repro.exec.engine import SweepEngine
from repro.serve.client import ServeClient
from repro.sim import runner
from repro.sim.runner import DesignPoint
from repro.tools import campaign

from .test_campaign_submit import start_daemon, stop_daemon
from .test_server import FAST, call, run_scenario

#: ``mcf``'s MoPAC-D rides to the end; ``hammer``'s MoPAC-D-NUP asserts
#: an ALERT, drops out and runs on its own (``tests/sim/test_riders.py``)
POINTS = [DesignPoint("mcf", "mopac-d", trh=250, instructions=20_000),
          DesignPoint("hammer", "mopac-d-nup", trh=250,
                      instructions=20_000)]

RIDER_COUNTS = ("exec.resolve.riders", "exec.resolve.riders_diverged")


def entries(cache_dir):
    return {path.relative_to(cache_dir): path.read_bytes()
            for path in sorted(cache_dir.rglob("*.json"))}


def test_daemon_job_writes_campaign_runs_entries(tmp_path, monkeypatch):
    plan_dir = tmp_path / "camp"
    plan_dir.mkdir()
    for point in POINTS:
        save_design_point(point, str(plan_dir / f"{point.workload}."
                                                f"{point.design}.ini"))

    engines = []

    def recording(*args, **kwargs):
        engines.append(SweepEngine(*args, **kwargs))
        return engines[-1]

    run_cache = tmp_path / "run-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(run_cache))
    monkeypatch.setattr(campaign, "SweepEngine", recording)
    runner.clear_cache()
    reference = campaign.run(plan_dir, workers=1, verbose=False).read_bytes()
    runner.clear_cache()
    (plan_dir / "results.csv").unlink()
    metrics = engines[0].metrics
    assert (metrics.riders, metrics.riders_diverged) == (2, 1)

    address, process = start_daemon(tmp_path)
    try:
        campaign.submit(plan_dir, address)
        assert campaign.fetch(plan_dir, wait_s=300).read_bytes() == \
            reference
        stats = ServeClient(address).stats()
    finally:
        stop_daemon(process)
    assert [stats[name] for name in RIDER_COUNTS] == [2, 1]
    assert stats["exec.resolve.simulated"] == metrics.simulated == 4
    served = entries(tmp_path / "cache")
    assert len(served) == 4
    assert served == entries(run_cache)


def test_later_job_joins_a_running_grouped_task(tmp_path):
    """A job asking for a rider's key while an earlier job's
    baseline+rider task runs waits on that task; cancelling the earlier
    job leaves the execution the later one waits on running."""
    release = threading.Event()
    calls = []

    def sim(q):
        calls.append(q)
        release.wait(5)
        return {"seed": q.seed}, 0.001

    rider = DesignPoint("mcf", "mopac-d", **FAST)
    base = rider.baseline()

    async def scenario(server, client):
        first = await call(client.submit, [base, rider])
        while len(calls) < 1:  # the grouped task is running
            await asyncio.sleep(0.01)
        second = await call(client.submit, [rider])
        while server.resolver.metrics.dedup_hits < 1:  # joined
            await asyncio.sleep(0.01)
        assert calls == [base]  # the rider waits behind its lead
        await call(client.cancel, first)
        release.set()
        status = await call(client.wait, second, 10.0)
        assert status["state"] == "done"
        assert (await call(client.status, first))["state"] == "cancelled"
        assert await call(client.result, second) == [{"seed": rider.seed}]
        stats = await call(client.stats)
        assert stats["exec.resolve.dedup_hits"] == 1
        assert stats["exec.resolve.simulated"] == 2
        assert stats["exec.resolve.cache_hits"] == 0

    run_scenario(tmp_path, scenario, simulate_fn=sim)
    assert calls == [base, rider]  # one run of the task, nothing more
