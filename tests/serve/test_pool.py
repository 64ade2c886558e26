"""The resolver's pass: cache short-circuit, dedup, crash retries.

Most tests inject a thread-pool executor and closure simulate
functions, so they neither fork a process nor run a real simulation.
The crash-retry tests run against both callers of the pass: the sync
``SweepEngine.run`` the CLI uses and ``Resolver.resolve_all`` on a
long-lived pool, as the daemon runs it.
"""

import asyncio
import threading
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

from repro.exec import resolver as resolver_mod
from repro.exec.cache import ResultCache, point_key
from repro.exec.engine import SweepEngine
from repro.exec.resolver import PointFailed, Resolver
from repro.exec.serialize import result_row, result_to_dict
from repro.obs.registry import StatsRegistry
from repro.sim.runner import DesignPoint

FAST = dict(instructions=6_000, rows_per_bank=512, refresh_scale=1 / 256)


def point(seed=0):
    return DesignPoint(workload="add", design="baseline", seed=seed,
                       **FAST)


class StubCache:
    """In-memory stand-in for ResultCache (get/get_row/put/
    register_stats); a stored document is its own row."""

    def __init__(self, preloaded=None):
        self.store = dict(preloaded or {})
        self.puts = []

    def key(self, p):
        return point_key(p)

    def get(self, p, key=None):
        return self.store.get(key or self.key(p))

    get_row = get

    def put(self, p, result, key=None):
        self.store[key or self.key(p)] = result
        self.puts.append(p)

    def register_stats(self, registry, prefix="exec.cache"):
        registry.register(prefix, lambda: {"entries": len(self.store)})


def thread_pool(n):
    return ThreadPoolExecutor(max_workers=n)


def make_resolver(simulate_fn, cache=None, workers=2):
    registry = StatsRegistry()
    resolver = Resolver(
        workers=workers, cache=cache, use_memo=False,
        simulate_fn=simulate_fn, executor_factory=thread_pool)
    resolver.register_stats(registry)
    return resolver, registry


def run(coro):
    return asyncio.run(coro)


class TestCacheShortCircuit:
    def test_hit_skips_simulation(self):
        p = point()
        cache = StubCache({point_key(p): {"cached": True}})
        calls = []
        resolver, registry = make_resolver(
            lambda q: calls.append(q) or ({"fresh": True}, 0.001),
            cache=cache)

        async def go():
            return await resolver.resolve_all([p])

        assert run(go()) == [{"cached": True}]
        assert calls == []
        stats = registry.snapshot()
        assert stats["exec.resolve.cache_hits"] == 1
        assert stats["exec.resolve.simulated"] == 0

    def test_miss_simulates_and_writes_back(self):
        p = point()
        cache = StubCache()
        resolver, registry = make_resolver(
            lambda q: ({"seed": q.seed}, 0.001), cache=cache)

        async def go():
            return await resolver.resolve_all([p])

        assert run(go()) == [{"seed": 0}]
        assert cache.store[point_key(p)] == {"seed": 0}
        stats = registry.snapshot()
        assert stats["exec.resolve.cache_misses"] == 1
        assert stats["exec.resolve.simulated"] == 1
        assert stats["exec.resolve.point_wall_ms.count"] == 1
        assert stats["exec.cache.entries"] == 1

    def test_async_front_end_keeps_no_memo(self):
        from repro.sim import runner

        runner.clear_cache()
        p = point(7)
        resolver, _ = make_resolver(lambda q: ({"seed": q.seed}, 0.001),
                                    cache=StubCache())

        async def go():
            return await resolver.resolve_all([p])

        run(go())
        assert runner.memo_get(p) is None


class TestInflightDedup:
    def test_concurrent_resolves_share_one_execution(self):
        release = threading.Event()
        calls = []

        def sim(q):
            calls.append(q)
            release.wait(5)
            return {"seed": q.seed}, 0.001

        resolver, registry = make_resolver(sim, cache=StubCache())
        p = point()

        async def go():
            first = asyncio.ensure_future(resolver.resolve_all([p]))
            await asyncio.sleep(0.02)  # first registers its execution
            second = asyncio.ensure_future(resolver.resolve_all([p]))
            await asyncio.sleep(0.02)
            release.set()
            return await asyncio.gather(first, second)

        results = run(go())
        assert results[0] == results[1] == [{"seed": 0}]
        assert len(calls) == 1
        stats = registry.snapshot()
        assert stats["exec.resolve.dedup_hits"] == 1
        assert stats["exec.resolve.simulated"] == 1

    def test_distinct_points_do_not_dedup(self):
        resolver, registry = make_resolver(
            lambda q: ({"seed": q.seed}, 0.001), cache=StubCache())

        async def go():
            return await asyncio.gather(resolver.resolve_all([point(0)]),
                                        resolver.resolve_all([point(1)]))

        assert run(go()) == [[{"seed": 0}], [{"seed": 1}]]
        assert registry.snapshot()["exec.resolve.dedup_hits"] == 0

    def test_cancelled_waiter_does_not_kill_shared_execution(self):
        release = threading.Event()
        calls = []

        def sim(q):
            calls.append(q)
            release.wait(5)
            return {"seed": q.seed}, 0.001

        resolver, registry = make_resolver(sim, cache=StubCache())
        p = point()

        async def go():
            first = asyncio.ensure_future(resolver.resolve_all([p]))
            await asyncio.sleep(0.02)
            second = asyncio.ensure_future(resolver.resolve_all([p]))
            await asyncio.sleep(0.02)
            first.cancel()
            await asyncio.sleep(0.02)
            release.set()
            return await second

        assert run(go()) == [{"seed": 0}]
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Both callers of the one pass
# ----------------------------------------------------------------------
class SyncFrontEnd:
    """``SweepEngine.run``: the CLI's, per-call pool."""

    def __init__(self, **kwargs):
        self.resolver = SweepEngine(**kwargs)

    def run(self, points):
        return self.resolver.run(points)


class AsyncFrontEnd:
    """``Resolver.resolve_all`` over the list: the daemon's."""

    def __init__(self, **kwargs):
        self.resolver = Resolver(**kwargs)

    def run(self, points):
        try:
            return run(self.resolver.resolve_all(points))
        finally:
            self.resolver.shutdown()


FRONT_ENDS = {"sync": SyncFrontEnd, "async": AsyncFrontEnd}


@pytest.fixture(params=sorted(FRONT_ENDS))
def front_end(request):
    return FRONT_ENDS[request.param]


def counts(resolver):
    """``exec.resolve.*`` as published, minus the wall-time figures."""
    registry = StatsRegistry()
    resolver.register_stats(registry)
    timings = ("exec.resolve.wall_s", "exec.resolve.point_wall_ms.")
    return {name: value for name, value in registry.snapshot().items()
            if name.startswith("exec.resolve.")
            and not name.startswith(timings)}


class TestWorkerCrashes:
    """Two points, so ``SweepEngine`` takes its pool path too."""

    @pytest.fixture(autouse=True)
    def fast_backoff(self, monkeypatch):
        monkeypatch.setattr(resolver_mod, "RETRY_BACKOFF_S", 0.01)

    def test_broken_executor_retries_then_succeeds(self, front_end):
        attempts = []

        def sim(q):
            attempts.append(q.seed)
            if q.seed == 0 and attempts.count(0) <= 1:
                raise BrokenExecutor("worker died")
            return {"seed": q.seed}, 0.001

        factories = []

        def factory(n):
            factories.append(n)
            return ThreadPoolExecutor(max_workers=n)

        front = front_end(workers=2, cache=None, use_memo=False,
                          simulate_fn=sim, executor_factory=factory)
        assert front.run([point(0), point(1)]) == [{"seed": 0},
                                                    {"seed": 1}]
        assert attempts.count(0) == 2
        assert len(factories) == 2  # initial pool + one rebuild
        metrics = front.resolver.metrics
        assert metrics.worker_restarts == 1
        assert metrics.retries == 1
        assert metrics.simulated == 2
        assert metrics.failed == 0

    def test_retries_exhausted_raises_point_failed(self, front_end):
        def sim(q):
            if q.seed == 0:
                raise BrokenExecutor("worker died")
            return {"seed": q.seed}, 0.001

        front = front_end(workers=2, cache=None, use_memo=False,
                          simulate_fn=sim, executor_factory=thread_pool)
        with pytest.raises(PointFailed,
                           match=r"add\.baseline: worker crashed 3 times"):
            front.run([point(0), point(1)])
        metrics = front.resolver.metrics
        assert metrics.failed == 1
        assert metrics.worker_restarts == resolver_mod.MAX_RETRIES + 1
        assert metrics.retries == resolver_mod.MAX_RETRIES

    def test_deterministic_error_fails_without_retry(self, front_end):
        attempts = []

        def sim(q):
            attempts.append(q.seed)
            if q.seed == 0:
                raise ValueError("unknown workload")
            return {"seed": q.seed}, 0.001

        front = front_end(workers=2, cache=None, use_memo=False,
                          simulate_fn=sim, executor_factory=thread_pool)
        with pytest.raises(PointFailed,
                           match=r"add\.baseline: ValueError: unknown"):
            front.run([point(0), point(1)])
        assert attempts.count(0) == 1  # re-running would fail the same way
        metrics = front.resolver.metrics
        assert metrics.retries == 0
        assert metrics.worker_restarts == 0
        assert metrics.failed == 1


class TestFrontEndContract:
    """Sync and async callers of the pass agree on results and on
    counters, riders included. On a cache hit the async one returns the
    entry's row (it never decodes the result), the sync one the decoded
    result."""

    def test_same_results_and_counts_cold_and_warm(self, tmp_path):
        points = []
        for workload in ("add", "mcf"):
            design = DesignPoint(workload=workload, design="mopac-d",
                                 trh=500, **FAST)
            points += [design, design.baseline()]

        def front(kind, directory):
            return FRONT_ENDS[kind](workers=2, use_memo=False,
                                    cache=ResultCache(directory))

        seen = {}
        for kind in FRONT_ENDS:
            cold = front(kind, tmp_path / kind)
            cold_results = cold.run(points)
            warm = front(kind, tmp_path / kind)
            warm_results = warm.run(points)
            cold_docs = [result_to_dict(r) for r in cold_results]
            if kind == "sync":
                assert [result_to_dict(r) for r in warm_results] == cold_docs
                warm_results = [result_row(r) for r in warm_results]
            seen[kind] = (
                cold_docs, warm_results,
                counts(cold.resolver), counts(warm.resolver))

        assert seen["sync"] == seen["async"]
        _, warm_rows, cold_counts, warm_counts = seen["sync"]
        assert warm_rows == [result_row(r) for r in cold_results]
        assert cold_counts["exec.resolve.simulated"] == len(points)
        # both mopac-d points rode their baseline's run
        assert (cold_counts["exec.resolve.riders"],
                cold_counts["exec.resolve.riders_diverged"]) == (2, 0)
        assert warm_counts["exec.resolve.simulated"] == 0
        assert warm_counts["exec.resolve.cache_hits"] == len(points)


class TestFailFast:
    def test_first_failure_names_the_point_and_skips_the_queue(self):
        started = []

        def sim(q):
            started.append(q.workload)
            if q.workload == "add":
                raise ValueError("boom")
            time.sleep(1.0)
            return {"workload": q.workload}, 1.0

        points = [DesignPoint(workload=name, design="prac", **FAST)
                  for name in ("add", "mcf", "lbm", "copy", "omnetpp",
                               "parest", "xalancbmk", "mix1")]
        engine = SweepEngine(workers=2, cache=None, use_memo=False,
                             simulate_fn=sim, executor_factory=thread_pool)
        begin = time.perf_counter()
        with pytest.raises(PointFailed, match=r"^add\.prac: ValueError: "
                                              r"boom$"):
            engine.run(points)
        # at the parent commit: a bare ValueError after every queued
        # point had run (about 4 s here)
        assert time.perf_counter() - begin < 0.9
        assert len(started) <= 3
        assert engine.metrics.failed == 1


class TestInlineWhenOneWorker:
    """``workers=1`` (``--workers 1``, ``REPRO_WORKERS=1``) never builds
    a pool, whatever the number of misses."""

    @staticmethod
    def no_pool(n):
        raise AssertionError("workers=1 must not build a pool")

    def test_workers_one_runs_every_miss_inline(self):
        threads = set()

        def sim(q):
            threads.add(threading.get_ident())
            return {"seed": q.seed}, 0.001

        engine = SweepEngine(workers=1, cache=None, use_memo=False,
                             simulate_fn=sim, executor_factory=self.no_pool)
        results = engine.run([point(seed) for seed in range(4)])
        assert results == [{"seed": seed} for seed in range(4)]
        assert threads == {threading.get_ident()}
        assert engine.metrics.simulated == 4

    def test_repro_workers_one_is_the_inline_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        engine = SweepEngine(cache=None, use_memo=False,
                             simulate_fn=lambda q: ({"seed": q.seed}, 0.0),
                             executor_factory=self.no_pool)
        assert engine.workers == 1
        assert engine.run([point(0), point(1)]) == [{"seed": 0},
                                                    {"seed": 1}]

    def test_single_miss_runs_inline_with_many_workers(self):
        engine = SweepEngine(workers=4, cache=None, use_memo=False,
                             simulate_fn=lambda q: ({"seed": q.seed}, 0.0),
                             executor_factory=self.no_pool)
        assert engine.run([point(3), point(3)]) == [{"seed": 3}] * 2
        assert engine.metrics.dedup_hits == 1


class TestConfig:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            Resolver(workers=0)

    def test_shutdown_is_idempotent(self):
        resolver, _ = make_resolver(lambda q: ({}, 0.001))

        async def go():
            await resolver.resolve_all([point()])
            resolver.shutdown()
            resolver.shutdown()

        run(go())
