"""Point execution for the daemon: dedup, cache, retries, backoff.

:class:`PointRunner` is the bridge between asyncio land (jobs are
coroutines) and CPU land (simulations run in a bounded
``ProcessPoolExecutor``). Every design point a job needs goes through
:meth:`PointRunner.resolve`, which applies, in order:

1. **cache short-circuit** — completed points come straight out of the
   content-addressed :class:`~repro.exec.cache.ResultCache`;
2. **in-flight deduplication** — if any job is already simulating the
   same cache key, the caller awaits that execution instead of
   starting a second one (``serve.dedup_hits``);
3. **execution** — the point is simulated in a worker process under a
   global concurrency semaphore, then written back to the cache.

Worker crashes (``BrokenProcessPool``) rebuild the pool and retry the
point with exponential backoff, up to ``max_retries`` times; a point
that raises a normal (deterministic) exception fails immediately as
:class:`PointFailed` without retry — re-running it would only fail the
same way.

Cancellation is cooperative at the *job* level: a cancelled job stops
awaiting its points, but an execution that other jobs share — or that
has already entered a worker — runs to completion and still populates
the cache. Nothing is ever torn down mid-simulation.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Any, Callable

from ..exec.cache import ResultCache, point_key
from ..exec.engine import _simulate_point, default_workers
from ..obs.log import get_logger
from ..obs.registry import StatsRegistry
from ..obs.spans import span

log = get_logger(__name__)

#: Bucket edges (milliseconds) of the per-point simulation histogram.
POINT_WALL_MS_BOUNDS = (10, 50, 100, 500, 1_000, 5_000, 30_000, 120_000)


class PointFailed(RuntimeError):
    """A design point could not be resolved."""

    def __init__(self, point: Any, reason: str):
        self.point = point
        self.reason = reason
        super().__init__(
            f"{getattr(point, 'workload', '?')}."
            f"{getattr(point, 'design', '?')}: {reason}")


class PointRunner:
    """Deduplicated, cached, crash-tolerant point execution."""

    def __init__(self, workers: int | None = None,
                 cache: ResultCache | None = None,
                 registry: StatsRegistry | None = None,
                 simulate_fn: Callable[[Any], tuple[Any, float]] | None = None,
                 executor_factory: Callable[[int], Any] | None = None,
                 max_retries: int = 2,
                 retry_backoff_s: float = 0.25):
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = cache
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._simulate = simulate_fn or _simulate_point
        self._executor_factory = executor_factory or (
            lambda n: ProcessPoolExecutor(max_workers=n))
        self._executor = None
        self._sem = asyncio.Semaphore(self.workers)
        self._inflight: dict[str, asyncio.Task] = {}
        self._running = 0

        registry = registry if registry is not None else StatsRegistry()
        self.registry = registry
        self._c_requested = registry.counter("serve.points_requested")
        self._c_cache_hits = registry.counter("serve.cache_hits")
        self._c_cache_misses = registry.counter("serve.cache_misses")
        self._c_dedup = registry.counter("serve.dedup_hits")
        self._c_simulated = registry.counter("serve.points_simulated")
        self._c_failed = registry.counter("serve.points_failed")
        self._c_restarts = registry.counter("serve.worker_restarts")
        self._c_retries = registry.counter("serve.point_retries")
        self._h_wall = registry.histogram("serve.point_wall_ms",
                                          POINT_WALL_MS_BOUNDS)
        registry.register("serve.pool", lambda: {
            "inflight_points": len(self._inflight),
            "running_points": self._running,
            "workers": self.workers,
        })
        if self.cache is not None:
            self.cache.register_stats(registry)

    # ------------------------------------------------------------------
    async def resolve(self, point: Any) -> Any:
        """Resolve one design point (cache -> in-flight -> simulate)."""
        key = point_key(point)
        with span("serve.point", key=key, workload=point.workload,
                  design=point.design):
            return await self._resolve(point, key)

    async def _resolve(self, point: Any, key: str) -> Any:
        self._c_requested.inc()
        if self.cache is not None:
            with span("serve.cache_lookup", key=key):
                result = self.cache.get(point)
            if result is not None:
                self._c_cache_hits.inc()
                return result
            self._c_cache_misses.inc()
        task = self._inflight.get(key)
        if task is not None:
            self._c_dedup.inc()
            with span("serve.dedup_wait", key=key):
                return await asyncio.shield(task)
        task = asyncio.ensure_future(self._execute(point, key))
        self._inflight[key] = task
        task.add_done_callback(
            lambda done, k=key: self._retire(k, done))
        # shield: cancelling THIS caller (job timeout/cancel) must not
        # kill an execution other jobs may be sharing
        return await asyncio.shield(task)

    def _retire(self, key: str, task: asyncio.Task) -> None:
        self._inflight.pop(key, None)
        if not task.cancelled() and task.exception() is not None:
            # consume the exception so abandoned executions (all their
            # waiting jobs were cancelled) don't warn at GC time; live
            # waiters still observe it through the shield
            pass

    async def _execute(self, point: Any, key: str) -> Any:
        loop = asyncio.get_running_loop()
        async with self._sem:
            attempt = 0
            self._running += 1
            try:
                while True:
                    if self._executor is None:
                        self._executor = self._executor_factory(self.workers)
                    try:
                        with span("serve.simulate", key=key):
                            result, wall = await loop.run_in_executor(
                                self._executor, self._simulate, point)
                        break
                    except BrokenExecutor as error:
                        self._c_restarts.inc()
                        self._rebuild_executor()
                        if attempt >= self.max_retries:
                            self._c_failed.inc()
                            raise PointFailed(
                                point, f"worker crashed {attempt + 1} "
                                       f"times ({error})") from None
                        attempt += 1
                        self._c_retries.inc()
                        delay = self.retry_backoff_s * (2 ** (attempt - 1))
                        log.warning("worker crashed on %s key=%s; retry "
                                    "%d/%d in %.2fs", point, key, attempt,
                                    self.max_retries, delay)
                        await asyncio.sleep(delay)
                    except Exception as error:
                        # deterministic simulation error: no retry
                        self._c_failed.inc()
                        raise PointFailed(
                            point,
                            f"{type(error).__name__}: {error}") from error
            finally:
                self._running -= 1
        self._c_simulated.inc()
        self._h_wall.observe(wall * 1000.0)
        if self.cache is not None:
            with span("serve.cache_write", key=key):
                self.cache.put(point, result)
        return result

    def gauges(self) -> dict[str, float]:
        """Live values for the daemon's time-series sampler."""
        return {
            "inflight_points": len(self._inflight),
            "running_points": self._running,
            "dedup_hits": self._c_dedup.value,
            "cache_hits": self._c_cache_hits.value,
            "cache_misses": self._c_cache_misses.value,
            "points_simulated": self._c_simulated.value,
            "points_requested": self._c_requested.value,
        }

    def _rebuild_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop everything; pending in-flight tasks are cancelled."""
        for task in list(self._inflight.values()):
            task.cancel()
        self._inflight.clear()
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
